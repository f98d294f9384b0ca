"""Named verification pipelines over the shipped fixtures.

Each check is a pure function of the experiment context (plus, for a
few, a size or order a config sets), returning a CheckRecord with a
pass flag and the measured numbers.  The CLI `run` command and the
acceptance test suite both drive this registry, so tolerances and
solver settings live here as constants of each check, pinned at their
contract values: no config can override them.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import blas, heap, verify
from .duhamel import (
    SolverConfig,
    Trajectory,
    _propagator_matrices,
    choose_theta,
    evaluate,
    growth_bound,
    picard_solve,
    ritz_growth_bound,
    sequential_solve,
)
from .fixtures import gaussian_bump, power_law
from .grids import GridFunction
from .indices import (
    TOL,
    MorreyParams,
    PotentialClass,
    ProblemDims,
    ScaleIndex,
    exterior_tangent,
    from_index,
    smoothing_distance,
    to_index,
)
from .norms import RadiusLadder, _scan, holder_product_check, morrey_norm, uniform_norm
from .potentials import constant_potential, power_law_potential
from .semigroup import (
    apply_semigroup,
    kernel,
    laplacian_power_symbol,
    positivity_defect,
    selfsimilar_collapse,
    subordination_apply,
)

__all__ = ["CheckContext", "CheckRecord", "CHECKS", "run_checks", "record_name"]

_log = logging.getLogger(__name__)


@dataclass
class CheckContext:
    dims: ProblemDims
    n: int
    L: float
    seed: int = 0
    memo: dict = field(default_factory=dict)

    def symbol(self, m: int | None = None, n: int | None = None, N: int | None = None):
        key = ("symbol", N or self.dims.N, n or self.n, m or self.dims.m)
        if key not in self.memo:
            self.memo[key] = laplacian_power_symbol(
                N or self.dims.N, n or self.n, self.L, m or self.dims.m)
        return self.memo[key]

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    details: dict
    duration: float = 0.0


def record_name(name: str, params: dict) -> str:
    """Name of the record one configured entry produces: the check's name,
    plus the order for selfsimilar_collapse, which a config may run at several."""
    if name == "selfsimilar_collapse":
        return f"{name}_m{params.get('m', 1)}"
    return name


def _record(name, passed, **details) -> CheckRecord:
    return CheckRecord(name, bool(passed), details)


# -- kernels -------------------------------------------------------------------


def _resolved_t(t: float, h: float, m: int, mus) -> float:
    """Lift t until the kernel scale t^{1/(2 m mu)} clears 4h for every mu."""
    need = max((4.0 * h) ** (2.0 * m * mu) for mu in mus)
    return max(t, 1.25 * need)


def _kernel(ctx: CheckContext, t: float, mu: float, sym) -> tuple[float, float]:
    """(mass, positivity defect) of kernel(t, mu, sym), built once per
    context, which keeps the two numbers and not the grid: at the default
    m = 1 the mass and positivity checks ask for the same kernels."""
    key = ("kernel", t, mu, sym.N, sym.n, sym.L, sym.m)
    if key not in ctx.memo:
        grid = kernel(t, mu, sym)
        ctx.memo[key] = grid.mass(), positivity_defect(grid)
    return ctx.memo[key]


# The mass and positivity checks share these, so at m = 1 they share kernels.
_KERNEL_T = 0.02
_KERNEL_MUS = (0.5, 0.75, 1.0)


def check_kernel_mass(ctx: CheckContext) -> CheckRecord:
    tol = 1e-8
    sym = ctx.symbol()
    t = _resolved_t(_KERNEL_T, sym.h, sym.m, _KERNEL_MUS)
    masses = {mu: _kernel(ctx, t, mu, sym)[0] for mu in _KERNEL_MUS}
    worst = max(abs(v - 1.0) for v in masses.values())
    return _record("kernel_mass", worst <= tol, worst=worst, t=t,
                   masses={str(k): v for k, v in masses.items()}, tol=tol)


def check_kernel_positivity(ctx: CheckContext) -> CheckRecord:
    tol = -1e-9
    sym = ctx.symbol(m=1)
    t = _resolved_t(_KERNEL_T, sym.h, 1, _KERNEL_MUS)
    defects = {mu: _kernel(ctx, t, mu, sym)[1] for mu in _KERNEL_MUS}
    worst = min(defects.values())
    return _record("kernel_positivity", worst >= tol, worst=worst, t=t,
                   defects={str(k): v for k, v in defects.items()}, tol=tol)


def _closed_form_record(ctx: CheckContext, name: str, t: float, mu: float, exact,
                        tol: float) -> CheckRecord:
    """The m=1 kernel of order mu at time t against its closed form exact(r)
    in the distance r from the origin, evaluated only on the ball r <= L/2
    it is compared on."""
    k = kernel(t, mu, ctx.symbol(m=1))
    r = k.radii()
    sel = r <= ctx.L / 2.0
    truth = exact(r[sel])
    err = float(np.max(np.abs(k.values[sel] - truth) / truth))
    return _record(name, err <= tol, rel_sup_error=err, t=t, tol=tol)


def check_kernel_gaussian(ctx: CheckContext) -> CheckRecord:
    """m=1, mu=1 kernel against the closed-form heat kernel
    (4 pi t)^{-N/2} e^{-|x|^2/(4t)} on |x| <= L/2."""
    t = 0.25
    return _closed_form_record(
        ctx, "kernel_gaussian", t, 1.0,
        lambda r: np.exp(-(r**2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t) ** ctx.dims.N,
        1e-6)


def wrapped_poisson(x: np.ndarray, t: float, L: float) -> np.ndarray:
    """Periodization of the Cauchy kernel t/(pi (t^2+x^2)) over the 2L torus."""
    y = math.pi * t / L
    return (0.5 / L) * math.sinh(y) / (np.cosh(y) - np.cos(math.pi * x / L))


def check_kernel_poisson(ctx: CheckContext) -> CheckRecord:
    """m=1, mu=1/2 kernel against the wrapped Poisson kernel on |x| <= L/2.

    The torus realization periodizes the heavy Cauchy tails, so the
    honest closed-form oracle is the lattice sum (in its sinh/cosh form),
    which is one-dimensional.
    """
    if ctx.dims.N != 1:
        raise ValueError(f"the closed form is the 1D wrapped Poisson kernel; "
                         f"there is none at N = {ctx.dims.N}")
    t = 0.5
    return _closed_form_record(ctx, "kernel_poisson", t, 0.5,
                               lambda r: wrapped_poisson(r, t, ctx.L), 1e-4)


# the collapse tolerance of each order the check runs at; a config may
# tighten it, never loosen it, and runs no other order
_COLLAPSE_TOLS = {1: 1e-3, 2: 1e-2}


def _collapse_tolerance(m: int, tol: float | None) -> float:
    """The collapse tolerance at order m: tol, which may tighten the pinned
    value but not loosen it, or the pinned value itself."""
    if m not in _COLLAPSE_TOLS:
        raise ValueError(f"no collapse tolerance at order m={m}; orders: {sorted(_COLLAPSE_TOLS)}")
    if tol is not None and tol > _COLLAPSE_TOLS[m]:
        raise ValueError(f"collapse tolerance {tol} above the order-{m} value {_COLLAPSE_TOLS[m]}")
    return _COLLAPSE_TOLS[m] if tol is None else tol


def check_selfsimilar_collapse(ctx: CheckContext, m: int = 1,
                               tol: float | None = None) -> CheckRecord:
    tol = _collapse_tolerance(m, tol)
    sym = ctx.symbol(m=m)
    # the linear resampling needs the kernel scale clear of 8h, not 4h
    t0 = _resolved_t(0.01, 2.0 * sym.h, m, [1.0])
    ts = (t0, 4.0 * t0)
    resid = selfsimilar_collapse(ts, 1.0, sym)
    return _record(record_name("selfsimilar_collapse", {"m": m}), resid <= tol,
                   residual=resid, ts=list(ts), tol=tol)


def check_kernel_2d(ctx: CheckContext) -> CheckRecord:
    """Two-dimensional spot check: mass, positivity, closed-form kernel."""
    t = 0.25
    sym = ctx.symbol(N=2, n=256, m=1)
    k = kernel(t, 1.0, sym)
    m = k.mass()
    defect = positivity_defect(k)
    ax = k.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    exact = np.exp(-(X**2 + Y**2) / (4.0 * t)) / (4.0 * math.pi * t)
    sel = np.maximum(np.abs(X), np.abs(Y)) <= ctx.L * 3.0 / 8.0
    rel = float(np.max(np.abs(k.values[sel] - exact[sel]) / exact[sel]))
    ok = abs(m - 1.0) <= 1e-8 and defect >= -1e-9 and rel <= 1e-6
    return _record("kernel_2d", ok, mass=m, positivity=defect, rel_sup_error=rel)


def check_subordination(ctx: CheckContext) -> CheckRecord:
    """Multiplier path vs stable-density quadrature at mu = 1/2, Dirac datum."""
    t, tol = 0.5, 1e-3
    sym = ctx.symbol(m=1)
    delta = GridFunction.dirac(ctx.dims.N, ctx.n, ctx.L)
    direct = apply_semigroup(delta, t, 0.5, sym)
    sub = subordination_apply(delta, t, sym)
    num = float(np.sum(np.abs(direct.values - sub.values)))
    den = float(np.sum(np.abs(direct.values)))
    return _record("subordination", num / den <= tol, rel_l1=num / den, tol=tol)


# -- smoothing rates -----------------------------------------------------------


def check_smoothing_dirac(ctx: CheckContext) -> CheckRecord:
    """Dirac datum, measure class to sup norm: slope -(N/(2 m mu)), over two
    decades of t from 1e-3, lifted until the kernel scale clears 4h."""
    tol = 0.03
    sym = ctx.symbol()
    delta = GridFunction.dirac(ctx.dims.N, ctx.n, ctx.L)
    start = math.log10(_resolved_t(1e-3, sym.h, sym.m, [ctx.dims.mu]))
    ts = np.logspace(start, start + 2.0, 10)
    # map, unlike a loop variable, keeps no state while the next one is
    # made; max(max, -min) is max |g| without a grid-sized temporary
    sups = list(map(lambda g: float(max(g.values.max(), -g.values.min())),
                    apply_semigroup(delta, ts, ctx.dims.mu, sym)))
    predicted = -ctx.dims.N / ctx.dims.order
    fit = verify.fit_decay(ts, sups, predicted, tol)
    return _record("smoothing_dirac", fit.passed, slope=fit.slope,
                   predicted=predicted, rel_dev=fit.rel_deviation, tol=tol)


def check_smoothing_morrey(ctx: CheckContext) -> CheckRecord:
    """Three Morrey pairs on the truncated power-law datum, t in [1e-3, 1e-1]."""
    tol = 0.10
    sym = ctx.symbol()
    u0 = power_law(ctx.dims.N, ctx.n, ctx.L, beta=0.8, support_radius=2.0,
                   mass_faithful=True)
    src = MorreyParams(1.0, 0.8)
    pairs = [MorreyParams(1.0, 0.2), MorreyParams(2.0, 0.4), MorreyParams(math.inf, 0.4)]
    ts = np.logspace(-3, -1, 10)
    ladder = RadiusLadder.for_grid(u0)
    # one row per state, normed in every pair as it arrives; map, unlike a
    # loop variable, keeps no state while the next one is made
    table = np.array(list(map(lambda g: [morrey_norm(g, q.p, q.ell, ladder) for q in pairs],
                              apply_semigroup(u0, ts, ctx.dims.mu, sym))))
    fits = {}
    ok = True
    for dst, norms in zip(pairs, table.T):
        predicted = verify.predicted_rate(src, dst, ctx.dims)
        fit = verify.fit_decay(ts, norms, predicted, tol)
        fits[f"(q={dst.p:g},s={dst.ell:g})"] = {
            "slope": fit.slope, "predicted": predicted, "rel_dev": fit.rel_deviation}
        ok = ok and fit.passed
    return _record("smoothing_morrey", ok, fits=fits, tol=tol)


def check_norm_fixtures(ctx: CheckContext) -> CheckRecord:
    """Morrey estimator against the analytic value of a homogeneous fixture,
    plus the product inequality and the uniform-space embedding."""
    tol = 0.10
    pl = power_law(1, min(ctx.n, 4096), 1.0, beta=0.5)
    val = morrey_norm(pl, 1.0, 0.5)
    morrey_ok = abs(val - 4.0) <= tol * 4.0
    quarter = power_law(1, min(ctx.n, 4096), 1.0, beta=0.25)
    holder = holder_product_check(quarter, quarter, 2.0, 0.5, 2.0, 0.5)
    wide = power_law(1, min(ctx.n, 2048), ctx.L, beta=0.5)
    embed_ok = uniform_norm(wide, 1.0) <= morrey_norm(wide, 1.0, 0.5) + 1e-12
    ok = morrey_ok and holder.passed and embed_ok
    return _record("norm_fixtures", ok, morrey_value=val,
                   holder_lhs=holder.lhs, holder_rhs=holder.rhs,
                   embedding_ok=embed_ok, tol=tol)


def check_trace(ctx: CheckContext) -> CheckRecord:
    threshold = 1e-3
    sym = ctx.symbol()
    bump = gaussian_bump(ctx.dims.N, ctx.n, ctx.L)
    ok, dists = verify.trace_check(bump, 1.0, ctx.L / 2.0, ctx.dims.mu, sym,
                                   threshold=threshold)
    return _record("trace", ok, final=dists[-1], first=dists[0], tol=threshold)


# -- perturbed evolution fixtures ----------------------------------------------

_POWER_BETA = 0.5
_POWER_P0 = 1.5
_CONST_C = 1.0  # the constant potential of the closed-form checks
_LAMS = (-4.0, -6.0)  # where the pseudoresolvent checks test the identity
_HALF_NODE_MIN = 32  # the fewest (even) nodes of a solve the half-node estimate halves


def _fixture(ctx: CheckContext, n: int, potentials, ell: float, horizon: float,
             nodes: int, grading: float = 2.0) -> Trajectory:
    """The Gaussian bump on the n-point grid, as data of class M^{2,ell},
    solved under the potentials on `nodes` nodes up to `horizon`."""
    dims = ctx.dims
    return picard_solve(gaussian_bump(dims.N, n, ctx.L), potentials,
                        SolverConfig(horizon, nodes, grading),
                        to_index(MorreyParams(2.0, ell), dims), dims, ctx.symbol(n=n))


def _power_traj(ctx: CheckContext, n: int = 512):
    return _fixture(ctx, n, [power_law_potential(1.0, _POWER_BETA, _POWER_P0)], 0.7, 0.25, 64)


def _const_traj(ctx: CheckContext):
    if "const_traj" not in ctx.memo:
        ctx.memo["const_traj"] = _fixture(ctx, 256, [constant_potential(_CONST_C, N=ctx.dims.N)],
                                          1.0, 0.25, 256, grading=1.0)
    return ctx.memo["const_traj"]


def check_constant_potential(ctx: CheckContext) -> CheckRecord:
    """Solve with a constant potential against e^{c t} times the base flow."""
    tol = 1e-7
    traj = _const_traj(ctx)
    base = picard_solve(traj.u0, (), traj.config, traj.gamma, traj.dims, traj.symbol).values
    scaled = [math.exp(_CONST_C * t) * free for t, free in zip(traj.times, base)]
    worst = float(np.max(np.abs(traj.values - scaled)))
    return _record("constant_potential", worst <= tol, sup_error=worst, tol=tol)


def _node_norms(traj: Trajectory, stack: np.ndarray) -> np.ndarray:
    """The norms in traj's working space X^alpha of a (K, n, ...) stack of
    node states, all from one stacked scan."""
    mp = from_index(traj.alpha, traj.dims)
    return _scan(traj.u0, stack, mp.p, mp.ell, RadiusLadder.for_grid(traj.u0))


def _weighted_norm(traj: Trajectory, stack: np.ndarray, theta: float) -> float:
    """sup_k e^{-theta t_k} t_k^d ||stack_k||_alpha, the norm the Duhamel map
    contracts in (d = d(alpha, gamma))."""
    d = smoothing_distance(traj.alpha, traj.gamma)
    return float(np.max(np.exp(-theta * traj.times) * traj.times**d * _node_norms(traj, stack)))


def check_contraction(ctx: CheckContext) -> CheckRecord:
    """The paper's contraction claim on the two fixture solves.

    Their states u solve the discrete Duhamel system exactly, so u - base
    is the map's linear part applied to u; its weighted norm over u's,
    at choose_theta's theta, must stay within the predicted factor
    R sum_i c_i(theta).
    """
    details = {}
    ok = True
    for name, traj in {"power_law": _power_traj(ctx), "constant": _const_traj(ctx)}.items():
        u0 = traj.u0
        theta, bound = choose_theta(
            max(V.measured_norm(u0.N, u0.n, u0.L) for V in traj.potentials),
            [V.potential_class(traj.dims).kappa for V in traj.potentials],
            smoothing_distance(traj.alpha, traj.gamma), traj.config.horizon)
        base = picard_solve(u0, (), traj.config, traj.gamma, traj.dims, traj.symbol).values
        gap = _weighted_norm(traj, traj.values - base, theta)
        ratio = gap / _weighted_norm(traj, traj.values, theta)
        details[name] = {"ratio": ratio, "bound": bound, "theta": theta}
        ok = ok and ratio <= bound
    return _record("contraction", ok, fixtures=details)


def _half_node_count(K: int) -> None:
    """The node count of a solve the half-node estimate halves: even, so the
    two grids share nodes, and at least 32, so the coarse solve keeps the
    solver's 16 nodes."""
    if K % 2 or K < _HALF_NODE_MIN:
        raise ValueError(f"the half-node estimate compares with a half-node solve, which "
                         f"needs an even node count of at least {_HALF_NODE_MIN}, got {K}")


def _half_node_gap(traj: Trajectory, solve, norm) -> float:
    """Discretisation error estimate of a trajectory: max_j ||u_{2j+1} - v_j||
    against v, the same problem re-solved by `solve` on K/2 nodes, whose
    node j is the trajectory's node 2j + 1 (t = T ((2j + 2)/K)^g).
    norm(traj, stack) gives the norm of each state of a stack, or any array
    whose max is their max (np.abs of the stack for the sup norm)."""
    K = traj.config.nodes
    _half_node_count(K)
    coarse = solve(traj.u0, traj.potentials, replace(traj.config, nodes=K // 2),
                   traj.gamma, traj.dims, traj.symbol)
    return float(np.max(norm(traj, traj.values[1::2] - coarse.values)))


def check_semigroup_property(ctx: CheckContext) -> CheckRecord:
    """evaluate(t1+t2) against re-propagating evaluate(t2) by t1, within
    ten times the half-node estimate of the solve's error."""
    traj = _power_traj(ctx, n=256)
    err = _half_node_gap(traj, picard_solve, _node_norms)
    t1, t2 = 0.125, 0.125
    comp = picard_solve(evaluate(traj, t2), traj.potentials, replace(traj.config, horizon=t1),
                        traj.alpha, traj.dims, traj.symbol).values[-1]
    disc = float(np.max(np.abs(evaluate(traj, t1 + t2).values - comp)))
    tol = 10.0 * err
    return _record("semigroup_property", disc <= tol, discrepancy=disc, tol=tol)


def _two_potentials():
    V0 = power_law_potential(1.0, 0.3, 2.0)    # class (2, 0.6)
    V1 = power_law_potential(1.0, 0.5, 1.5)    # class (1.5, 0.75)
    return V0, V1


def _first_stage_gap(V, lam: np.ndarray, sym, mu: float):
    """The first stage's dense top eigenvalue lam[-1] against the matrix-free
    growth_bound of the same V: their gap, and its roundoff bound
    16 eps ||H||, with ||H|| = max |lam| for the symmetric H.  Both
    eigensolvers are backward stable, to a small multiple of eps ||H||."""
    gap = abs(float(lam[-1]) - growth_bound(V, sym, mu))
    return gap, 16.0 * np.finfo(float).eps * max(abs(float(lam[0])), abs(float(lam[-1])))


def check_iterated(ctx: CheckContext, n: int = 256, nodes: int = 64) -> CheckRecord:
    """Joint two-potential solve vs sequential composition in both orders,
    within ten times the half-node estimates of the two solves' errors.
    Each order's first-stage eigendecomposition, made once and shared with
    its re-solve, must also put its top eigenvalue at the potential's
    matrix-free growth bound, within roundoff."""
    dims, sym = ctx.dims, ctx.symbol(n=n)
    V0, V1 = _two_potentials()
    stages = [_propagator_matrices(V, sym, dims.mu) for V in (V0, V1)]
    joint = _fixture(ctx, n, [V0, V1], 0.3, 0.25, nodes, grading=1.0)
    joint_err = _half_node_gap(joint, picard_solve, _node_norms)
    bump, cfg, gamma = joint.u0, joint.config, joint.gamma
    seq01 = sequential_solve(bump, [V0, V1], cfg, gamma, dims, sym, stages[0])
    seq10 = sequential_solve(bump, [V1, V0], cfg, gamma, dims, sym, stages[1])
    seq_err = _half_node_gap(seq01, lambda *args: sequential_solve(*args, first_stage=stages[0]),
                             lambda _, stack: np.abs(stack))
    tol = 10.0 * (joint_err + seq_err)
    d_orders, d_joint = (float(np.max(np.abs(seq01.values - t.values))) for t in (seq10, joint))
    gaps, bounds = zip(*(_first_stage_gap(V, lam, sym, dims.mu)
                         for V, (lam, _) in zip((V0, V1), stages)))
    ok = d_orders <= tol and d_joint <= tol and all(g <= b for g, b in zip(gaps, bounds))
    return _record("iterated", ok, order_discrepancy=d_orders,
                   joint_discrepancy=d_joint, tol=tol, first_stage_gaps=gaps,
                   first_stage_tols=bounds)


def check_continuous_dependence(ctx: CheckContext) -> CheckRecord:
    """Difference norms scale linearly in the potential gap (slope 1)."""
    n, tol = 256, 0.10
    eps = [0.02, 0.04, 0.08, 0.16]
    base, *trajs = (_fixture(ctx, n, [power_law_potential(1.0 + e, _POWER_BETA, _POWER_P0)],
                             0.7, 0.25, 48) for e in [0.0] + eps)
    vnorm = base.potentials[0].measured_norm(ctx.dims.N, n, ctx.L)
    fit, consts = verify.continuous_dependence_check(
        base, trajs, [e * vnorm for e in eps], MorreyParams(2.0, 0.7), ctx.dims, tol)
    bounded = max(consts) <= 2.0 * min(consts)
    return _record("continuous_dependence", fit.passed and bounded,
                   slope=fit.slope, constants=consts, tol=tol)


def _omega_record(ctx: CheckContext, name: str, n: int, family, sizes, kappa: float,
                  tol: float, **details) -> CheckRecord:
    """The growth bounds of a potential family on the n-point grid, fitted as
    a power of the potentials' sizes, against the exponent 1/(1 - kappa).
    Each rate's Ritz residual is its error bar (Parlett, Thm 4.5.1)."""
    sym = ctx.symbol(n=n)
    rates, residuals = zip(*(ritz_growth_bound(V, sym, ctx.dims.mu) for V in family))
    fit = verify.omega_scaling(sizes, rates, kappa0=kappa, tolerance=tol)
    return _record(name, fit.passed, exponent=fit.slope, rates=rates,
                   residuals=residuals, tol=tol, **details)


def check_omega_constant(ctx: CheckContext, n: int = 256) -> CheckRecord:
    """Constant potentials: the growth bound is c, so the size exponent is 1."""
    cs = [0.25, 0.5, 1.0, 2.0]
    return _omega_record(ctx, "omega_constant", n,
                         [constant_potential(c, N=ctx.dims.N) for c in cs], cs, 0.0, 0.02)


def check_omega_power(ctx: CheckContext) -> CheckRecord:
    """kappa = 1/4 power-law family: growth-bound exponent vs 1/(1-kappa) = 4/3."""
    n = 512
    family = [power_law_potential(A, _POWER_BETA, _POWER_P0) for A in (0.5, 1.0, 2.0, 4.0)]
    kappa = family[1].potential_class(ctx.dims).kappa
    return _omega_record(ctx, "omega_power", n, family,
                         [V.measured_norm(ctx.dims.N, n, ctx.L) for V in family], kappa, 0.15,
                         predicted=1.0 / (1.0 - kappa))


# -- region calculus -----------------------------------------------------------


# the band stratum's offsets from its boundary line, in units of TOL: both
# sides of the line and of its band's edge at +TOL, never on either edge
_BAND_STEPS = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 0.9, 1.1, 1.5, 2.0])


def _accepted(count: int, draw, keep):
    """The first `count` candidate rows that `keep` accepts.  Each round
    draws whole columns, `draw(size)`, of twice the rows still missing
    plus 32, so a mask that keeps half its candidates needs one or two
    rounds, and no round draws a scalar."""
    parts, need = [], count
    while need > 0:
        cols = draw(2 * need + 32)
        kept = np.flatnonzero(keep(*cols))[:need]
        parts.append([c[kept] for c in cols])
        need -= kept.size
    return [np.concatenate(c) for c in zip(*parts)]


def _random_queries(ctx: CheckContext, count: int):
    """`count` region queries as arrays: index columns gamma and the
    (count, 4) class table p0 ell0 p1 ell1 that region_report takes, nan
    where a row names one class.

    A row names one class or two with even odds, and every class is an
    admissible draw of p0 ~ U[1, 6], ell0 ~ U[0.05, N].  The first
    count - count // 4 rows draw gamma uniformly on the triangle, at least
    1e-3 from its lower edges.  The last count // 4, the band stratum,
    put slope(gamma) where uniform draws almost never land: a
    _BAND_STEPS multiple of TOL from the row's smaller class slope or
    from the slope cap, clipped at the cap, with gamma1 uniform in
    (0.01, 1] and above 2e-3 / slope, so gamma2 keeps the 1e-3 margin.
    """
    rng, dims = ctx.rng(), ctx.dims
    cap, n_band = dims.slope_cap, count // 4
    g1, g2 = _accepted(count - n_band,
                       lambda size: (rng.uniform(0.0, 1.0, size), rng.uniform(0.0, cap, size)),
                       lambda g1, g2: (g2 <= cap * g1) & (g1 >= 1e-3) & (g2 >= 1e-3))
    two = rng.uniform(size=count) >= 0.5
    p0, ell0 = _accepted(count + int(two.sum()),
                         lambda size: (rng.uniform(1.0, 6.0, size),
                                       rng.uniform(0.05, dims.N, size)),
                         lambda p0, ell0: PotentialClass.from_exponents(p0, ell0, dims).admissible)
    rows = np.full((count, 4), math.nan)
    rows[:, 0], rows[:, 1] = p0[:count], ell0[:count]
    rows[two, 2], rows[two, 3] = p0[count:], ell0[count:]
    band = rows[count - n_band:]
    pick = rng.integers(0, 2 * _BAND_STEPS.size, n_band)
    # a class slope is ell0 / (2 m mu); fmin skips a one-class row's nan
    line = np.where(pick < _BAND_STEPS.size, np.fmin(band[:, 1], band[:, 3]) / dims.order, cap)
    slope = np.minimum(line + _BAND_STEPS[pick % _BAND_STEPS.size] * TOL, cap)
    low = np.clip(2e-3 / slope, 0.01, 1.0)
    b1 = 1.0 - (1.0 - low) * rng.uniform(size=n_band)
    return ScaleIndex(np.concatenate([g1, b1]), np.concatenate([g2, slope * b1])), rows


def check_regions(ctx: CheckContext, count: int = 1000, density: int = 200) -> CheckRecord:
    """Closed-form predicates vs the exact witness oracle on `count`
    array-drawn queries, a quarter of them in the band stratum: any
    disagreement fails, and a failing record lists the first five."""
    # density is unread: the oracle no longer samples, but configs still set it
    disagreements = verify.compare_region_predicates(*_random_queries(ctx, count), ctx.dims)
    first = {"first": [asdict(d) for d in disagreements[:5]]} if disagreements else {}
    return _record("regions", not disagreements, queries=count,
                   disagreements=len(disagreements), **first)


def check_tangent(ctx: CheckContext) -> CheckRecord:
    """Analytic tangent case f = x^2 through (0, -1): x* = +-1."""
    tol = 1e-12
    f, fp, fpp = (lambda x: x * x), (lambda x: 2.0 * x), (lambda x: 2.0)
    right = exterior_tangent(f, fp, fpp, -2.0, 2.0, 0.0, -1.0, "right")
    left = exterior_tangent(f, fp, fpp, -2.0, 2.0, 0.0, -1.0, "left")
    err = max(abs(right - 1.0), abs(left + 1.0))
    return _record("tangent", err <= tol, error=err, tol=tol)


# -- pseudoresolvent -----------------------------------------------------------


def _pseudoresolvent_record(name: str, traj: Trajectory, tol: float) -> CheckRecord:
    """The resolvent identity's relative residual on a long solve at each
    of _LAMS; the worst must stay within tol."""
    residuals = {str(lam): verify.pseudoresolvent_identity(traj, lam) for lam in _LAMS}
    return _record(name, max(residuals.values()) <= tol, residuals=residuals, tol=tol)


def check_pseudoresolvent_constant(ctx: CheckContext) -> CheckRecord:
    traj = _fixture(ctx, 256, [constant_potential(_CONST_C, N=ctx.dims.N)], 1.0, 3.2, 256,
                    grading=1.0)
    return _pseudoresolvent_record("pseudoresolvent_constant", traj, 1e-3)


def check_pseudoresolvent_power(ctx: CheckContext) -> CheckRecord:
    traj = _fixture(ctx, 256, [power_law_potential(1.0, _POWER_BETA, _POWER_P0)], 0.7, 3.2, 192)
    return _pseudoresolvent_record("pseudoresolvent_power", traj, 0.05)


CHECKS = {
    "kernel_mass": check_kernel_mass,
    "kernel_positivity": check_kernel_positivity,
    "kernel_gaussian": check_kernel_gaussian,
    "kernel_poisson": check_kernel_poisson,
    "kernel_2d": check_kernel_2d,
    "selfsimilar_collapse": check_selfsimilar_collapse,
    "subordination": check_subordination,
    "norm_fixtures": check_norm_fixtures,
    "smoothing_dirac": check_smoothing_dirac,
    "smoothing_morrey": check_smoothing_morrey,
    "trace": check_trace,
    "constant_potential": check_constant_potential,
    "contraction": check_contraction,
    "semigroup_property": check_semigroup_property,
    "iterated": check_iterated,
    "continuous_dependence": check_continuous_dependence,
    "omega_constant": check_omega_constant,
    "omega_power": check_omega_power,
    "regions": check_regions,
    "tangent": check_tangent,
    "pseudoresolvent_constant": check_pseudoresolvent_constant,
    "pseudoresolvent_power": check_pseudoresolvent_power,
}

CHECK_GROUPS = {
    "kernel": ["kernel_mass", "kernel_positivity", "kernel_gaussian", "kernel_poisson",
               "kernel_2d", "selfsimilar_collapse", "subordination"],
    "norms": ["norm_fixtures", "trace"],
    "smoothing": ["smoothing_dirac", "smoothing_morrey"],
    "perturb": ["constant_potential", "contraction", "semigroup_property", "iterated",
                "continuous_dependence", "omega_constant", "omega_power",
                "pseudoresolvent_constant", "pseudoresolvent_power"],
    "regions": ["regions", "tangent"],
}


def _guarded(ctx: CheckContext, name: str, fn, params) -> CheckRecord:
    """Run and time one check; an exception becomes a FAIL record naming
    its type and message."""
    start = time.perf_counter()
    try:
        rec = fn(ctx, **params)
    except Exception as exc:
        _log.exception("check %s raised", name)
        rec = _record(record_name(name, params), False, error_type=type(exc).__name__,
                      error=str(exc))
    return replace(rec, duration=time.perf_counter() - start)


def run_checks(ctx: CheckContext, entries):
    """Execute configured checks in order, one at a time, under two process
    settings: one BLAS thread (`blas.one_thread`), so no host's core count
    moves a digit, and a heap that keeps freed grid-sized arrays for reuse
    (`heap.keep_freed_pages`), so a transform does not fault in the pages
    the last one freed.  `entries` are (name, params) pairs.  A check that
    raises yields a FAIL record and the others still run.
    """
    tasks = []
    for name, params in entries:
        fn = CHECKS.get(name)
        if fn is None:
            raise KeyError(f"unknown check {name!r}")
        tasks.append((name, fn, params))
    heap.keep_freed_pages()
    with blas.one_thread():
        return [_guarded(ctx, *task) for task in tasks]
