"""Named verification pipelines over the shipped fixtures.

Each check is a pure function of the experiment context plus its own
parameters, returning a CheckRecord with a pass flag and the measured
numbers.  The CLI `run` command and the acceptance test suite both
drive this registry, so tolerances live here, pinned at their
contract values.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import verify
from .duhamel import SolverConfig, evaluate, picard_solve, sequential_solve
from .fixtures import gaussian_bump, power_law
from .grids import GridFunction
from .indices import (
    MorreyParams,
    PotentialClass,
    ProblemDims,
    ScaleIndex,
    exterior_tangent,
    to_index,
)
from .norms import RadiusLadder, morrey_norm
from .potentials import constant_potential, power_law_potential
from .semigroup import (
    SubordinatorDensity,
    apply_semigroup,
    kernel,
    laplacian_power_symbol,
    positivity_defect,
    selfsimilar_collapse,
    subordination_apply,
)

__all__ = ["CheckContext", "CheckRecord", "CHECKS", "run_checks", "default_context",
           "record_name"]

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


def default_context(seed: int = 0) -> CheckContext:
    return CheckContext(dims=ProblemDims(1, 1, 1.0), n=4096, L=8.0, seed=seed)


def record_name(name: str, params: dict) -> str:
    """Name of the record one configured entry produces: the check's name,
    plus the order for selfsimilar_collapse, which a config may run at several."""
    if name == "selfsimilar_collapse":
        return f"{name}_m{params.get('m', 1)}"
    return name


def _record(name, passed, **details) -> CheckRecord:
    clean = {}
    for k, v in details.items():
        if isinstance(v, (np.floating, np.integer)):
            v = float(v)
        clean[k] = v
    return CheckRecord(name, bool(passed), clean)


# -- kernels -------------------------------------------------------------------


def _resolved_t(t: float, h: float, m: int, mus) -> float:
    """Lift t until the kernel scale t^{1/(2 m mu)} clears 4h for every mu."""
    need = max((4.0 * h) ** (2.0 * m * mu) for mu in mus)
    return max(t, 1.25 * need)


def check_kernel_mass(ctx: CheckContext, t: float = 0.02, mus=(0.5, 0.75, 1.0),
                      tol: float = 1e-8) -> CheckRecord:
    sym = ctx.symbol()
    t = _resolved_t(t, sym.h, sym.m, mus)
    masses = {mu: kernel(t, mu, sym).grid.mass() for mu in mus}
    worst = max(abs(v - 1.0) for v in masses.values())
    return _record("kernel_mass", worst <= tol, worst=worst, t=t,
                   masses={str(k): v for k, v in masses.items()}, tol=tol)


def check_kernel_positivity(ctx: CheckContext, t: float = 0.02, mus=(0.5, 0.75, 1.0),
                            tol: float = -1e-9) -> CheckRecord:
    sym = ctx.symbol(m=1)
    t = _resolved_t(t, sym.h, 1, mus)
    defects = {mu: positivity_defect(kernel(t, mu, sym).grid) for mu in mus}
    worst = min(defects.values())
    return _record("kernel_positivity", worst >= tol, worst=worst, t=t,
                   defects={str(k): v for k, v in defects.items()}, tol=tol)


def check_kernel_gaussian(ctx: CheckContext, t: float = 0.25, tol: float = 1e-6) -> CheckRecord:
    """m=1, mu=1 kernel against the closed-form heat kernel on |x| <= L/2."""
    sym = ctx.symbol(m=1)
    k = kernel(t, 1.0, sym).grid
    x = k.axis()
    exact = np.exp(-(x**2) / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    sel = np.abs(x) <= ctx.L / 2.0
    err = float(np.max(np.abs(k.values[sel] - exact[sel]) / exact[sel]))
    return _record("kernel_gaussian", err <= tol, rel_sup_error=err, t=t, tol=tol)


def wrapped_poisson(x: np.ndarray, t: float, L: float) -> np.ndarray:
    """Periodization of the Cauchy kernel t/(pi (t^2+x^2)) over the 2L torus."""
    y = math.pi * t / L
    return (0.5 / L) * math.sinh(y) / (np.cosh(y) - np.cos(math.pi * x / L))


def check_kernel_poisson(ctx: CheckContext, t: float = 0.5, tol: float = 1e-4) -> CheckRecord:
    """m=1, mu=1/2 kernel against the wrapped Poisson kernel on |x| <= L/2.

    The torus realization periodizes the heavy Cauchy tails, so the
    honest closed-form oracle is the lattice sum (in its sinh/cosh form).
    """
    sym = ctx.symbol(m=1)
    k = kernel(t, 0.5, sym).grid
    x = k.axis()
    exact = wrapped_poisson(x, t, ctx.L)
    sel = np.abs(x) <= ctx.L / 2.0
    err = float(np.max(np.abs(k.values[sel] - exact[sel]) / exact[sel]))
    return _record("kernel_poisson", err <= tol, rel_sup_error=err, t=t, tol=tol)


def check_selfsimilar_collapse(ctx: CheckContext, ts=(0.01, 0.04), m: int = 1,
                               mu: float = 1.0, tol: float = 1e-3) -> CheckRecord:
    sym = ctx.symbol(m=m)
    resid = selfsimilar_collapse([kernel(t, mu, sym) for t in ts])
    return _record(record_name("selfsimilar_collapse", {"m": m}), resid <= tol,
                   residual=resid, ts=list(ts), tol=tol)


def check_kernel_2d(ctx: CheckContext, n: int = 256, t: float = 0.25,
                    tol_mass: float = 1e-8, tol_gauss: float = 1e-6) -> CheckRecord:
    """Two-dimensional spot check: mass, positivity, closed-form kernel."""
    sym = ctx.symbol(N=2, n=n, m=1)
    k = kernel(t, 1.0, sym).grid
    m = k.mass()
    defect = positivity_defect(k)
    ax = k.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    exact = np.exp(-(X**2 + Y**2) / (4.0 * t)) / (4.0 * math.pi * t)
    sel = np.maximum(np.abs(X), np.abs(Y)) <= ctx.L * 3.0 / 8.0
    rel = float(np.max(np.abs(k.values[sel] - exact[sel]) / exact[sel]))
    ok = abs(m - 1.0) <= tol_mass and defect >= -1e-9 and rel <= tol_gauss
    return _record("kernel_2d", ok, mass=m, positivity=defect, rel_sup_error=rel)


def check_subordination(ctx: CheckContext, t: float = 0.5, tol: float = 1e-3) -> CheckRecord:
    """Multiplier path vs stable-density quadrature at mu = 1/2, Dirac datum."""
    sym = ctx.symbol(m=1)
    delta = GridFunction.dirac(ctx.dims.N, ctx.n, ctx.L)
    direct = apply_semigroup(delta, t, 0.5, sym)
    sub = subordination_apply(delta, t, sym, SubordinatorDensity.build())
    num = float(np.sum(np.abs(direct.values - sub.values)))
    den = float(np.sum(np.abs(direct.values)))
    return _record("subordination", num / den <= tol, rel_l1=num / den, tol=tol)


# -- smoothing rates -----------------------------------------------------------


def check_smoothing_dirac(ctx: CheckContext, tol: float = 0.03) -> CheckRecord:
    """Dirac datum, measure class to sup norm: slope -(N/(2 m mu))."""
    sym = ctx.symbol()
    delta = GridFunction.dirac(ctx.dims.N, ctx.n, ctx.L)
    ts = np.logspace(-3, -1, 10)
    sups = [float(np.max(np.abs(g.values))) for g in apply_semigroup(delta, ts, ctx.dims.mu, sym)]
    predicted = -ctx.dims.N / ctx.dims.order
    fit = verify.fit_decay(ts, sups, predicted, tol)
    return _record("smoothing_dirac", fit.passed, slope=fit.slope,
                   predicted=predicted, rel_dev=fit.rel_deviation, tol=tol)


def check_smoothing_morrey(ctx: CheckContext, tol: float = 0.10) -> CheckRecord:
    """Three Morrey pairs on the truncated power-law datum, t in [1e-3, 1e-1]."""
    sym = ctx.symbol()
    u0 = power_law(ctx.dims.N, ctx.n, ctx.L, beta=0.8, support_radius=2.0,
                   mass_faithful=True)
    src = MorreyParams(1.0, 0.8)
    pairs = [MorreyParams(1.0, 0.2), MorreyParams(2.0, 0.4), MorreyParams(math.inf, 0.4)]
    ts = np.logspace(-3, -1, 10)
    states = apply_semigroup(u0, ts, ctx.dims.mu, sym)
    ladder = RadiusLadder.for_grid(u0)
    fits = {}
    ok = True
    for dst in pairs:
        norms = [morrey_norm(g, dst.p, dst.ell, ladder) for g in states]
        predicted = verify.predicted_rate(src, dst, ctx.dims)
        fit = verify.fit_decay(ts, norms, predicted, tol)
        fits[f"(q={dst.p:g},s={dst.ell:g})"] = {
            "slope": fit.slope, "predicted": predicted, "rel_dev": fit.rel_deviation}
        ok = ok and fit.passed
    return _record("smoothing_morrey", ok, fits=fits, tol=tol)


def check_norm_fixtures(ctx: CheckContext, tol: float = 0.10) -> CheckRecord:
    """Morrey estimator against the analytic value of a homogeneous fixture,
    plus the product inequality and the uniform-space embedding."""
    from morreylab.norms import holder_product_check, uniform_norm

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


def check_trace(ctx: CheckContext, threshold: float = 1e-3) -> CheckRecord:
    sym = ctx.symbol()
    bump = gaussian_bump(ctx.dims.N, ctx.n, ctx.L)
    ok, dists = verify.trace_check(bump, 1.0, ctx.L / 2.0, ctx.dims.mu, sym,
                                   threshold=threshold)
    return _record("trace", ok, final=dists[-1], first=dists[0], tol=threshold)


# -- perturbed evolution fixtures ----------------------------------------------

_POWER_BETA = 0.5
_POWER_P0 = 1.5


def _solver_context(ctx: CheckContext, n: int):
    dims = ctx.dims
    sym = ctx.symbol(n=n)
    bump = gaussian_bump(dims.N, n, ctx.L)
    return dims, sym, bump


def _power_traj(ctx: CheckContext, n: int = 512, amplitude: float = 1.0,
                nodes: int = 64, horizon: float = 0.25, tol_estimate: bool = False):
    key = ("power_traj", n, amplitude, nodes, horizon, tol_estimate)
    if key not in ctx.memo:
        dims, sym, bump = _solver_context(ctx, n)
        V = power_law_potential(amplitude, _POWER_BETA, _POWER_P0)
        gamma = to_index(MorreyParams(2.0, 0.7), dims)
        cfg = SolverConfig(horizon=horizon, nodes=nodes, picard_tol=1e-8,
                           estimate_tolerance=tol_estimate)
        ctx.memo[key] = picard_solve(bump, [V], cfg, gamma, dims, sym, dims.mu)
    return ctx.memo[key]


def _const_traj(ctx: CheckContext, c: float = 1.0, n: int = 256, nodes: int = 256,
                horizon: float = 0.25, picard_tol: float = 1e-8):
    key = ("const_traj", c, n, nodes, horizon, picard_tol)
    if key not in ctx.memo:
        dims, sym, bump = _solver_context(ctx, n)
        V = constant_potential(c, N=dims.N)
        gamma = to_index(MorreyParams(2.0, 1.0), dims)
        cfg = SolverConfig(horizon=horizon, nodes=nodes, grading=1.0, picard_tol=picard_tol)
        ctx.memo[key] = picard_solve(bump, [V], cfg, gamma, dims, sym, dims.mu)
    return ctx.memo[key]


def check_constant_potential(ctx: CheckContext, c: float = 1.0, n: int = 256,
                             nodes: int = 256, horizon: float = 0.25,
                             picard_tol: float = 1e-8) -> CheckRecord:
    """Fixed point with a constant potential against e^{c t} times the base flow."""
    dims, sym, bump = _solver_context(ctx, n)
    traj = _const_traj(ctx, c, n, nodes, horizon, picard_tol)
    worst = 0.0
    base = apply_semigroup(bump, traj.times, dims.mu, sym)
    for t, state, free in zip(traj.times, traj.states, base):
        exact = math.exp(c * t) * free
        worst = max(worst, float(np.max(np.abs(state.values - exact.values))))
    tol = 10.0 * picard_tol
    return _record("constant_potential", worst <= tol, sup_error=worst,
                   sweeps=len(traj.residual_history), tol=tol)


def check_contraction(ctx: CheckContext, max_sweeps: int = 25, slack: float = 0.1) -> CheckRecord:
    """Per-sweep residual ratios against the predicted contraction factor."""
    details = {}
    ok = True
    fixtures = {"power_law": _power_traj(ctx), "constant": _const_traj(ctx)}
    for name, traj in fixtures.items():
        hist = traj.residual_history
        ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1) if hist[i] > 0]
        bound = traj.predicted_ratio + slack
        worst = max(ratios) if ratios else 0.0
        fine = (worst <= bound) and (len(hist) <= max_sweeps)
        details[name] = {"worst_ratio": worst, "bound": bound, "sweeps": len(hist)}
        ok = ok and fine
    return _record("contraction", ok, fixtures=details)


def check_semigroup_property(ctx: CheckContext, n: int = 256, tol_factor: float = 10.0) -> CheckRecord:
    """evaluate(t1+t2) against re-propagating evaluate(t2) by t1."""
    traj = _power_traj(ctx, n=n, nodes=64, horizon=0.25, tol_estimate=True)
    t1, t2 = 0.125, 0.125
    u_sum = evaluate(traj, t1 + t2)
    u_comp_base = evaluate(traj, t2)
    sub_cfg = replace(traj.config, horizon=t1, estimate_tolerance=False)
    comp = picard_solve(u_comp_base, traj.potentials, sub_cfg, traj.alpha, traj.dims,
                        traj.symbol, traj.mu).states[-1]
    disc = float(np.max(np.abs(u_sum.values - comp.values)))
    tol = tol_factor * (traj.tolerance_estimate or traj.config.picard_tol)
    return _record("semigroup_property", disc <= tol, discrepancy=disc, tol=tol)


def _two_potentials():
    V0 = power_law_potential(1.0, 0.3, 2.0)    # class (2, 0.6)
    V1 = power_law_potential(1.0, 0.5, 1.5)    # class (1.5, 0.75)
    return V0, V1


def check_iterated(ctx: CheckContext, n: int = 256, nodes: int = 64,
                   horizon: float = 0.25, tol_factor: float = 10.0) -> CheckRecord:
    """Joint two-potential solve vs sequential composition in both orders."""
    dims, sym, bump = _solver_context(ctx, n)
    V0, V1 = _two_potentials()
    gamma = to_index(MorreyParams(2.0, 0.3), dims)
    cfg = SolverConfig(horizon=horizon, nodes=nodes, grading=1.0, picard_tol=1e-9,
                       estimate_tolerance=True)
    joint = picard_solve(bump, [V0, V1], cfg, gamma, dims, sym, dims.mu)
    cfg_seq = replace(cfg, estimate_tolerance=False)
    seq01 = sequential_solve(bump, [V0, V1], cfg_seq, gamma, dims, sym, dims.mu)
    seq10 = sequential_solve(bump, [V1, V0], cfg_seq, gamma, dims, sym, dims.mu)
    coarse = sequential_solve(bump, [V0, V1], replace(cfg_seq, nodes=nodes // 2),
                              gamma, dims, sym, dims.mu)
    seq_err = max(
        float(np.max(np.abs(seq01.states[2 * j + 1].values - coarse.states[j].values)))
        for j in range(nodes // 2)
    )
    tol = tol_factor * ((joint.tolerance_estimate or 0.0) + seq_err + cfg.picard_tol)
    d_orders = float(max(np.max(np.abs(a.values - b.values))
                         for a, b in zip(seq01.states, seq10.states)))
    d_joint = float(max(np.max(np.abs(a.values - b.values))
                        for a, b in zip(seq01.states, joint.states)))
    ok = d_orders <= tol and d_joint <= tol
    return _record("iterated", ok, order_discrepancy=d_orders,
                   joint_discrepancy=d_joint, tol=tol)


def check_continuous_dependence(ctx: CheckContext, n: int = 256, nodes: int = 48,
                                horizon: float = 0.25, tol: float = 0.10) -> CheckRecord:
    """Difference norms scale linearly in the potential gap (slope 1)."""
    dims, sym, bump = _solver_context(ctx, n)
    gamma = to_index(MorreyParams(2.0, 0.7), dims)
    cfg = SolverConfig(horizon=horizon, nodes=nodes, picard_tol=1e-9)
    base_V = power_law_potential(1.0, _POWER_BETA, _POWER_P0)
    base = picard_solve(bump, [base_V], cfg, gamma, dims, sym, dims.mu)
    eps = [0.02, 0.04, 0.08, 0.16]
    vnorm = base_V.measured_norm(dims.N, n, ctx.L)
    trajs, gaps = [], []
    for e in eps:
        V = power_law_potential(1.0 + e, _POWER_BETA, _POWER_P0)
        trajs.append(picard_solve(bump, [V], cfg, gamma, dims, sym, dims.mu))
        gaps.append(e * vnorm)
    fit = verify.continuous_dependence_check(base, trajs, gaps,
                                             MorreyParams(2.0, 0.7), dims, tol)
    consts = fit.extra["weighted_constants"]
    bounded = max(consts) <= 2.0 * min(consts)
    return _record("continuous_dependence", fit.passed and bounded,
                   slope=fit.slope, constants=consts, tol=tol)


def check_omega_constant(ctx: CheckContext, n: int = 256, tol: float = 0.02) -> CheckRecord:
    """Constant potentials: growth rate equals c, so the size exponent is 1."""
    dims, sym, _ = _solver_context(ctx, n)
    one = GridFunction.constant(1.0, dims.N, n, ctx.L)
    cs = [0.25, 0.5, 1.0, 2.0]
    rates = []
    for c in cs:
        times, norms = verify.evolve_norms(one, [constant_potential(c, N=dims.N)],
                                           dims, sym, dims.mu, step=0.25, n_steps=8)
        rates.append(verify.growth_rate(times, norms))
    fit = verify.omega_scaling(cs, rates, kappa0=0.0, tolerance=tol)
    return _record("omega_constant", fit.passed, exponent=fit.slope,
                   rates=rates, tol=tol)


def check_omega_power(ctx: CheckContext, n: int = 512, tol: float = 0.15) -> CheckRecord:
    """kappa = 1/4 power-law family: growth-rate exponent vs 1/(1-kappa) = 4/3."""
    dims, sym, _ = _solver_context(ctx, n)
    one = GridFunction.constant(1.0, dims.N, n, ctx.L)
    amps = [0.5, 1.0, 2.0, 4.0]
    kappa = power_law_potential(1.0, _POWER_BETA, _POWER_P0).potential_class(dims).kappa
    norms_v, rates = [], []
    for A in amps:
        V = power_law_potential(A, _POWER_BETA, _POWER_P0)
        norms_v.append(V.measured_norm(dims.N, n, ctx.L))
        times, norms = verify.evolve_norms(one, [V], dims, sym, dims.mu,
                                           step=0.25, n_steps=16)
        rates.append(verify.growth_rate(times, norms))
    fit = verify.omega_scaling(norms_v, rates, kappa0=kappa, tolerance=tol)
    return _record("omega_power", fit.passed, exponent=fit.slope,
                   predicted=1.0 / (1.0 - kappa), rates=rates, tol=tol)


# -- region calculus -----------------------------------------------------------


def _random_queries(ctx: CheckContext, count: int):
    rng = ctx.rng()
    dims = ctx.dims
    cap = dims.slope_cap
    queries = []
    while len(queries) < count:
        g1 = rng.uniform(0.0, 1.0)
        g2 = rng.uniform(0.0, cap)
        if g2 > cap * g1 or g1 < 1e-3 or g2 < 1e-3:
            continue
        gamma = ScaleIndex(g1, g2)
        n_cls = 1 if rng.uniform() < 0.5 else 2
        classes = []
        while len(classes) < n_cls:
            p0 = rng.uniform(1.0, 6.0)
            ell0 = rng.uniform(0.05, dims.N)
            cls = PotentialClass.from_exponents(p0, ell0, dims)
            if cls.admissible:
                classes.append(cls)
        queries.append((gamma, classes))
    return queries


def check_regions(ctx: CheckContext, count: int = 1000, density: int = 200) -> CheckRecord:
    """Closed-form predicates vs the brute-force witness oracle."""
    queries = _random_queries(ctx, count)
    disagreements = verify.compare_region_predicates(queries, ctx.dims, density)
    cell = max(1.0, ctx.dims.slope_cap) / density
    outside = [d for d in disagreements if d.boundary_distance > cell]
    return _record("regions", not outside, queries=count,
                   disagreements=len(disagreements), outside_cell=len(outside),
                   cell=cell)


def check_tangent(ctx: CheckContext, tol: float = 1e-12) -> CheckRecord:
    """Analytic tangent case f = x^2 through (0, -1): x* = +-1."""
    f, fp, fpp = (lambda x: x * x), (lambda x: 2.0 * x), (lambda x: 2.0)
    right = exterior_tangent(f, fp, fpp, -2.0, 2.0, 0.0, -1.0, "right")
    left = exterior_tangent(f, fp, fpp, -2.0, 2.0, 0.0, -1.0, "left")
    err = max(abs(right - 1.0), abs(left + 1.0))
    return _record("tangent", err <= tol, error=err, tol=tol)


# -- pseudoresolvent -----------------------------------------------------------


def check_pseudoresolvent_constant(ctx: CheckContext, c: float = 1.0, n: int = 256,
                                   lams=(-4.0, -6.0), tol: float = 1e-3) -> CheckRecord:
    dims, sym, bump = _solver_context(ctx, n)
    gamma = to_index(MorreyParams(2.0, 1.0), dims)
    cfg = SolverConfig(horizon=3.2, nodes=256, grading=1.0, picard_tol=1e-9)
    traj = picard_solve(bump, [constant_potential(c, N=dims.N)], cfg, gamma,
                        dims, sym, dims.mu)
    residuals = {str(lam): verify.pseudoresolvent_identity(traj, lam) for lam in lams}
    worst = max(residuals.values())
    return _record("pseudoresolvent_constant", worst <= tol,
                   residuals=residuals, tol=tol)


def check_pseudoresolvent_power(ctx: CheckContext, n: int = 256,
                                lams=(-4.0, -6.0), tol: float = 0.05) -> CheckRecord:
    dims, sym, bump = _solver_context(ctx, n)
    gamma = to_index(MorreyParams(2.0, 0.7), dims)
    cfg = SolverConfig(horizon=3.2, nodes=192, picard_tol=1e-9)
    V = power_law_potential(1.0, _POWER_BETA, _POWER_P0)
    traj = picard_solve(bump, [V], cfg, gamma, dims, sym, dims.mu)
    residuals = {str(lam): verify.pseudoresolvent_identity(traj, lam) for lam in lams}
    worst = max(residuals.values())
    return _record("pseudoresolvent_power", worst <= tol,
                   residuals=residuals, tol=tol)


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


def run_checks(ctx: CheckContext, entries, jobs: int = 1):
    """Execute configured checks; `entries` are (name, params) pairs.

    Workers may run in parallel, but records are assembled in the
    configured order so reports are deterministic.  A check that raises
    yields a FAIL record and the others still run.
    """
    tasks = []
    for name, params in entries:
        fn = CHECKS.get(name)
        if fn is None:
            raise KeyError(f"unknown check {name!r}")
        tasks.append((name, fn, params))
    if jobs <= 1:
        return [_guarded(ctx, *task) for task in tasks]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_guarded, ctx, *task) for task in tasks]
        return [f.result() for f in futures]
