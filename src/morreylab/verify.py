"""Quantitative verification: rate fits, growth exponents, region oracles.

Everything here is an independent cross-check of the closed-form
machinery: decay exponents are fitted from measured norms and compared
with the predicted smoothing rate, exact growth bounds are fitted
against the potential size, and the region predicates are compared
against an exact search, on the ray through gamma, for a working index
satisfying the raw inequality systems.  `evolve_norms` and
`growth_rate` measure a growth rate in the time domain, the reference
the tests hold `duhamel.growth_bound` to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction
from .indices import (
    TOL,
    MorreyParams,
    PotentialClass,
    ProblemDims,
    ScaleIndex,
    from_index,
    in_triangle,
    region_report,
)
from .norms import RadiusLadder, _scan
from .duhamel import SolverConfig, Trajectory, picard_solve, multiply
from .semigroup import SymbolSpec, apply_semigroup, pseudoresolvent

__all__ = [
    "FitResult",
    "fit_decay",
    "omega_scaling",
    "continuous_dependence_check",
    "OracleDisagreement",
    "region_oracle",
    "compare_region_predicates",
    "trace_check",
    "pseudoresolvent_identity",
    "growth_rate",
    "evolve_norms",
]


@dataclass(frozen=True)
class FitResult:
    """A fitted exponent against its prediction."""

    slope: float
    predicted: float
    tolerance: float

    @property
    def rel_deviation(self) -> float:
        scale = max(abs(self.predicted), 1e-300)
        return abs(self.slope - self.predicted) / scale

    @property
    def passed(self) -> bool:
        return abs(self.slope - self.predicted) <= self.tolerance * max(abs(self.predicted), 1e-300)


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(x)
    coef, *_ = np.linalg.lstsq(np.vstack([lx, np.ones_like(lx)]).T, np.log(y), rcond=None)
    return float(coef[0])


def fit_decay(times, norms, predicted: float, tolerance: float = 0.03) -> FitResult:
    """Least-squares slope of log(norm) against log(t) versus the predicted rate."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(norms, dtype=float)
    if t.size < 8:
        raise ValueError("need at least 8 samples")
    if t.max() / t.min() < 10.0**1.5:
        raise ValueError("samples must span at least 1.5 decades")
    if np.any(v <= 0.0):
        raise ValueError("norms must be positive for a log-log fit")
    return FitResult(_loglog_slope(t, v), predicted, tolerance)


def predicted_rate(src: MorreyParams, dst: MorreyParams, dims: ProblemDims) -> float:
    """-(1/(2 m mu)) (ell/p - s/q), the smoothing-estimate exponent."""
    lp = 0.0 if src.p == math.inf else src.ell / src.p
    sq = 0.0 if dst.p == math.inf else dst.ell / dst.p
    return -(lp - sq) / dims.order


def evolve_norms(u0: GridFunction, potentials, dims: ProblemDims, symbol: SymbolSpec,
                 step: float, n_steps: int):
    """Evolve under A^mu, mu = dims.mu, in fixed steps, recording sup norms.

    Each step is one short solve (16 uniform nodes) from the previous
    state (the semigroup property), which keeps long horizons cheap and
    returns the norm history `growth_rate` fits: a time-domain growth
    rate independent of the generator's spectrum.
    """
    gamma = ScaleIndex(0.0, 0.0)
    cfg = SolverConfig(horizon=step, nodes=16, grading=1.0)
    state = u0
    times, log_norms = [], []
    log_scale = 0.0
    for i in range(1, n_steps + 1):
        traj = picard_solve(state, potentials, cfg, gamma, dims, symbol)
        state = traj.states[-1]
        sup = float(np.max(np.abs(state.values)))
        times.append(i * step)
        log_norms.append(log_scale + math.log(sup))
        # keep the state O(1) so exponential growth cannot overflow
        state = state * (1.0 / sup)
        log_scale += math.log(sup)
    return np.array(times), np.exp(np.array(log_norms))


def growth_rate(times, norms) -> float:
    """Late-window exponential rate: slope of log(norm) against increasing
    times t over their second half, t >= t[-1] / 2."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(norms, dtype=float)
    sel = t >= 0.5 * t[-1] - 1e-12
    if sel.sum() < 2:
        raise ValueError("growth window holds fewer than two samples")
    A = np.vstack([t[sel], np.ones(int(sel.sum()))]).T
    coef, *_ = np.linalg.lstsq(A, np.log(v[sel]), rcond=None)
    return float(coef[0])


def omega_scaling(amplitudes, rates, kappa0: float, tolerance: float = 0.15) -> FitResult:
    """Fit of the growth rate against the potential size.

    The growth rates omega(A) are fitted as a power law in the norms
    ||A V||; the exponent is compared with 1/(1 - kappa0).
    """
    amps = np.asarray(amplitudes, dtype=float)
    r = np.asarray(rates, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("a power-law fit needs positive growth rates (nonpositive rate)")
    return FitResult(_loglog_slope(amps, r), 1.0 / (1.0 - kappa0), tolerance)


def continuous_dependence_check(base_traj: Trajectory, perturbed, norm_gaps,
                                dst: MorreyParams, dims: ProblemDims,
                                tolerance: float = 0.10) -> tuple[FitResult, list]:
    """Scaling of sup_t t^d ||u_V(t) - u_W(t)||_dst in the perturbation gap.

    perturbed: trajectories for the family W -> V; norm_gaps: measured
    ||V - W|| per family member.  Returns the log-log fit, whose slope
    should be 1, and the weighted constants sup / gap per member; each
    member's node differences are normed in one stacked scan.
    """
    d = -predicted_rate(from_index(base_traj.gamma, dims), dst, dims)
    ladder = RadiusLadder.for_grid(base_traj.u0)
    base = np.stack([s.values for s in base_traj.states])
    node_norms = (_scan(base_traj.u0, np.stack([s.values for s in traj.states]) - base,
                        dst.p, dst.ell, ladder) for traj in perturbed)
    sups = np.array([float(np.max(base_traj.times**d * x)) for x in node_norms])
    gaps = np.asarray(norm_gaps, dtype=float)
    return FitResult(_loglog_slope(gaps, sups), 1.0, tolerance), (sups / gaps).tolist()


# -- exact region oracle -------------------------------------------------------


@dataclass(frozen=True)
class OracleDisagreement:
    """A query on which the closed form and the oracle differ: gamma, the
    exponents (p0, ell0) of each class, and the two verdicts (True is IN)."""

    gamma: tuple
    classes: tuple
    closed_form: bool
    oracle: bool


def region_oracle(gamma: ScaleIndex, classes, excluded, dims: ProblemDims) -> np.ndarray:
    """Whether a working index alpha satisfies the raw system, per query.

    The system, per class i with beta_i = alpha + gamma^i: beta_i inside
    the triangle, the existence conditions alpha2 <= gamma2 < alpha2 + 1
    and slope(alpha) <= slope(gamma), and the regularity conditions
    gamma2 <= alpha2 + gamma^i_2 with slope(gamma) <= slope(beta_i), each
    in a TOL band.  Entirely inequality-level: no use of the closed-form
    geometry.

    Sliding any witness down its ray onto gamma's ray keeps every
    inequality valid (heights are untouched, beta_1 shrinks, and the
    mediant slope of beta only moves toward the class slope), so a
    witness exists iff one exists on the ray alpha = tau gamma, tau in
    [0, 1], where alpha2 <= gamma2 and slope(alpha) <= slope(gamma) hold
    throughout.  Every other inequality is linear in tau there; the
    triangle's slope test cross-multiplies by beta_1 >= 0.  On the ray,
    slope(beta_i) is the mediant of slope(gamma) and the class slope, so
    slope(gamma) <= slope(beta_i) holds for every tau or none: exactly
    when slope(gamma) <= slope(gamma^i), or gamma^i is the origin.  Its
    TOL band is taken on that class slope, slope(gamma) <= slope(gamma^i)
    + TOL, the band region_report's sub-triangle test applies.  The
    verdict is whether the intersection of these tau-intervals, one of
    them open below, is non-empty (one-variable Fourier-Motzkin
    elimination), so no candidate is sampled and no witness, however
    narrow, is missed.

    gamma holds float index columns; classes is a sequence of
    class-index columns, one per class slot, nan where a row has no
    class in that slot; excluded is a boolean column marking rows that
    are OUT before any search (an inadmissible class, or gamma outside
    the triangle).
    """
    g1, g2 = gamma.gamma1, gamma.gamma2
    cap = dims.slope_cap + TOL  # the triangle's height and slope bound, with its band
    first = classes[0]
    rows = []  # (a, b) per inequality a tau <= b
    with np.errstate(divide="ignore", invalid="ignore"):
        slope_g = gamma.slope
        for c in classes:
            # an absent class repeats the first one, which adds no new bound
            ci = ScaleIndex(np.where(np.isnan(c.gamma1), first.gamma1, c.gamma1),
                            np.where(np.isnan(c.gamma2), first.gamma2, c.gamma2))
            c1, c2 = ci.gamma1, ci.gamma2
            rows += [(g1, 1.0 + TOL - c1),                        # beta_1 <= 1
                     (g2, cap - c2),                              # beta_2 <= cap
                     (g2 - cap * g1, cap * c1 - c2),              # slope(beta) <= cap
                     (-g2, c2 + TOL - g2),                        # gamma2 <= alpha2 + gamma^i_2
                     (0.0 * g1, np.where(ci.is_origin, 0.0,       # slope(gamma) <= slope(beta)
                                         ci.slope + TOL - slope_g))]
        a, b = (np.array(x) for x in zip(*rows))
        t = b / a
        # gamma2 < alpha2 + 1, the one strict bound: tau > (gamma2 - 1 + TOL) / gamma2
        strict = np.where(g2 > 0.0, (g2 - 1.0 + TOL) / g2, -np.inf)
    lo = np.max(np.where(a < 0.0, t, 0.0), axis=0)
    hi = np.min(np.where(a > 0.0, t, 1.0), axis=0)
    fixed = np.all((a != 0.0) | (b >= 0.0), axis=0)  # the bounds that do not involve tau
    return ~excluded & fixed & (lo <= hi) & (strict < hi)


def compare_region_predicates(gammas: ScaleIndex, rows, dims: ProblemDims):
    """The closed-form verdict (one indices.region_report batch, the call
    the region protocol answers with) against one region_oracle batch.

    gammas holds index columns and rows the (n, 4) table (p0, ell0, p1,
    ell1), nan where a row names one class, as region_report takes them.
    Returns an OracleDisagreement for each query whose verdicts differ,
    in query order.
    """
    rows = np.asarray(rows, dtype=float)
    two = ~np.isnan(rows[:, 2])
    # a one-class row repeats its class in the second slot, as in region_report
    second = np.where(two[:, None], rows[:, 2:], rows[:, :2])
    c0 = PotentialClass.from_exponents(rows[:, 0], rows[:, 1], dims)
    c1 = PotentialClass.from_exponents(second[:, 0], second[:, 1], dims)
    excluded = ~in_triangle(gammas, dims) | ~c0.admissible | (two & ~c1.admissible)
    slot1 = ScaleIndex(np.where(two, c1.gamma0.gamma1, math.nan),
                       np.where(two, c1.gamma0.gamma2, math.nan))
    closed = np.array([reason is None for reason in region_report(gammas, rows, dims)])
    oracle = region_oracle(gammas, [c0.gamma0, slot1], excluded, dims)
    return [OracleDisagreement(
                (float(gammas.gamma1[i]), float(gammas.gamma2[i])),
                tuple(map(tuple, rows[i, :4 if two[i] else 2].reshape(-1, 2).tolist())),
                bool(closed[i]), bool(oracle[i]))
            for i in np.flatnonzero(closed != oracle).tolist()]


# -- trace and pseudoresolvent checks -----------------------------------------


def trace_check(u0: GridFunction, p: float, window: float, mu: float,
                symbol: SymbolSpec, threshold: float = 1e-3):
    """L^p(window) distance of the evolution to its datum along t = 2^-k,
    k = 4..12.

    Passes when the distances decrease and end below threshold * ||u0||.
    Each state is reduced to its distance as it arrives.
    """
    sel = u0.radii() <= window
    inside = u0.values[sel]

    def norm(x):  # overwrites x, a fresh array
        np.abs(x, out=x)
        x **= p
        return float(np.sum(x) * u0.h**u0.N) ** (1.0 / p)

    ref = norm(u0.values[sel])
    # map, unlike a loop variable, keeps no state while the next one is made
    dists = list(map(lambda state: norm(state.values[sel] - inside),
                     apply_semigroup(u0, np.array([2.0**-k for k in range(4, 13)]), mu, symbol)))
    decreasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(dists, dists[1:]))
    return decreasing and dists[-1] < threshold * ref, dists


def _laplace_of_trajectory(traj: Trajectory, lam: complex) -> GridFunction:
    """Trapezoid Laplace transform of the stored trajectory on its node grid.

    The initial panel [0, t_1] uses the datum at t = 0 (the evolution is
    continuous there); the tail beyond the horizon is dropped, so the
    caller must put Re(lambda) far enough below the growth rate.
    """
    ts = np.concatenate([[0.0], traj.times])
    states = [traj.u0] + list(traj.states)
    vals = np.zeros_like(states[0].values, dtype=complex)
    for i in range(len(ts) - 1):
        dt = ts[i + 1] - ts[i]
        vals += 0.5 * dt * (np.exp(lam * ts[i]) * states[i].values
                            + np.exp(lam * ts[i + 1]) * states[i + 1].values)
    if abs(lam.imag) == 0.0 and all(np.isrealobj(s.values) for s in states):
        vals = vals.real
    return GridFunction(traj.u0.N, traj.u0.n, traj.u0.L, vals)


def pseudoresolvent_identity(traj: Trajectory, lam: complex) -> float:
    """Relative residual of the resolvent identity for the perturbed evolution:

        F(lam) u0 = G(lam) u0 + sum_i G(lam) V_i F(lam) u0,

    with F the Laplace transform of the stored perturbed trajectory and
    G the base pseudoresolvent.
    """
    lam = complex(lam)
    F = _laplace_of_trajectory(traj, lam)
    mu = traj.dims.mu
    rhs = pseudoresolvent(traj.u0, lam, mu, traj.symbol)
    for V in traj.potentials:
        rhs = rhs + pseudoresolvent(multiply(V, F), lam, mu, traj.symbol)
    num = float(np.max(np.abs(F.values - rhs.values)))
    den = float(np.max(np.abs(F.values)))
    return num / den
