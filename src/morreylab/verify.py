"""Quantitative verification: rate fits, growth exponents, region oracles.

Everything here is an independent cross-check of the closed-form
machinery: decay exponents are fitted from measured norms and compared
with the predicted smoothing rate, exponential types are fitted from
late-window growth, and the region predicates are compared against a
brute-force grid search for a working index satisfying the raw
inequality systems.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grids import GridFunction
from .indices import (
    TOL,
    MorreyParams,
    ProblemDims,
    ScaleIndex,
    boundary_h,
    from_index,
    in_triangle,
    out_reason,
    star_theta,
)
from .norms import RadiusLadder, morrey_norm
from .duhamel import SolverConfig, Trajectory, picard_solve, multiply
from .semigroup import SymbolSpec, apply_semigroup, pseudoresolvent

__all__ = [
    "FitResult",
    "fit_decay",
    "smoothing_certificate",
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
    stderr: float
    t_range: tuple
    predicted: float
    tolerance: float
    extra: dict = field(default_factory=dict)

    @property
    def rel_deviation(self) -> float:
        scale = max(abs(self.predicted), 1e-300)
        return abs(self.slope - self.predicted) / scale

    @property
    def passed(self) -> bool:
        return abs(self.slope - self.predicted) <= self.tolerance * max(abs(self.predicted), 1e-300)


def _least_squares_loglog(x: np.ndarray, y: np.ndarray):
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    dof = max(1, lx.size - 2)
    sse = float(res[0]) if res.size else float(np.sum((A @ coef - ly) ** 2))
    var = sse / dof / max(float(np.sum((lx - lx.mean()) ** 2)), 1e-300)
    return slope, math.sqrt(var)


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
    slope, stderr = _least_squares_loglog(t, v)
    return FitResult(slope, stderr, (float(t.min()), float(t.max())), predicted, tolerance)


def predicted_rate(src: MorreyParams, dst: MorreyParams, dims: ProblemDims) -> float:
    """-(1/(2 m mu)) (ell/p - s/q), the smoothing-estimate exponent."""
    lp = 0.0 if src.p == math.inf else src.ell / src.p
    sq = 0.0 if dst.p == math.inf else dst.ell / dst.p
    return -(lp - sq) / dims.order


def smoothing_certificate(states, times, u0: GridFunction, src: MorreyParams,
                          dst: MorreyParams, dims: ProblemDims, a: float = 0.0,
                          tolerance: float = 0.10) -> FitResult:
    """sup_t t^d e^{-a t} ||u(t)||_dst / ||u0||_src plus the decay fit.

    Refuses target pairs violating the smoothing hypotheses s <= ell and
    s/q <= ell/p, naming the violated inequality.
    """
    if dst.p != math.inf:
        if not dst.ell <= src.ell + TOL:
            raise ValueError(f"hypothesis violated: s = {dst.ell} > ell = {src.ell}")
        sq = dst.ell / dst.p
        lp = 0.0 if src.p == math.inf else src.ell / src.p
        if not sq <= lp + TOL:
            raise ValueError(f"hypothesis violated: s/q = {sq} > ell/p = {lp}")
    d = -predicted_rate(src, dst, dims)
    t = np.asarray(times, dtype=float)
    norms = np.array([morrey_norm(g, dst.p, dst.ell) for g in states])
    denom = morrey_norm(u0, src.p, src.ell)
    weighted = t**d * np.exp(-a * t) * norms / denom
    fit = fit_decay(t, norms, predicted_rate(src, dst, dims), tolerance)
    return replace(fit, extra={"sup_constant": float(weighted.max()),
                               "weighted": weighted.tolist()})


def evolve_norms(u0: GridFunction, potentials, dims: ProblemDims, symbol: SymbolSpec,
                 mu: float, step: float, n_steps: int):
    """March the perturbed evolution in fixed steps, recording sup norms.

    Each step is one short Picard solve (16 uniform nodes) from the
    previous state (the semigroup property), which keeps long horizons
    cheap and returns the norm history used for growth-rate fits.
    """
    gamma = ScaleIndex(0.0, 0.0)
    cfg = SolverConfig(horizon=step, nodes=16, grading=1.0, picard_tol=1e-10)
    state = u0
    times, log_norms = [], []
    log_scale = 0.0
    for i in range(1, n_steps + 1):
        traj = picard_solve(state, potentials, cfg, gamma, dims, symbol, mu)
        state = traj.states[-1]
        sup = float(np.max(np.abs(state.values)))
        times.append(i * step)
        log_norms.append(log_scale + math.log(sup))
        # keep the iterate O(1) so exponential growth cannot swamp the
        # solver's residual scale
        state = state * (1.0 / sup)
        log_scale += math.log(sup)
    return np.array(times), np.exp(np.array(log_norms))


def growth_rate(times, norms, window: tuple = (0.5, 1.0)) -> float:
    """Late-window exponential rate: slope of log(norm) against t."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(norms, dtype=float)
    lo, hi = window[0] * t[-1], window[1] * t[-1]
    sel = (t >= lo - 1e-12) & (t <= hi + 1e-12)
    if sel.sum() < 2:
        raise ValueError("growth window holds fewer than two samples")
    A = np.vstack([t[sel], np.ones(int(sel.sum()))]).T
    coef, *_ = np.linalg.lstsq(A, np.log(v[sel]), rcond=None)
    return float(coef[0])


def omega_scaling(amplitudes, rates, kappa0: float, tolerance: float = 0.15) -> FitResult:
    """Fit of the growth rate against the potential size.

    The measured rates omega(A) are fitted as a power law in the norms
    ||A V||; the exponent is compared with 1/(1 - kappa0).
    """
    amps = np.asarray(amplitudes, dtype=float)
    r = np.asarray(rates, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("growth not yet exponential over the window (nonpositive rate)")
    slope, stderr = _least_squares_loglog(amps, r)
    return FitResult(slope, stderr, (float(amps.min()), float(amps.max())),
                     1.0 / (1.0 - kappa0), tolerance)


def continuous_dependence_check(base_traj: Trajectory, perturbed, norm_gaps,
                                dst: MorreyParams, dims: ProblemDims,
                                tolerance: float = 0.10) -> FitResult:
    """Scaling of sup_t t^d ||u_V(t) - u_W(t)||_dst in the perturbation gap.

    perturbed: trajectories for the family W -> V; norm_gaps: measured
    ||V - W|| per family member.  The fitted log-log slope should be 1.
    """
    src = from_index(base_traj.gamma, dims)
    d = -predicted_rate(src, dst, dims)
    ladder = RadiusLadder.for_grid(base_traj.u0)
    sups = []
    for traj in perturbed:
        diffs = [
            morrey_norm(a - b, dst.p, dst.ell, ladder)
            for a, b in zip(traj.states, base_traj.states)
        ]
        w = np.asarray(base_traj.times) ** d * np.asarray(diffs)
        sups.append(float(w.max()))
    gaps = np.asarray(norm_gaps, dtype=float)
    sups = np.asarray(sups)
    slope, stderr = _least_squares_loglog(gaps, sups)
    fit = FitResult(slope, stderr, (float(gaps.min()), float(gaps.max())), 1.0, tolerance)
    return replace(fit, extra={"weighted_constants": (sups / gaps).tolist()})


# -- brute-force region oracle -------------------------------------------------


@dataclass(frozen=True)
class OracleDisagreement:
    query: tuple
    closed_form: bool
    oracle: bool
    boundary_distance: float


def _slope(a1, a2):
    """Slopes a2/a1 of candidate points, the origin assigned slope 0."""
    return np.where((a1 <= 0.0) & (a2 <= 0.0), 0.0, np.divide(a2, np.maximum(a1, 1e-300)))


@functools.lru_cache(maxsize=4)
def _alpha_grid(dims: ProblemDims, density: int):
    """The triangle's candidate grid (a1, a2, slope), sorted by a2 and read-only."""
    g1 = np.linspace(0.0, 1.0, density + 1)
    g2 = np.linspace(0.0, dims.slope_cap, density + 1)
    A1, A2 = np.meshgrid(g1, g2, indexing="ij")
    a1, a2 = A1.ravel(), A2.ravel()
    origin = (a1 == 0.0) & (a2 == 0.0)
    interior = (a1 > 0.0) & (a2 > 0.0) & (a2 <= a1 * dims.slope_cap + TOL)
    keep = origin | interior
    order = np.argsort(a2[keep])
    a1, a2 = a1[keep][order], a2[keep][order]
    grid = (a1, a2, _slope(a1, a2))
    for x in grid:
        x.flags.writeable = False
    return grid


def _witness(a1, a2, a_slope, gamma: ScaleIndex, classes, dims: ProblemDims) -> bool:
    """Whether any candidate alpha = (a1, a2) satisfies the raw system."""
    g2, slope_g = gamma.gamma2, gamma.slope
    ok = (a2 <= g2 + TOL) & (g2 < a2 + 1.0 - TOL) & (a_slope <= slope_g + TOL)
    for cls in classes:
        c1, c2 = cls.gamma0.gamma1, cls.gamma0.gamma2
        b1, b2 = a1 + c1, a2 + c2
        in_j = (b1 <= 1.0 + TOL) & (b2 <= dims.slope_cap + TOL)
        b_slope = _slope(b1, b2)
        in_j &= b_slope <= dims.slope_cap + TOL
        reach = (g2 <= a2 + c2 + TOL) & (slope_g <= b_slope + TOL)
        ok &= in_j & reach
    return bool(np.any(ok))


def region_oracle(gamma: ScaleIndex, classes, dims: ProblemDims, density: int = 200) -> bool:
    """Search candidate working indices for a witness of the raw system.

    For each candidate alpha the checks are, per class i with
    beta_i = alpha + gamma^i:  beta_i inside the triangle, the existence
    conditions alpha2 <= gamma2 < alpha2 + 1 and
    slope(alpha) <= slope(gamma), and the regularity conditions
    gamma2 <= alpha2 + gamma^i_2 with slope(gamma) <= slope(beta_i).
    Entirely inequality-level: no use of the closed-form geometry.

    Candidates are the triangle grid plus a dense sample of the ray
    through gamma: sliding any witness down its ray onto gamma's ray
    keeps every inequality valid (heights are untouched, beta_1 shrinks,
    and the mediant slope of beta only moves toward the class slope), so
    a witness exists iff one exists on the ray, and the degenerate
    witness sets produced by bounded potentials are met exactly.

    The grid is built once per (dims, density), sorted by alpha2, and each
    query tests only its prefix alpha2 <= gamma2 + TOL.  Every candidate
    past that prefix fails the existence condition alpha2 <= gamma2
    exactly as written above, so the cut is exact, not a pruning
    heuristic: the verdict is that of the full grid and the full ray.
    """
    if density < 50:
        raise ValueError("oracle density must be at least 50")
    if not in_triangle(gamma, dims):
        return False
    for cls in classes:
        if not cls.admissible:
            return False
    a1, a2, a_slope = _alpha_grid(dims, density)
    band = int(np.searchsorted(a2, gamma.gamma2 + TOL, side="right"))
    if _witness(a1[:band], a2[:band], a_slope[:band], gamma, classes, dims):
        return True
    if gamma.is_origin:
        return False
    tau = np.linspace(0.0, 1.0, density + 1)
    r1, r2 = tau * gamma.gamma1, tau * gamma.gamma2
    return _witness(r1, r2, _slope(r1, r2), gamma, classes, dims)


def _boundary_distance(gamma: ScaleIndex, classes, dims: ProblemDims) -> float:
    """Rough distance (index units) from gamma to the nearest region boundary."""
    dists = [abs(1.0 - gamma.gamma1), gamma.gamma2, abs(dims.slope_cap - gamma.gamma2)]
    for cls in classes:
        g0 = cls.gamma0
        if not g0.is_origin:
            dists.append(abs(gamma.gamma2 - g0.slope * gamma.gamma1))
    if len(classes) >= 2:
        dists.append(abs(gamma.gamma1 - star_theta(classes)))
        # h is inf up to theta, where the curved boundary does not apply
        dists.append(abs(gamma.gamma2 - boundary_h(gamma.gamma1, classes)))
    return float(min(dists))


def compare_region_predicates(queries, dims: ProblemDims, density: int = 200):
    """Run the closed-form verdict (indices.out_reason, as the region protocol
    answers) vs the oracle on (gamma, classes) queries; log disagreements."""
    disagreements = []
    for gamma, classes in queries:
        cf = out_reason(gamma, classes, dims) is None
        orc = region_oracle(gamma, classes, dims, density)
        if cf != orc:
            disagreements.append(OracleDisagreement(
                (gamma.as_tuple(), tuple((c.params.p, c.params.ell) for c in classes)),
                cf, orc, _boundary_distance(gamma, classes, dims)))
    return disagreements


# -- trace and pseudoresolvent checks -----------------------------------------


def trace_check(u0: GridFunction, p: float, window: float, mu: float,
                symbol: SymbolSpec, k_range=range(4, 13), threshold: float = 1e-3):
    """L^p(window) distance of the evolution to its datum along t = 2^-k.

    Passes when the distances decrease and end below threshold * ||u0||.
    """
    sel = u0.radii() <= window
    hN = u0.h**u0.N
    ref = float(np.sum(np.abs(u0.values[sel]) ** p) * hN) ** (1.0 / p)
    dists = []
    for state in apply_semigroup(u0, np.array([2.0**-k for k in k_range]), mu, symbol):
        diff = state - u0
        dists.append(float(np.sum(np.abs(diff.values[sel]) ** p) * hN) ** (1.0 / p))
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


def pseudoresolvent_identity(traj: Trajectory, lam: complex, margin: float = 0.1) -> float:
    """Relative residual of the resolvent identity for the perturbed evolution:

        F(lam) u0 = G(lam) u0 + sum_i G(lam) V_i F(lam) u0,

    with F the Laplace transform of the stored perturbed trajectory and
    G the base pseudoresolvent.
    """
    lam = complex(lam)
    F = _laplace_of_trajectory(traj, lam)
    G = pseudoresolvent(traj.u0, lam, traj.mu, traj.symbol, margin=margin)
    rhs = G
    for V in traj.potentials:
        rhs = rhs + pseudoresolvent(multiply(V, F), lam, traj.mu, traj.symbol, margin=margin)
    num = float(np.max(np.abs(F.values - rhs.values)))
    den = float(np.max(np.abs(F.values)))
    return num / den
