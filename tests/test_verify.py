import math

import numpy as np
import pytest

from morreylab import checks, verify
from morreylab.fixtures import gaussian_bump
from morreylab.grids import GridFunction
from morreylab.indices import (
    MorreyParams,
    PotentialClass,
    ProblemDims,
    ScaleIndex,
    TOL,
    in_triangle,
    to_index,
)
from morreylab.semigroup import apply_semigroup, laplacian_power_symbol

DIMS = ProblemDims(1, 1, 1.0)


# -- decay fitting ----------------------------------------------------------------


def test_fit_decay_exact_power_law():
    ts = np.logspace(-3, -1, 12)
    fit = verify.fit_decay(ts, ts**-0.5, predicted=-0.5, tolerance=1e-9)
    assert fit.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit.passed
    assert fit.stderr < 1e-10


def test_fit_decay_validation():
    ts = np.logspace(-2, -1, 12)
    with pytest.raises(ValueError):
        verify.fit_decay(ts, ts, -1.0)  # only one decade
    with pytest.raises(ValueError):
        verify.fit_decay(ts[:4], ts[:4] ** -1, -1.0)  # too few samples
    bad = np.logspace(-3, -1, 10)
    with pytest.raises(ValueError):
        verify.fit_decay(bad, np.concatenate([[-1.0], bad[1:]]), -1.0)


def test_predicted_rate():
    assert verify.predicted_rate(MorreyParams(1, 1), MorreyParams(math.inf, 1), DIMS) \
        == pytest.approx(-0.5)
    assert verify.predicted_rate(MorreyParams(1, 0.5), MorreyParams(1, 0.25), DIMS) \
        == pytest.approx(-0.125)


# -- smoothing certificate -----------------------------------------------------------


def test_smoothing_certificate_identity_pair():
    """V = 0 with (q,s) = (p,ell): d = 0 and a bounded constant."""
    sym = laplacian_power_symbol(1, 1024, 8.0, 1)
    bump = gaussian_bump(1, 1024, 8.0)
    ts = np.logspace(-3, -1, 10)
    states = [apply_semigroup(bump, t, 1.0, sym) for t in ts]
    mp = MorreyParams(2.0, 1.0)
    cert = verify.smoothing_certificate(states, ts, bump, mp, mp, DIMS, tolerance=1.0)
    assert cert.predicted == 0.0
    assert max(cert.extra["weighted"]) <= 1.5  # contraction: constant about 1


def test_smoothing_certificate_refuses_bad_pairs():
    sym = laplacian_power_symbol(1, 256, 8.0, 1)
    bump = gaussian_bump(1, 256, 8.0)
    ts = np.logspace(-3, -1, 10)
    states = [bump] * 10
    with pytest.raises(ValueError, match="s/q"):
        verify.smoothing_certificate(states, ts, bump, MorreyParams(2.0, 0.5),
                                     MorreyParams(4.0, 0.5) if False else MorreyParams(1.0, 0.5),
                                     DIMS)
    with pytest.raises(ValueError, match="s ="):
        verify.smoothing_certificate(states, ts, bump, MorreyParams(2.0, 0.5),
                                     MorreyParams(2.0, 0.8), DIMS)


# -- growth rates ---------------------------------------------------------------------


def test_growth_rate_synthetic():
    ts = np.linspace(0.25, 4.0, 16)
    rate = verify.growth_rate(ts, 3.0 * np.exp(1.7 * ts))
    assert rate == pytest.approx(1.7, rel=1e-10)


def test_omega_scaling_constant_family():
    cs = np.array([0.25, 0.5, 1.0, 2.0])
    fit = verify.omega_scaling(cs, cs.copy(), kappa0=0.0, tolerance=0.02)
    assert fit.passed and fit.slope == pytest.approx(1.0)
    assert fit.predicted == 1.0


def test_omega_scaling_rejects_nonpositive():
    with pytest.raises(ValueError):
        verify.omega_scaling([1.0, 2.0], [0.5, -0.1], kappa0=0.25)


# -- region oracle ----------------------------------------------------------------------


def cls(p0, ell0):
    return PotentialClass.from_exponents(p0, ell0, DIMS)


def test_region_oracle_examples():
    c = cls(1.5, 0.6)
    inside = to_index(MorreyParams(2.0, 0.5), DIMS)
    assert verify.region_oracle(inside, [c], DIMS, 50)
    too_steep = to_index(MorreyParams(2.0, 0.9), DIMS)  # slope 0.45 > 0.3
    assert not verify.region_oracle(too_steep, [c], DIMS, 50)
    assert verify.region_oracle(ScaleIndex(0, 0), [c], DIMS, 50)


def test_region_oracle_requires_density():
    with pytest.raises(ValueError):
        verify.region_oracle(ScaleIndex(0, 0), [cls(2.0, 1.0)], DIMS, 10)


def test_region_oracle_vs_closed_form(rng):
    queries = []
    cap = DIMS.slope_cap
    while len(queries) < 300:
        g1, g2 = rng.uniform(0, 1), rng.uniform(0, cap)
        if g2 > cap * g1 or g1 < 1e-3 or g2 < 1e-3:
            continue
        n_cls = 1 if rng.uniform() < 0.5 else 2
        classes = []
        while len(classes) < n_cls:
            c = cls(rng.uniform(1, 6), rng.uniform(0.05, 1.0))
            if c.admissible:
                classes.append(c)
        queries.append((ScaleIndex(g1, g2), classes))
    disagreements = verify.compare_region_predicates(queries, DIMS, density=100)
    cell = max(1.0, cap) / 100
    assert all(d.boundary_distance <= cell for d in disagreements)


def test_oracle_handles_bounded_class():
    c_inf = cls(math.inf, 1.0)
    for mp in (MorreyParams(2.0, 0.5), MorreyParams(1.0, 1.0), MorreyParams(7.0, 0.33)):
        g = to_index(mp, DIMS)
        assert verify.region_oracle(g, [c_inf], DIMS, 100)


def reference_oracle(gamma, classes, dims, density=200):
    """The oracle's former per-query body: the full triangle grid and the ray
    rebuilt on every call, one candidate set, no band cut."""
    if not in_triangle(gamma, dims):
        return False
    for c in classes:
        if not c.admissible:
            return False
    g1, g2 = np.linspace(0.0, 1.0, density + 1), np.linspace(0.0, dims.slope_cap, density + 1)
    A1, A2 = np.meshgrid(g1, g2, indexing="ij")
    a1, a2 = A1.ravel(), A2.ravel()
    origin = (a1 == 0.0) & (a2 == 0.0)
    interior = (a1 > 0.0) & (a2 > 0.0) & (a2 <= a1 * dims.slope_cap + TOL)
    a1, a2 = a1[origin | interior], a2[origin | interior]
    g1, g2 = gamma.gamma1, gamma.gamma2
    if not gamma.is_origin:
        tau = np.linspace(0.0, 1.0, density + 1)
        a1 = np.concatenate([a1, tau * g1])
        a2 = np.concatenate([a2, tau * g2])
    slope_g = gamma.slope
    a_slope = np.where((a1 <= 0.0) & (a2 <= 0.0), 0.0, np.divide(a2, np.maximum(a1, 1e-300)))
    ok = (a2 <= g2 + TOL) & (g2 < a2 + 1.0 - TOL) & (a_slope <= slope_g + TOL)
    for c in classes:
        c1, c2 = c.gamma0.gamma1, c.gamma0.gamma2
        b1, b2 = a1 + c1, a2 + c2
        in_j = (b1 <= 1.0 + TOL) & (b2 <= dims.slope_cap + TOL)
        b_slope = np.where((b1 <= 0.0) & (b2 <= 0.0), 0.0, np.divide(b2, np.maximum(b1, 1e-300)))
        in_j &= b_slope <= dims.slope_cap + TOL
        reach = (g2 <= a2 + c2 + TOL) & (slope_g <= b_slope + TOL)
        ok &= in_j & reach
    return bool(np.any(ok))


ORACLE_DIMS = [ProblemDims(1, 1, 1.0), ProblemDims(2, 1, 0.5), ProblemDims(3, 2, 0.75)]


def band_edge_queries(dims, density, rng, count):
    """Queries whose gamma2 + TOL equals a grid row value exactly."""
    rows = np.linspace(0.0, dims.slope_cap, density + 1)
    queries = []
    while len(queries) < count:
        v = rows[rng.integers(1, density + 1)]
        g2 = v - TOL
        while g2 + TOL != v:
            g2 = np.nextafter(g2, v if g2 + TOL < v else -np.inf)
        gamma = ScaleIndex(rng.uniform(g2 / dims.slope_cap, 1.0), float(g2))
        classes = [PotentialClass.from_exponents(rng.uniform(1.0, 6.0),
                                                 rng.uniform(0.01, dims.N), dims)
                   for _ in range(1 if rng.uniform() < 0.5 else 2)]
        if in_triangle(gamma, dims) and all(c.admissible for c in classes):
            queries.append((gamma, classes))
    return queries


def scanned_bands(monkeypatch, queries, dims, density):
    """Verdicts of the oracle, and the grid prefix length each query scanned."""
    bands = []
    witness = verify._witness

    def spy(a1, a2, a_slope, *rest):
        if a2.base is not None:  # a view of the cached grid, not the ray
            bands.append(a2.size)
        return witness(a1, a2, a_slope, *rest)

    monkeypatch.setattr(verify, "_witness", spy)
    return [verify.region_oracle(g, c, dims, density) for g, c in queries], bands


@pytest.mark.parametrize("density", [50, 200])
@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=lambda d: f"N{d.N}m{d.m}mu{d.mu:g}")
def test_region_oracle_matches_reference(monkeypatch, dims, density):
    """The cached, a2-sorted grid scanned up to gamma2 + TOL gives the former
    full scan's verdict on every query, and the scanned prefix is exactly
    the candidates with a2 <= gamma2 + TOL."""
    ctx = checks.CheckContext(dims=dims, n=64, L=8.0, seed=density + dims.N)
    queries = checks._random_queries(ctx, 150)
    assert {len(c) for _, c in queries} == {1, 2}
    rng = np.random.default_rng(density)
    queries += band_edge_queries(dims, density, rng, 100)
    bounded = PotentialClass.from_exponents(math.inf, 0.5, dims)
    # kappa = N / (2 m mu): inadmissible except at N = 1, m = 1, mu = 1
    steep = PotentialClass.from_exponents(1.0, float(dims.N), dims)
    assert bounded.gamma0.is_origin and steep.admissible == (dims.slope_cap < 1.0)
    fine = queries[0][1][0]
    queries += [
        (ScaleIndex(0.0, 0.0), [fine]),
        (ScaleIndex(0.0, 0.0), [bounded, fine]),
        (ScaleIndex(0.5, dims.slope_cap), [fine]),  # above the triangle
        (ScaleIndex(1.5, 0.1), [fine]),             # right of the triangle
        (queries[0][0], [bounded]),
        (queries[1][0], [fine, bounded]),
        (queries[2][0], [steep]),
        (queries[3][0], [fine, steep]),
    ]
    verdicts, bands = scanned_bands(monkeypatch, queries, dims, density)
    assert verdicts == [reference_oracle(g, c, dims, density) for g, c in queries]
    assert any(verdicts) and not all(verdicts)
    a2 = verify._alpha_grid(dims, density)[1]
    expected = [int(np.count_nonzero(a2 <= g.gamma2 + TOL)) for g, c in queries
                if in_triangle(g, dims) and all(x.admissible for x in c)]
    assert bands == expected


def test_region_oracle_grid_is_cached_and_read_only():
    dims = ORACLE_DIMS[1]
    grid = verify._alpha_grid(dims, 60)
    assert verify._alpha_grid(ProblemDims(2, 1, 0.5), 60) is grid
    a1, a2, a_slope = grid
    assert np.all(np.diff(a2) >= 0.0)
    for x in grid:
        with pytest.raises(ValueError):
            x[0] = 1.0


# -- trace and pseudoresolvent -------------------------------------------------------------


def test_trace_check_bump():
    sym = laplacian_power_symbol(1, 2048, 8.0, 1)
    bump = gaussian_bump(1, 2048, 8.0)
    ok, dists = verify.trace_check(bump, 1.0, 4.0, 1.0, sym)
    assert ok
    assert dists[0] > dists[-1]


def test_trace_check_zero():
    sym = laplacian_power_symbol(1, 256, 8.0, 1)
    zero = GridFunction.constant(0.0, 1, 256, 8.0)
    ok, dists = verify.trace_check(zero, 1.0, 4.0, 1.0, sym, threshold=math.inf)
    assert all(d == 0.0 for d in dists)


def test_trace_check_indicator_local_only():
    """A half-box indicator passes locally in L^1 but keeps a translation
    modulus floor (the global dotted-space version does not apply)."""
    from morreylab.fixtures import half_box_indicator
    from morreylab.norms import translation_modulus

    sym = laplacian_power_symbol(1, 2048, 8.0, 1)
    ind = half_box_indicator(1, 2048, 8.0)
    ok, _ = verify.trace_check(ind, 1.0, 2.0, 1.0, sym, threshold=1e-2)
    assert ok  # local L^1 convergence is fast for one jump in the window
    h = ind.h
    mods = [translation_modulus(ind, 1.0, 1.0, k * h) / (k * h) for k in (2, 4, 8)]
    assert min(mods) > 1.0  # nonvanishing slope: not in the dotted space


def test_pseudoresolvent_identity_no_potential():
    from morreylab.duhamel import SolverConfig, picard_solve

    sym = laplacian_power_symbol(1, 256, 8.0, 1)
    bump = gaussian_bump(1, 256, 8.0)
    cfg = SolverConfig(horizon=3.2, nodes=128, grading=1.0)
    traj = picard_solve(bump, [], cfg, to_index(MorreyParams(2.0, 1.0), DIMS),
                        DIMS, sym, 1.0)
    resid = verify.pseudoresolvent_identity(traj, -4.0)
    assert resid <= 2e-3  # F = G up to the trajectory's Laplace quadrature


def test_pseudoresolvent_identity_complex_symbol():
    """Under a rotated symbol real data evolve into complex states; at a
    real lambda both sides of the identity keep their imaginary parts."""
    from morreylab.duhamel import SolverConfig, picard_solve
    from morreylab.semigroup import pseudoresolvent, symbol_from_coefficients

    sym = symbol_from_coefficients(1, 256, 8.0, 1, {(2,): -(1.0 + 0.5j)})
    bump = gaussian_bump(1, 256, 8.0)
    cfg = SolverConfig(horizon=3.2, nodes=128, grading=1.0)
    traj = picard_solve(bump, [], cfg, to_index(MorreyParams(2.0, 1.0), DIMS),
                        DIMS, sym, 1.0)
    F = verify._laplace_of_trajectory(traj, -4.0)
    G = pseudoresolvent(bump, -4.0, 1.0, sym)
    assert np.iscomplexobj(F.values) and np.iscomplexobj(G.values)
    assert np.max(np.abs(G.values.imag)) > 1e-2 * np.max(np.abs(G.values))
    assert verify.pseudoresolvent_identity(traj, -4.0) <= 2e-3


def test_smoothing_certificate_constant_potential():
    """With V = c the weighted constant is finite once a >= c is discounted."""
    from morreylab.duhamel import SolverConfig, picard_solve
    from morreylab.potentials import constant_potential

    sym = laplacian_power_symbol(1, 256, 8.0, 1)
    bump = gaussian_bump(1, 256, 8.0)
    c = 1.0
    cfg = SolverConfig(horizon=2.0, nodes=64, grading=1.0)
    traj = picard_solve(bump, [constant_potential(c)], cfg,
                        to_index(MorreyParams(2.0, 1.0), DIMS), DIMS, sym, 1.0)
    sel = traj.times >= 0.05
    times = traj.times[sel]
    states = [s for s, keep in zip(traj.states, sel) if keep]
    mp = MorreyParams(2.0, 1.0)
    cert = verify.smoothing_certificate(states, times, bump, mp, mp, DIMS,
                                        a=c, tolerance=math.inf)
    assert max(cert.extra["weighted"]) < 2.0
    bare = verify.smoothing_certificate(states, times, bump, mp, mp, DIMS,
                                        a=0.0, tolerance=math.inf)
    assert max(bare.extra["weighted"]) > max(cert.extra["weighted"])


def test_pseudoresolvent_shift_for_constant_potential():
    """Laplace transform of the c-potential evolution equals the base
    pseudoresolvent at lambda - c (closed-form shift)."""
    from morreylab.duhamel import SolverConfig, picard_solve
    from morreylab.potentials import constant_potential
    from morreylab.semigroup import pseudoresolvent
    from morreylab.verify import _laplace_of_trajectory

    sym = laplacian_power_symbol(1, 256, 8.0, 1)
    bump = gaussian_bump(1, 256, 8.0)
    c = 1.0
    cfg = SolverConfig(horizon=3.2, nodes=256, grading=1.0, picard_tol=1e-9)
    traj = picard_solve(bump, [constant_potential(c)], cfg,
                        to_index(MorreyParams(2.0, 1.0), DIMS), DIMS, sym, 1.0)
    for lam in (-4.0, -6.0):
        F = _laplace_of_trajectory(traj, lam)
        # e^{ct} inside the transform shifts the abscissa by +c under the
        # convention G(lam) = int e^{lam t} S(t) dt
        shifted = pseudoresolvent(bump, lam + c, 1.0, sym)
        rel = np.max(np.abs(F.values - shifted.values)) / np.max(np.abs(shifted.values))
        assert rel <= 1e-3
