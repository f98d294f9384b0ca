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
    region_report,
    to_index,
)
from morreylab.report import build_report, report_to_json, write_csv
from morreylab.semigroup import laplacian_power_symbol

DIMS = ProblemDims(1, 1, 1.0)


# -- decay fitting ----------------------------------------------------------------


def test_fit_decay_exact_power_law():
    ts = np.logspace(-3, -1, 12)
    fit = verify.fit_decay(ts, ts**-0.5, predicted=-0.5, tolerance=1e-9)
    assert fit.slope == pytest.approx(-0.5, abs=1e-10)
    assert fit.passed
    assert fit.rel_deviation < 1e-10


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


def as_arrays(queries):
    """(gamma, classes) queries as compare_region_predicates takes them:
    index columns and the (n, 4) table p0 ell0 p1 ell1, nan for an absent
    class."""
    gammas = ScaleIndex(np.array([g.gamma1 for g, _ in queries]),
                        np.array([g.gamma2 for g, _ in queries]))
    rows = np.full((len(queries), 4), np.nan)
    for i, (_, cs) in enumerate(queries):
        rows[i, :2 * len(cs)] = [x for c in cs for x in (c.params.p, c.params.ell)]
    return gammas, rows


def as_queries(gammas, rows, dims):
    """The inverse of as_arrays: one (gamma, classes) pair per row."""
    return [(ScaleIndex(float(g1), float(g2)),
             [PotentialClass.from_exponents(p, ell, dims)
              for p, ell in np.reshape(row, (2, 2)) if not np.isnan(p)])
            for g1, g2, row in zip(gammas.gamma1, gammas.gamma2, rows)]


def exact(queries, dims=DIMS):
    """The exact oracle's verdicts on (gamma, classes) queries, one batch."""
    gammas, _ = as_arrays(queries)
    slots = np.full((2, 2, len(queries)), np.nan)
    for i, (_, cs) in enumerate(queries):
        slots[:len(cs), :, i] = [c.gamma0.as_tuple() for c in cs]
    excluded = np.array([not (in_triangle(g, dims) and all(c.admissible for c in cs))
                         for g, cs in queries])
    return verify.region_oracle(gammas, [ScaleIndex(*s) for s in slots], excluded, dims).tolist()


def test_region_oracle_examples():
    c = cls(1.5, 0.6)
    inside = to_index(MorreyParams(2.0, 0.5), DIMS)
    too_steep = to_index(MorreyParams(2.0, 0.9), DIMS)  # slope 0.45 > 0.3
    # slopes 0.3 + 0.4 TOL and 0.3 + 1.3 TOL: inside and just outside the
    # class slope's band, which both sides take on the class slope
    in_band, past_band = ScaleIndex(0.3, 0.09000000000012), ScaleIndex(0.3, 0.09000000000039)
    queries = [(g, [c]) for g in (inside, too_steep, ScaleIndex(0, 0), in_band, past_band)]
    assert exact(queries) == [True, False, True, True, False]
    assert verify.compare_region_predicates(*as_arrays(queries), DIMS) == []


def test_region_oracle_vs_closed_form():
    ctx = checks.CheckContext(dims=DIMS, n=64, L=8.0, seed=1234)
    assert verify.compare_region_predicates(*checks._random_queries(ctx, 300), DIMS) == []


def test_oracle_handles_bounded_class():
    c_inf = cls(math.inf, 1.0)
    points = [to_index(mp, DIMS) for mp in
              (MorreyParams(2.0, 0.5), MorreyParams(1.0, 1.0), MorreyParams(7.0, 0.33))]
    assert exact([(g, [c_inf]) for g in points]) == [True] * 3


def witness(a1, a2, gamma, classes, dims):
    """Whether any candidate alpha = (a1, a2) satisfies the raw system,
    each inequality tested as written, with the oracle's TOL bands: the
    band of slope(gamma) <= slope(beta) is TOL on the class slope, so the
    test reads slope(gamma) beta_1 <= beta_2 + TOL gamma^i_1."""
    def slope(x1, x2):
        return np.where((x1 <= 0.0) & (x2 <= 0.0), 0.0, np.divide(x2, np.maximum(x1, 1e-300)))

    g2, slope_g = gamma.gamma2, gamma.slope
    ok = (a2 <= g2 + TOL) & (g2 < a2 + 1.0 - TOL) & (slope(a1, a2) <= slope_g + TOL)
    for c in classes:
        c1, c2 = c.gamma0.gamma1, c.gamma0.gamma2
        b1, b2 = a1 + c1, a2 + c2
        b_slope = slope(b1, b2)
        in_j = (b1 <= 1.0 + TOL) & (b2 <= dims.slope_cap + TOL) & (b_slope <= dims.slope_cap + TOL)
        reach = (g2 <= a2 + c2 + TOL) & (slope_g * b1 <= b2 + TOL * c1)
        ok &= in_j & reach
    return bool(np.any(ok))


def ray_samples(gamma, density):
    tau = np.linspace(0.0, 1.0, density + 1)
    return tau * gamma.gamma1, tau * gamma.gamma2


def reference_oracle(gamma, classes, dims, density=200):
    """The former sampled oracle: the full triangle grid and density + 1
    samples of the ray through gamma, as candidate working indices."""
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
    if not gamma.is_origin:
        r1, r2 = ray_samples(gamma, density)
        a1, a2 = np.concatenate([a1, r1]), np.concatenate([a2, r2])
    return witness(a1, a2, gamma, classes, dims)


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


@pytest.mark.parametrize("density", [50, 200])
@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=lambda d: f"N{d.N}m{d.m}mu{d.mu:g}")
def test_region_oracle_matches_reference(dims, density):
    """On random, band-edge, bounded, inadmissible and off-triangle queries
    the exact oracle says IN wherever the sampled reference finds a
    witness, and equals the closed form on every query."""
    ctx = checks.CheckContext(dims=dims, n=64, L=8.0, seed=density + dims.N)
    queries = as_queries(*checks._random_queries(ctx, 150), dims)  # 37 in the band stratum
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
    verdicts = exact(queries, dims)
    assert any(verdicts) and not all(verdicts)
    reference = [reference_oracle(g, c, dims, density) for g, c in queries]
    assert [q for q, v, r in zip(queries, verdicts, reference) if r and not v] == []
    assert verify.compare_region_predicates(*as_arrays(queries), dims) == []


@pytest.mark.parametrize("density,gamma,classes", [
    (50, (0.989848, 0.208902), [(4.6736, 0.4659), (4.3618, 0.5366)]),
    (50, (0.915753, 0.348322), [(2.778, 0.797), (4.2375, 0.9215)]),
    (200, (0.91827, 0.13327), [(5.8951, 0.7209), (2.0015, 0.4667)]),
])
def test_region_oracle_grid_finds_witnesses_the_ray_misses(density, gamma, classes):
    """Near-degenerate queries whose feasible stretch of the ray falls
    between two of its density + 1 samples: the sampled ray alone says
    OUT, only the reference's grid finds a witness, and the exact oracle
    says IN, with the closed form."""
    g = ScaleIndex(*gamma)
    cs = [cls(p0, ell0) for p0, ell0 in classes]
    assert not witness(*ray_samples(g, density), g, cs, DIMS)
    assert reference_oracle(g, cs, DIMS, density)
    assert exact([(g, cs)]) == [True]
    rows = [[x for c in cs for x in (c.params.p, c.params.ell)] + [np.nan] * (4 - 2 * len(cs))]
    assert region_report(ScaleIndex(np.array([g.gamma1]), np.array([g.gamma2])), rows, DIMS) == [None]


def test_region_oracle_mixed_batch():
    """One batch of one- and two-class rows (nan columns for the absent
    class): the origin, a bounded class, a slope inside the class slope's
    TOL band, an inadmissible class, a point outside the triangle, a
    slope above the class slope and a point beyond the two-class star
    region.  Each verdict is the closed form's."""
    dims = ProblemDims(2, 1, 0.5)  # slope cap 2, so kappa = ell0 / p0 can reach 1
    fine, bounded, second, steep = (PotentialClass.from_exponents(p0, ell0, dims) for p0, ell0
                                    in ((2.0, 1.0), (math.inf, 1.0), (3.0, 1.2), (1.0, 1.5)))
    queries = [(ScaleIndex(0.0, 0.0), [fine]),
               (ScaleIndex(0.5, 0.5), [bounded]),
               (ScaleIndex(0.5, 0.5), [fine, bounded]),
               (ScaleIndex(0.3, 0.3), [fine, second]),
               (ScaleIndex(0.4, 0.4 * (1.0 + 0.5 * TOL)), [fine]),  # slope 1 + TOL / 2
               (ScaleIndex(0.5, 0.5), [fine, steep]),    # kappa = 1.5
               (ScaleIndex(1.5, 0.1), [fine]),           # right of the triangle
               (ScaleIndex(0.5, 0.75), [fine]),          # slope 1.5 above 1
               (ScaleIndex(1.0, 0.95), [fine, second])]  # above h(1) = 0.8
    assert exact(queries, dims) == [True] * 5 + [False] * 4
    assert verify.compare_region_predicates(*as_arrays(queries), dims) == []


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=lambda d: f"N{d.N}m{d.m}mu{d.mu:g}")
def test_random_queries_draw_the_documented_set(dims):
    """count rows, gamma inside the triangle with the 1e-3 margins, one-
    and two-class rows of admissible classes, a quarter of the rows within
    2 TOL of a class slope or the slope cap, and the same arrays again for
    the same seed."""
    for count in (1, 7, 400):
        gammas, rows = checks._random_queries(checks.CheckContext(dims, 64, 8.0, seed=5), count)
        assert gammas.gamma1.shape == gammas.gamma2.shape == (count,) and rows.shape == (count, 4)
    g1, g2 = gammas.gamma1, gammas.gamma2
    assert np.all((g1 >= 1e-3) & (g1 <= 1.0) & (g2 >= 1e-3) & (g2 <= dims.slope_cap * g1))
    two = ~np.isnan(rows[:, 2])
    assert two.any() and not two.all()
    assert not np.isnan(rows[two]).any() and np.isnan(rows[~two, 2:]).all()
    assert not np.isnan(rows[:, :2]).any()
    for p0, ell0 in (rows[:, :2].T, rows[two, 2:].T):
        assert np.all(PotentialClass.from_exponents(p0, ell0, dims).admissible)
    band = count - count // 4
    lines = np.stack([rows[:, 1] / dims.order, rows[:, 3] / dims.order,
                      np.full(count, dims.slope_cap)])
    near = np.any(np.abs(gammas.slope - lines) <= 2.0 * TOL * (1.0 + lines), axis=0)
    assert np.array_equal(near, np.arange(count) >= band)
    again = checks._random_queries(checks.CheckContext(dims, 64, 8.0, seed=5), count)
    np.testing.assert_array_equal(again[0].gamma1, g1)
    np.testing.assert_array_equal(again[0].gamma2, g2)
    np.testing.assert_array_equal(again[1], rows)


class CountingRng:
    """A Generator that counts the calls made to its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=lambda d: f"N{d.N}m{d.m}mu{d.mu:g}")
def test_random_queries_draw_whole_columns(dims):
    """The sampler's rng calls do not grow with the query count: it draws
    whole columns per rejection round, never a scalar per query."""
    for count in (20, 2000):
        ctx = checks.CheckContext(dims, 64, 8.0)
        rng = CountingRng(ctx.rng())
        ctx.rng = lambda: rng
        checks._random_queries(ctx, count)
        assert 0 < rng.calls <= 12, (count, rng.calls)


def test_failing_regions_record_lists_its_first_disagreements(monkeypatch, tmp_path):
    """A flipped closed-form verdict fails the check, and the record names
    the query, its classes and both verdicts; a passing record has no
    `first` key.  summary.csv spells the record out as dotted keys, plain
    numbers and true/false, with no Python repr in it."""
    ctx = checks.CheckContext(DIMS, 64, 8.0)
    assert "first" not in checks.check_regions(ctx, count=40).details
    closed_form = verify.region_report

    def flip_row_3(gamma, classes, dims):
        reasons = closed_form(gamma, classes, dims)
        reasons[3] = "flipped" if reasons[3] is None else None
        return reasons

    monkeypatch.setattr(verify, "region_report", flip_row_3)
    rec = checks.check_regions(ctx, count=40)
    assert not rec.passed and rec.details["disagreements"] == 1
    gammas, rows = checks._random_queries(ctx, 40)
    [first] = rec.details["first"]
    assert first["gamma"] == (gammas.gamma1[3], gammas.gamma2[3])
    assert np.array_equal(np.ravel(first["classes"]), rows[3, :np.size(first["classes"])])
    assert np.isnan(rows[3, np.size(first["classes"]):]).all()
    assert first["closed_form"] != first["oracle"]
    report = build_report([rec], {}, 0)
    json = report_to_json(report)
    assert '"first"' in json and '"oracle"' in json
    write_csv(report, tmp_path / "summary.csv")
    text = (tmp_path / "summary.csv").read_text()
    assert not any(bad in text for bad in ("{", "'", "True", "False"))
    csv_rows = dict(line.split(",")[2:] for line in text.splitlines()[2:])
    assert csv_rows["first.0.gamma"] == f"{first['gamma'][0]:.17g};{first['gamma'][1]:.17g}"
    assert csv_rows["first.0.classes"] == ";".join(f"{x:.17g}"
                                                   for x in np.ravel(first["classes"]))
    assert {csv_rows["first.0.closed_form"], csv_rows["first.0.oracle"]} == {"true", "false"}


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
    from morreylab.norms import morrey_norm

    sym = laplacian_power_symbol(1, 2048, 8.0, 1)
    ax = GridFunction.constant(0.0, 1, 2048, 8.0).axis()
    ind = GridFunction(1, 2048, 8.0, (ax >= 0.0).astype(float))
    ok, _ = verify.trace_check(ind, 1.0, 2.0, 1.0, sym, threshold=1e-2)
    assert ok  # local L^1 convergence is fast for one jump in the window
    h = ind.h
    mods = [morrey_norm(GridFunction(1, 2048, 8.0, np.roll(ind.values, k) - ind.values),
                        1.0, 1.0) / (k * h) for k in (2, 4, 8)]
    assert min(mods) > 1.0  # nonvanishing slope: not in the dotted space


def test_pseudoresolvent_identity_no_potential():
    from morreylab.duhamel import SolverConfig, picard_solve

    sym = laplacian_power_symbol(1, 256, 8.0, 1)
    bump = gaussian_bump(1, 256, 8.0)
    cfg = SolverConfig(horizon=3.2, nodes=128, grading=1.0)
    traj = picard_solve(bump, [], cfg, to_index(MorreyParams(2.0, 1.0), DIMS),
                        DIMS, sym)
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
                        DIMS, sym)
    F = verify._laplace_of_trajectory(traj, -4.0)
    G = pseudoresolvent(bump, -4.0, 1.0, sym)
    assert np.iscomplexobj(F.values) and np.iscomplexobj(G.values)
    assert np.max(np.abs(G.values.imag)) > 1e-2 * np.max(np.abs(G.values))
    assert verify.pseudoresolvent_identity(traj, -4.0) <= 2e-3


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
    cfg = SolverConfig(horizon=3.2, nodes=256, grading=1.0)
    traj = picard_solve(bump, [constant_potential(c)], cfg,
                        to_index(MorreyParams(2.0, 1.0), DIMS), DIMS, sym)
    for lam in (-4.0, -6.0):
        F = _laplace_of_trajectory(traj, lam)
        # e^{ct} inside the transform shifts the abscissa by +c under the
        # convention G(lam) = int e^{lam t} S(t) dt
        shifted = pseudoresolvent(bump, lam + c, 1.0, sym)
        rel = np.max(np.abs(F.values - shifted.values)) / np.max(np.abs(shifted.values))
        assert rel <= 1e-3
