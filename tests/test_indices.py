import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab.indices import (
    MorreyParams,
    PotentialClass,
    ProblemDims,
    ScaleIndex,
    TOL,
    boundary_h,
    cd2_region_contains,
    choose_alpha,
    exterior_tangent,
    existence_set_contains,
    from_index,
    in_triangle,
    region_report,
    regularity,
    regularity_set_contains,
    sigma_contains,
    smoothing_distance,
    star_region_contains,
    sub_triangle_contains,
    to_index,
)


def cls(p0, ell0, dims):
    return PotentialClass.from_exponents(p0, ell0, dims)


def test_potential_class_index_computed_once(monkeypatch, dims1):
    """gamma0, kappa and admissible share one to_index call per class, and
    the cached index leaves equality and hashing to the fields."""
    from morreylab import indices

    calls = []

    def counting(mp, dims):
        calls.append(mp)
        return to_index(mp, dims)

    monkeypatch.setattr(indices, "to_index", counting)
    a, b = cls(2.0, 0.5, dims1), cls(2.0, 0.5, dims1)
    for _ in range(3):
        assert a.gamma0 == ScaleIndex(0.5, 0.125)
        assert a.kappa == 0.125 and a.admissible
    assert len(calls) == 1
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    b.require_admissible()
    assert len(calls) == 2
    assert a == b and hash(a) == hash(b) and len({a, b, cls(2.0, 0.6, dims1)}) == 2


# -- coordinate maps -----------------------------------------------------------


def test_to_index_examples(dims1, dims2):
    assert to_index(MorreyParams(1, 1), dims1).as_tuple() == (1.0, 0.5)
    assert to_index(MorreyParams(math.inf, 0.3), dims1).as_tuple() == (0.0, 0.0)
    assert to_index(MorreyParams(2, 2), dims2).as_tuple() == (0.5, 0.5)


def test_from_index_examples(dims1):
    mp = from_index(ScaleIndex(1.0, 0.5), dims1)
    assert (mp.p, mp.ell) == (1.0, 1.0)
    assert from_index(ScaleIndex(0.0, 0.0), dims1).p == math.inf
    mp = from_index(ScaleIndex(0.5, 0.25), dims1)
    assert (mp.p, mp.ell) == (pytest.approx(2.0), pytest.approx(1.0))
    with pytest.raises(ValueError):
        from_index(ScaleIndex(0.1, 0.9), dims1)  # slope 9 > cap


@settings(max_examples=200, deadline=None)
@given(p=st.floats(1.0, 50.0), frac=st.floats(0.01, 1.0))
def test_roundtrip_property(p, frac):
    dims = ProblemDims(1, 1, 1.0)
    mp = MorreyParams(p, frac * dims.N)
    gamma = to_index(mp, dims)
    back = from_index(gamma, dims)
    assert back.p == pytest.approx(mp.p, rel=1e-12)
    assert back.ell == pytest.approx(mp.ell, rel=1e-12)
    # and the other composition
    again = to_index(back, dims)
    assert again.gamma1 == pytest.approx(gamma.gamma1, abs=1e-15)
    assert again.gamma2 == pytest.approx(gamma.gamma2, abs=1e-15)


def test_regularity_and_distance(dims1):
    assert regularity(ScaleIndex(0, 0)) == 0.0
    g = to_index(MorreyParams(1, 1), dims1)
    assert smoothing_distance(ScaleIndex(0, 0), g) == pytest.approx(0.5)
    assert smoothing_distance(g, g) == 0.0


# -- admissibility sets -------------------------------------------------------


def test_sub_triangle(dims1):
    c = cls(2.0, 1.0, dims1)  # slope ell0/(2 m mu) = 0.5
    for p in (1.0, 1.7, 4.0):
        assert sub_triangle_contains(to_index(MorreyParams(p, 1.0), dims1), c)
    c_inf = cls(math.inf, 1.0, dims1)
    assert c_inf.gamma0.is_origin
    assert sub_triangle_contains(to_index(MorreyParams(3.0, 0.9), dims1), c_inf)
    assert sub_triangle_contains(ScaleIndex(0, 0), c)


def test_sigma_examples(dims1):
    c = cls(2.0, 1.0, dims1)  # gamma0 = (0.5, 0.25), kappa = 0.25
    g = to_index(MorreyParams(4.0, 0.8), dims1)
    assert sigma_contains(g, g, c)  # alpha = gamma
    alpha = ScaleIndex(g.gamma1, g.gamma2)
    too_high = ScaleIndex(g.gamma1 + 0.2, g.gamma2 + c.gamma0.gamma2 + 0.01)
    assert not regularity_set_contains(too_high, alpha, c)
    assert sigma_contains(ScaleIndex(0, 0), ScaleIndex(0, 0), c)
    with pytest.raises(ValueError):
        sigma_contains(g, ScaleIndex(0.9, 0.2), c)  # alpha1 + gamma0_1 > 1


def spelled_out_sigma(g, a, c):
    """The joint system inequality by inequality, without the existence
    bound g2 < a2 + 1 and the regularity bound g2 > a2 - (1 - kappa)."""
    beta = a + c.gamma0
    return (a.gamma2 <= g.gamma2 + TOL and g.gamma2 <= beta.gamma2 + TOL
            and a.slope <= g.slope + TOL and g.slope <= beta.slope + TOL)


def conjunction(g, a, c):
    return existence_set_contains(g, a) and regularity_set_contains(g, a, c)


def test_sigma_is_conjunction(dims1, rng):
    c = cls(1.5, 0.75, dims1)
    cap = dims1.slope_cap
    seen = set()
    for _ in range(500):
        g = ScaleIndex(rng.uniform(0.01, 1), rng.uniform(0.0, cap))
        a = ScaleIndex(rng.uniform(0.01, 1.0 - c.gamma0.gamma1), rng.uniform(0.0, cap))
        if g.gamma2 > cap * g.gamma1 or a.gamma2 > cap * a.gamma1:
            continue
        verdict = sigma_contains(g, a, c)
        assert verdict == conjunction(g, a, c) == spelled_out_sigma(g, a, c)
        seen.add(verdict)
    assert seen == {True, False}


def band_samples(c, a):
    """Indices on the TOL bands of both height bounds a2 <= g2 <= a2 + kappa,
    at slopes on and between slope(a) and slope(a + gamma0)."""
    beta = a + c.gamma0
    offsets = (-2.0, -1.5, -1.0, -0.75, -0.5, 0.0, 0.5, 0.75, 1.0, 1.5, 2.0)
    heights = [h + x * TOL for h in (a.gamma2, beta.gamma2) for x in offsets]
    slopes = [a.slope, 0.5 * (a.slope + beta.slope), beta.slope]
    return [ScaleIndex(h / s, h) for h in heights for s in slopes]


@pytest.mark.parametrize("gap", [0.5, 3e-12, 1.5e-12])
def test_sigma_on_the_tol_band(gap):
    """sigma_contains equals the conjunction on the TOL bands, and the
    spelled-out system does too while kappa < 1 - 2 TOL; at
    kappa = 1 - 1.5 TOL the two extra bounds decide some verdicts."""
    dims = ProblemDims(2, 1, 0.5)  # order 1: kappa = ell0 / p0
    c = cls(2.0, 2.0 * (1.0 - gap), dims)
    assert c.admissible and c.gamma0.gamma1 == 0.5
    verdicts, differ = set(), 0
    for a in (ScaleIndex(0.25, 0.1), ScaleIndex(0.5, 0.3), ScaleIndex(0.1, 0.15)):
        for g in band_samples(c, a):
            verdict = sigma_contains(g, a, c)
            assert verdict == conjunction(g, a, c)
            verdicts.add(verdict)
            differ += verdict != spelled_out_sigma(g, a, c)
    assert verdicts == {True, False}
    assert (differ > 0) == (c.kappa >= 1.0 - 2.0 * TOL)


def test_choose_alpha_examples(dims2):
    c = cls(2.0, 1.2, dims2)  # gamma0 = (0.5, 0.3)
    assert choose_alpha(ScaleIndex(0.2, 0.1), [c]).as_tuple() == (0.2, 0.1)
    a = choose_alpha(ScaleIndex(0.8, 0.4), [c])
    assert a.as_tuple() == (pytest.approx(0.5), pytest.approx(0.25))
    assert choose_alpha(ScaleIndex(0, 0), [c]).as_tuple() == (0.0, 0.0)


def test_choose_alpha_grid_invariant(dims1):
    """Every grid point of the class sub-triangle gets a working index."""
    c = cls(1.5, 0.6, dims1)  # slope 0.3, gamma0 = (2/3, 0.2)
    slope0 = c.gamma0.slope
    m = 100
    for i in range(m + 1):
        for j in range(m + 1):
            g1 = i / m
            g2 = slope0 * g1 * (j / m)
            g = ScaleIndex(g1, g2)
            if not in_triangle(g, dims1):
                continue
            alpha = choose_alpha(g, [c])
            assert sigma_contains(g, alpha, c)


def test_choose_alpha_two_classes_star(dims1):
    c0 = cls(2.0, 0.6, dims1)   # gamma0 = (0.5, 0.15)
    c1 = cls(1.5, 0.75, dims1)  # gamma1 = (2/3, 0.25)
    inside = ScaleIndex(0.5, 0.15)
    assert star_region_contains(inside, [c0, c1])
    a = choose_alpha(inside, [c0, c1])
    assert sigma_contains(inside, a, c0) and sigma_contains(inside, a, c1)
    # outside the star region the joint system is genuinely infeasible
    outside = ScaleIndex(0.98, 0.294)
    assert sub_triangle_contains(outside, c0)
    if not star_region_contains(outside, [c0, c1]):
        with pytest.raises(ValueError):
            choose_alpha(outside, [c0, c1])


# -- two-potential regions -----------------------------------------------------


def test_cd2_examples(dims2):
    a = cls(2.0, 1.0, dims2)
    assert cd2_region_contains(MorreyParams(2.0, 1.0), [a, a], dims2)
    assert cd2_region_contains(MorreyParams(1.0, 1.0), [a, a], dims2)  # boundary
    b = cls(2.5, 1.0, dims2)  # ell0/p0 = 0.4
    assert not cd2_region_contains(MorreyParams(1.0, 1.0), [b, a], dims2)


def test_cd2_swaps_classes(dims2):
    small = cls(2.0, 0.8, dims2)
    large = cls(3.0, 1.5, dims2)
    q = MorreyParams(2.0, 0.7)
    assert cd2_region_contains(q, [small, large], dims2) == \
        cd2_region_contains(q, [large, small], dims2)


def test_star_region(dims1):
    c0 = cls(2.0, 0.6, dims1)
    c1 = cls(1.5, 0.75, dims1)
    theta = 1.0 - max(c0.gamma0.gamma1, c1.gamma0.gamma1)
    assert star_region_contains(ScaleIndex(theta - 0.01, 0.1), [c0, c1])
    assert boundary_h(theta, [c0, c1]) == math.inf
    m2 = min(c0.gamma0.gamma2, c1.gamma0.gamma2)
    g01 = max(c0.gamma0.gamma1, c1.gamma0.gamma1)
    assert boundary_h(1.0, [c0, c1]) == pytest.approx(m2 / g01)
    g1 = 0.8
    h = boundary_h(g1, [c0, c1])
    assert not star_region_contains(ScaleIndex(g1, min(h + 0.05, g1 * dims1.slope_cap)),
                                    [c0, c1])


def test_star_matches_cd2_coordinates(dims1, rng):
    """The curved region agrees with its (p, ell) form under the index map."""
    c0 = cls(2.0, 0.6, dims1)
    c1 = cls(1.5, 0.75, dims1)
    for _ in range(500):
        p = rng.uniform(1.0, 20.0)
        ell = rng.uniform(0.01, c0.params.ell)
        mp = MorreyParams(p, ell)
        g = to_index(mp, dims1)
        if abs(g.gamma2 - boundary_h(g.gamma1, [c0, c1])) < 1e-9:
            continue  # exactly on the curve either way
        assert star_region_contains(g, [c0, c1]) == \
            cd2_region_contains(mp, [c0, c1], dims1)


# -- exterior tangent ----------------------------------------------------------


def square():
    return (lambda x: x * x), (lambda x: 2.0 * x), (lambda x: 2.0)


def test_tangent_examples():
    f, fp, fpp = square()
    assert exterior_tangent(f, fp, fpp, -2, 2, 0, -1, "right") == pytest.approx(1.0, abs=1e-12)
    assert exterior_tangent(f, fp, fpp, -2, 2, 0, -1, "left") == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError):
        exterior_tangent(f, fp, fpp, -2, 2, 0, 0.0, "right")  # d = f(c): degenerate
    with pytest.raises(ValueError):
        exterior_tangent(f, fp, fpp, -2, 2, 0, -9.0, "right")  # slope condition fails


def test_tangent_exact_on_the_parabola():
    """Newton lands on x* = +-1 exactly, so the registry's tangent error is 0."""
    f, fp, fpp = square()
    assert exterior_tangent(f, fp, fpp, -2.0, 2.0, 0.0, -1.0, "right") == 1.0
    assert exterior_tangent(f, fp, fpp, -2.0, 2.0, 0.0, -1.0, "left") == -1.0


def test_tangent_residual_and_side(rng):
    f = lambda x: math.exp(x)
    fp = lambda x: math.exp(x)
    fpp = lambda x: math.exp(x)
    for _ in range(50):
        c = rng.uniform(-0.5, 0.5)
        d = f(c) - rng.uniform(0.05, 1.0)
        for side in ("left", "right"):
            a, b = c - 3.0, c + 3.0
            t_end = f(a) + fp(a) * (c - a) if side == "left" else f(b) + fp(b) * (c - b)
            if t_end > d:
                continue
            x = exterior_tangent(f, fp, fpp, a, b, c, d, side)
            assert (x < c) if side == "left" else (x > c)
            assert abs(f(x) + fp(x) * (c - x) - d) <= 1e-12 * (1 + abs(d))


# -- report plumbing -----------------------------------------------------------


def _class_rows(classes):
    """region_report's class columns (p0, ell0, p1, ell1), nan-padded."""
    rows = np.full((len(classes), 4), np.nan)
    for row, cs in zip(rows, classes):
        row[:2 * len(cs)] = [x for c in cs for x in (c.params.p, c.params.ell)]
    return rows


def test_region_report_matches_choose_alpha(dims1):
    """The closed-form verdict is IN exactly when choose_alpha finds a
    working index that meets sigma for every class."""
    rng = np.random.default_rng(2024)
    cap = dims1.slope_cap
    gammas, classes, reference = [], [], []
    counts = {1: [0, 0], 2: [0, 0]}
    while min(min(c) for c in counts.values()) < 100:
        g1, g2 = rng.uniform(0.0, 1.0), rng.uniform(0.0, cap)
        if g2 > cap * g1 or g1 < 1e-3 or g2 < 1e-3:
            continue
        gamma = ScaleIndex(g1, g2)
        cs = [cls(rng.uniform(1.0, 6.0), rng.uniform(0.05, 1.0), dims1)
              for _ in range(1 if rng.uniform() < 0.5 else 2)]
        try:
            alpha = choose_alpha(gamma, cs)
            ref = all(sigma_contains(gamma, alpha, c) for c in cs)
        except ValueError:
            ref = False
        gammas.append(gamma)
        classes.append(cs)
        reference.append(ref)
        counts[len(cs)][ref] += 1
    # both verdicts occur for one and for two classes
    assert all(min(c) >= 100 for c in counts.values())
    block = ScaleIndex(np.array([g.gamma1 for g in gammas]), np.array([g.gamma2 for g in gammas]))
    verdicts = [r is None for r in region_report(block, _class_rows(classes), dims1)]
    assert verdicts == reference


def test_region_report_reasons(dims1):
    """One reason per row, in the order admissibility, triangle, slope,
    star; the star test applies to two-class rows only."""
    gamma = ScaleIndex(np.array([0.5, 0.5, 0.5, 0.98, 0.98]),
                       np.array([0.25, 0.3, 0.2, 0.294, 0.294]))
    rows = np.array([[2.0, 1.0, np.nan, np.nan],
                     [2.0, 0.5, np.nan, np.nan],
                     [2.0, 0.5, np.nan, np.nan],
                     [2.0, 0.6, 1.5, 0.75],
                     [2.0, 0.6, np.nan, np.nan]])
    assert region_report(gamma, rows, dims1) == [
        None,
        "outside the index triangle",
        "slope exceeds potential-class slope (ell > ell0)",
        "outside the two-potential star region",
        None,
    ]


def test_region_report_kappa_names_each_inadmissible_class():
    """At 2 m mu = 1, ell0 = p0 = 1 gives kappa = 1: a kappa reason lists
    every inadmissible class of its row once, and a bounded class
    (p0 = inf) restricts nothing."""
    dims = ProblemDims(1, 1, 0.5)
    gamma = ScaleIndex(np.full(4, 0.5), np.full(4, 0.25))
    rows = np.array([[1.0, 1.0, np.nan, np.nan],
                     [1.0, 1.0, 1.0, 0.75],
                     [1.0, 1.0, 1.0, 1.0],
                     [np.inf, 1.0, np.nan, np.nan]])
    assert region_report(gamma, rows, dims) == [
        "kappa(1,1)=1>=1",
        "kappa(1,1)=1>=1",
        "kappa(1,1)=1>=1; kappa(1,1)=1>=1",
        None,
    ]
