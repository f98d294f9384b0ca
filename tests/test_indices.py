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
    boundary_h,
    bootstrap_chain,
    cd2_region_contains,
    choose_alpha,
    exterior_tangent,
    existence_set_contains,
    from_index,
    in_triangle,
    omega_bound,
    out_reason,
    region_report,
    regularity,
    regularity_set_contains,
    sigma_contains,
    smoothing_distance,
    smooths_to,
    star_region_contains,
    sub_triangle_contains,
    theta_p,
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


# -- smoothing relation --------------------------------------------------------


def test_smooths_to_examples():
    assert smooths_to(ScaleIndex(1, 0.5), ScaleIndex(0.5, 0.25))
    assert not smooths_to(ScaleIndex(1, 0.5), ScaleIndex(0.5, 0.4))  # slope 0.8 > 0.5
    g = ScaleIndex(0.7, 0.3)
    assert smooths_to(g, g)
    assert smooths_to(ScaleIndex(0, 0), ScaleIndex(0, 0))
    assert not smooths_to(ScaleIndex(0, 0), ScaleIndex(0.5, 0.25))


def test_smooths_to_reflexive_transitive(dims1, rng):
    cap = dims1.slope_cap
    pts = []
    while len(pts) < 60:
        g1, g2 = rng.uniform(0, 1), rng.uniform(0, cap)
        if g2 <= cap * g1 and g1 > 0:
            pts.append(ScaleIndex(g1, g2))
    count = 0
    for a in pts:
        assert smooths_to(a, a)
        for b in pts:
            for c in pts:
                if smooths_to(a, b) and smooths_to(b, c):
                    assert smooths_to(a, c)
                    count += 1
    assert count >= 10_000  # enough triples actually exercised


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


def test_sigma_is_conjunction(dims1, rng):
    c = cls(1.5, 0.75, dims1)
    cap = dims1.slope_cap
    for _ in range(500):
        g = ScaleIndex(rng.uniform(0.01, 1), rng.uniform(0.0, cap))
        a = ScaleIndex(rng.uniform(0.01, 1.0 - c.gamma0.gamma1), rng.uniform(0.0, cap))
        if g.gamma2 > cap * g.gamma1 or a.gamma2 > cap * a.gamma1:
            continue
        if sigma_contains(g, a, c):
            assert existence_set_contains(g, a)
            assert regularity_set_contains(g, a, c)


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


# -- bootstrap chains ----------------------------------------------------------


def test_bootstrap_chain_examples():
    g, t = ScaleIndex(1.0, 2.0), ScaleIndex(0.15, 0.3)
    chain = bootstrap_chain(g, t, step=0.5)
    assert [round(c.gamma2, 10) for c in chain] == [2.0, 1.5, 1.0, 0.5, 0.3]
    assert len(chain) == 5
    assert bootstrap_chain(g, g, 0.5) == [g]
    short = bootstrap_chain(ScaleIndex(1.0, 0.5), ScaleIndex(0.5, 0.2), 0.5)
    assert len(short) == 2


def test_bootstrap_chain_hops(dims2, rng):
    cap = dims2.slope_cap
    for _ in range(200):
        g = ScaleIndex(rng.uniform(0.05, 1), 0.0)
        g = ScaleIndex(g.gamma1, rng.uniform(0, cap * g.gamma1))
        t = ScaleIndex(rng.uniform(0.05, 1), 0.0)
        t = ScaleIndex(t.gamma1, rng.uniform(0, min(cap * t.gamma1, g.gamma2)))
        if not (in_triangle(g, dims2) and in_triangle(t, dims2) and smooths_to(g, t)):
            continue
        step = rng.uniform(0.2, 0.9)
        chain = bootstrap_chain(g, t, step)
        for a, b in zip(chain, chain[1:]):
            assert a.gamma2 - b.gamma2 <= step + 1e-12
            assert smooths_to(a, b)
        drop = g.gamma2 - t.gamma2
        minimal = 1 if drop == 0 and g == t else max(1, math.ceil(drop / step - 1e-12)) + 1
        assert len(chain) <= minimal


def test_bootstrap_chain_requires_smoothing():
    with pytest.raises(ValueError):
        bootstrap_chain(ScaleIndex(1.0, 0.5), ScaleIndex(0.5, 0.4), 0.5)


# -- scalar formulas -----------------------------------------------------------


def test_theta_p_examples():
    assert theta_p([(0.0, 3.0, 1.0)]) == pytest.approx(3.0)
    assert theta_p([(0.3, 0.0, 1.0), (0.7, 0.0, 2.0)]) == 0.0
    # c Gamma(1-d) norm = 2 with d = 1/2 -> 2^2 = 4
    assert theta_p([(0.5, 2.0 / math.gamma(0.5), 1.0)]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        theta_p([(1.0, 1.0, 1.0)])


def test_omega_bound_examples(dims1):
    c_half = cls(1.0, 1.0, dims1)  # kappa = 0.5
    assert omega_bound(c_half, 0.0) == 0.0
    assert omega_bound(c_half, 2.0, 1.0) == pytest.approx(4.0)
    c_zero = cls(math.inf, 1.0, dims1)  # kappa = 0
    assert omega_bound(c_zero, 5.0, 1.0) == pytest.approx(5.0)
    both = omega_bound([c_half, c_zero], [2.0, 5.0], 1.0)
    assert both == pytest.approx(9.0)
    bad = cls(1.0, 1.0, ProblemDims(1, 1, 0.5))  # kappa = 1
    with pytest.raises(ValueError):
        omega_bound(bad, 1.0)


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


def test_out_reason_matches_choose_alpha(dims1):
    """The closed-form verdict is IN exactly when choose_alpha finds a
    working index that meets sigma for every class."""
    rng = np.random.default_rng(2024)
    cap = dims1.slope_cap
    counts = {1: [0, 0], 2: [0, 0]}
    while min(min(c) for c in counts.values()) < 100:
        g1, g2 = rng.uniform(0.0, 1.0), rng.uniform(0.0, cap)
        if g2 > cap * g1 or g1 < 1e-3 or g2 < 1e-3:
            continue
        gamma = ScaleIndex(g1, g2)
        classes = [cls(rng.uniform(1.0, 6.0), rng.uniform(0.05, 1.0), dims1)
                   for _ in range(1 if rng.uniform() < 0.5 else 2)]
        try:
            alpha = choose_alpha(gamma, classes)
            reference = all(sigma_contains(gamma, alpha, c) for c in classes)
        except ValueError:
            reference = False
        verdict = out_reason(gamma, classes, dims1) is None
        assert verdict == reference, (gamma, [c.params for c in classes])
        counts[len(classes)][verdict] += 1
    # both verdicts occur for one and for two classes
    assert all(min(c) >= 100 for c in counts.values())


def test_region_report_lines(dims1):
    ok = region_report(MorreyParams(2.0, 0.5), [cls(2.0, 1.0, dims1)], dims1)
    assert ok.verdict and ok.line().startswith("IN")
    bad = region_report(MorreyParams(1.0, 1.0), [cls(2.0, 0.5, dims1)], dims1)
    assert not bad.verdict and bad.line().startswith("OUT")
    inadm = region_report(MorreyParams(2.0, 0.5),
                          [PotentialClass.from_exponents(1.0, 1.0, ProblemDims(1, 1, 0.5))],
                          ProblemDims(1, 1, 0.5))
    assert not inadm.verdict and "kappa" in inadm.line()
