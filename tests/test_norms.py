import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morreylab import norms
from morreylab.fixtures import gaussian_bump, power_law
from morreylab.grids import GridFunction
from morreylab.norms import (
    RadiusLadder,
    holder_product_check,
    lp_ball_norm,
    morrey_norm,
    uniform_norm,
)


def dense_scan(phi, p, ell, n_radii=80):
    """Independent oracle: every center, a fine radius grid."""
    w = np.abs(phi.values) ** p * phi.h**phi.N
    best = 0.0
    for R in np.geomspace(2 * phi.h, phi.L, n_radii):
        mask = (phi.radii() <= R + 1e-15).astype(float)
        kern = np.roll(mask, (-(phi.n // 2),) * phi.N, axis=tuple(range(phi.N)))
        axes = tuple(range(w.ndim))
        conv = np.fft.irfftn(np.fft.rfftn(w) * np.fft.rfftn(kern), s=w.shape, axes=axes)
        best = max(best, float(np.maximum(conv, 0).max()) ** (1 / p) * R ** ((ell - phi.N) / p))
    return best


def narrow_bump(n, L, width):
    """exp(-(x / width)^2) on a 1D grid."""
    g = GridFunction.constant(0.0, 1, n, L)
    return GridFunction(1, n, L, np.exp(-((g.radii() / width) ** 2)))


def strided_reference(phi, p, ell, ladder):
    """Independent oracle for the ladder scan: a full-size inverse transform
    per radius, then the sums at every stride-th center."""
    w = np.abs(phi.values) ** p * phi.h**phi.N
    axes = tuple(range(phi.N))
    best = 0.0
    for R in ladder.radii:
        mask = (phi.radii() <= R + 1e-12 * max(1.0, R)).astype(float)
        kern = np.roll(mask, (-(phi.n // 2),) * phi.N, axis=axes)
        conv = np.fft.irfftn(np.fft.rfftn(w) * np.fft.rfftn(kern), s=w.shape, axes=axes)
        sums = np.maximum(conv, 0)[(slice(None, None, ladder.stride),) * phi.N]
        best = max(best, float(sums.max()) ** (1 / p) * R ** ((ell - phi.N) / p))
    return best


# -- single-ball norms ----------------------------------------------------------


def test_lp_ball_examples():
    zero = GridFunction.constant(0.0, 1, 4096, 1.0)
    assert lp_ball_norm(zero, 0.0, 0.5, 1.0) == 0.0
    one = GridFunction.constant(1.0, 1, 4096, 1.0)
    assert lp_ball_norm(one, 0.0, 0.5, 1.0) == pytest.approx(1.0, abs=one.h)
    pl = power_law(1, 4096, 1.0, beta=0.5)
    # analytic: integral over B(0, R) of |x|^{-1/2} is 4 sqrt(R)
    assert lp_ball_norm(pl, 0.0, 0.25, 1.0) == pytest.approx(2.0, rel=0.05)


def test_lp_ball_periodic_center():
    g = power_law(1, 512, 1.0, beta=0.5)
    # centers related by the period give the same ball
    assert lp_ball_norm(g, -1.0, 0.25, 1.0) == pytest.approx(
        lp_ball_norm(g, 1.0 - g.h * 0, 0.25, 1.0))


def test_lp_ball_validation():
    g = GridFunction.constant(1.0, 1, 64, 1.0)
    with pytest.raises(ValueError):
        lp_ball_norm(g, 0.0, 0.5 * g.h, 1.0)  # under-resolved
    with pytest.raises(ValueError):
        lp_ball_norm(g, 0.0, 2.0, 1.0)  # beyond the box


# -- Morrey norm ----------------------------------------------------------------


def test_morrey_power_law_fixture():
    pl = power_law(1, 4096, 1.0, beta=0.5)
    val = morrey_norm(pl, 1.0, 0.5)
    assert val == pytest.approx(4.0, rel=0.10)
    assert val == pytest.approx(dense_scan(pl, 1.0, 0.5), rel=1e-12)


def test_morrey_zero_and_sup():
    zero = GridFunction.constant(0.0, 1, 64, 1.0)
    assert morrey_norm(zero, 1.0, 0.5) == 0.0
    bump = gaussian_bump(1, 256, 4.0)
    assert morrey_norm(bump, math.inf, 1.0) == pytest.approx(1.0)


def test_morrey_ell_equals_N_is_lp():
    bump = narrow_bump(2048, 8.0, 0.5)
    val = morrey_norm(bump, 2.0, 1.0)
    exact = (0.5 * math.sqrt(math.pi / 2)) ** 0.5  # L2 norm of exp(-(x/w)^2)
    assert val == pytest.approx(exact, rel=0.01)


def test_morrey_2d_power_law(dims2):
    pl = power_law(2, 256, 1.0, beta=0.5)
    # analytic at the origin: R^{(3/2-2)} * 2 pi R^{3/2} / (3/2)
    assert morrey_norm(pl, 1.0, 1.5) == pytest.approx(2 * math.pi / 1.5, rel=0.05)


def test_homogeneity():
    pl = power_law(1, 1024, 1.0, beta=0.3)
    base = morrey_norm(pl, 1.5, 0.45)
    for c in (-2.5, 0.125, 7.0):
        assert morrey_norm(c * pl, 1.5, 0.45) == pytest.approx(abs(c) * base, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(1e-3, 1e3))
def test_homogeneity_property(c):
    pl = power_law(1, 256, 1.0, beta=0.3)
    assert morrey_norm(c * pl, 1.0, 0.5) == pytest.approx(
        c * morrey_norm(pl, 1.0, 0.5), rel=1e-12)


def test_triangle_inequality(rng):
    for _ in range(10):
        a = GridFunction(1, 256, 1.0, rng.normal(size=256))
        b = GridFunction(1, 256, 1.0, rng.normal(size=256))
        assert morrey_norm(a + b, 1.5, 0.5) <= \
            morrey_norm(a, 1.5, 0.5) + morrey_norm(b, 1.5, 0.5) + 1e-12


def test_ell_monotone_for_ball_supported_data():
    """For data in a small ball the norm decreases in ell, matching the oracle."""
    g = GridFunction.constant(0.0, 1, 1024, 2.0)
    vals = np.where(g.radii() <= 0.25, 1.0, 0.0)
    phi = GridFunction(1, 1024, 2.0, vals)
    norms = [morrey_norm(phi, 1.0, ell) for ell in (0.2, 0.4, 0.6, 0.8, 1.0)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
    for ell, v in zip((0.2, 0.4, 0.6, 0.8, 1.0), norms):
        assert v == pytest.approx(dense_scan(phi, 1.0, ell), rel=0.02)


def test_dilation_identity():
    """sup_R R^{ell/p} ||phi_R||_uniform recovers the Morrey norm (power laws
    are closed under dilation: phi_R = R^{-beta} phi)."""
    beta, p, ell = 0.5, 1.0, 0.5
    phi = power_law(1, 4096, 8.0, beta=beta)
    target = morrey_norm(phi, p, ell)
    vals = []
    for R in np.geomspace(0.1, 10.0, 15):
        vals.append(R ** (ell / p) * R ** (-beta) * uniform_norm(phi, p))
    assert max(vals) == pytest.approx(target, rel=0.15)


def test_ladder_refinement():
    phi = power_law(1, 4096, 8.0, beta=0.5)
    coarse = RadiusLadder.for_grid(phi)
    # ratio 2^(1/4) from 2h = 2^-7 through R = 1 to L = 8, and every 2nd center
    fine = RadiusLadder(tuple(2.0 ** (k / 4) for k in range(-28, 13)), 2)
    a = morrey_norm(phi, 1.0, 0.5, coarse)
    b = morrey_norm(phi, 1.0, 0.5, fine)
    assert abs(a - b) / b < 0.02


@pytest.mark.parametrize("N,n", [(1, 256), (2, 64), (1, 4096)])
@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("complex_values", [False, True])
def test_scan_matches_strided_reference(rng, N, n, stride, p, complex_values):
    vals = rng.normal(size=(n,) * N)
    if complex_values:
        vals = vals + 1j * rng.normal(size=(n,) * N)
    phi = GridFunction(N, n, 2.0, vals)
    # the same datum concentrated at the box edge, where the balls wrap
    edge = phi * np.exp(-(((phi.L - phi.radii()) / 0.1) ** 2))
    ladder = RadiusLadder(RadiusLadder.for_grid(phi).radii, stride)
    ell = 0.6 * N
    for datum in (phi, edge):
        assert morrey_norm(datum, p, ell, ladder) == pytest.approx(
            strided_reference(datum, p, ell, ladder), rel=1e-12)


@pytest.mark.parametrize("stride", [1, 4])
def test_scan_radii_on_grid_points(rng, stride):
    """Radii that are whole multiples of an inexact h sit on the membership
    tolerance: the ball of radius k h holds the 2k + 1 points around its
    center, and k = n/2 (R = L) the whole torus."""
    n, L = 512, 3.3
    ks = (2, 3, 5, 17, 100, 255, 256)
    h = 2.0 * L / n
    radii = tuple(k * h for k in ks)
    assert norms._windows(n, L, radii) == tuple((k, k) for k in ks[:-1]) + (None,)
    phi = GridFunction(1, n, L, rng.normal(size=n))
    ladder = RadiusLadder(radii, stride)
    for p in (1.0, 2.5):
        assert morrey_norm(phi, p, 0.4, ladder) == pytest.approx(
            strided_reference(phi, p, 0.4, ladder), rel=1e-12)
    assert morrey_norm(phi, 1.0, 1.0, RadiusLadder((L,), stride)) == pytest.approx(
        float(np.sum(np.abs(phi.values)) * h), rel=1e-14)


def test_window_scan_takes_no_transform(monkeypatch):
    """A 1D scan builds no ball spectra and calls no numpy.fft function."""
    phi = power_law(1, 1024, 2.0, beta=0.5)
    stack = np.stack([phi.values, -2.0 * phi.values])
    monkeypatch.setattr(norms, "_BALL_SPECTRA", {})

    def forbidden(*args, **kwargs):
        raise AssertionError("a 1D scan called numpy.fft")

    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, forbidden)
    ladder = RadiusLadder.for_grid(phi)
    assert morrey_norm(phi, 1.5, 0.5, ladder) > 0.0
    assert uniform_norm(phi, 2.0) > 0.0
    assert norms._scan(phi, stack, 1.0, 0.5, ladder).shape == (2,)
    assert norms._BALL_SPECTRA == {}


def test_scan_rejects_stride_not_dividing_n():
    phi = power_law(1, 256, 1.0, beta=0.5)
    for stride in (3, 0):
        with pytest.raises(ValueError, match="stride"):
            morrey_norm(phi, 1.0, 0.5, RadiusLadder(RadiusLadder.for_grid(phi).radii, stride))
        with pytest.raises(ValueError, match="stride"):
            morrey_norm(phi, 1.0, 1.0, RadiusLadder((1.0,), stride))


def test_scan_cache_stays_within_byte_budget(monkeypatch):
    """Scanning, over and over, more grids than the ball-spectra cache
    holds gives each grid's first answer every time, and the cache stays
    within its byte budget.  Only N >= 2 scans use the ball spectra."""
    profiles = {n: np.cos(np.arange(n) * 0.37) + 1.5 for n in (16, 32, 64)}
    grids = [GridFunction(2, n, L, np.outer(c, c)) for n, c in profiles.items()
             for L in (1.0, 2.0)]
    expected = [morrey_norm(g, 1.5, 0.5) for g in grids]
    biggest = max(norms._ball_spectra(g, RadiusLadder.for_grid(g).radii, 4).nbytes for g in grids)
    monkeypatch.setattr(norms, "_CACHE_BYTES", 2 * biggest)
    monkeypatch.setattr(norms, "_BALL_SPECTRA", {})
    results = [morrey_norm(grids[i % len(grids)], 1.5, 0.5) for i in range(120)]
    assert results == [expected[i % len(grids)] for i in range(120)]
    assert sum(a.nbytes for a in norms._BALL_SPECTRA.values()) <= norms._CACHE_BYTES


# -- uniform norm ---------------------------------------------------------------


def test_uniform_examples():
    one = GridFunction.constant(1.0, 1, 4096, 8.0)
    assert uniform_norm(one, 1.0) == pytest.approx(2.0, abs=4 * one.h)
    zero = GridFunction.constant(0.0, 1, 64, 2.0)
    assert uniform_norm(zero, 1.0) == 0.0
    with pytest.raises(ValueError):
        uniform_norm(GridFunction.constant(1.0, 1, 64, 0.5), 1.0)


def test_uniform_below_morrey():
    """The unit radius sits on the ladder, so the embedding is exact."""
    for beta in (0.3, 0.5):
        phi = power_law(1, 2048, 8.0, beta=beta)
        for ell in (0.4, 0.8, 1.0):
            assert uniform_norm(phi, 1.0) <= morrey_norm(phi, 1.0, ell) + 1e-12


@pytest.mark.parametrize("N,n", [(1, 512), (2, 64)])
@pytest.mark.parametrize("stride", [1, 2, 4])
def test_uniform_matches_unit_ball_reference(rng, N, n, stride):
    phi = GridFunction(N, n, 2.0, rng.normal(size=(n,) * N))
    unit = RadiusLadder((1.0,), stride)
    for p in (1.0, 2.0, 3.0):
        value = morrey_norm(phi, p, float(N), unit)
        assert value == pytest.approx(strided_reference(phi, p, float(N), unit), rel=1e-12)
        if stride == 4:  # uniform_norm's stride
            assert uniform_norm(phi, p) == value


# -- product inequality -----------------------------------------------------------


def test_holder_examples():
    f = power_law(1, 4096, 1.0, beta=0.25)
    zero = GridFunction.constant(0.0, 1, 4096, 1.0)
    res = holder_product_check(f, zero, 2.0, 0.5, 2.0, 0.5)
    assert res.lhs == 0.0 and res.passed
    res = holder_product_check(f, f, 2.0, 0.5, 2.0, 0.5)
    assert res.z == pytest.approx(1.0) and res.nu == pytest.approx(0.5)
    assert res.passed
    # dense-scan oracle agrees on both sides
    assert res.lhs == pytest.approx(dense_scan(f * f, 1.0, 0.5), rel=1e-12)
    bump = narrow_bump(4096, 1.0, 0.3)
    res = holder_product_check(bump, f, 2.0, 0.5, 2.0, 0.5)
    assert res.passed


def test_holder_requires_conjugate():
    f = power_law(1, 256, 1.0, beta=0.25)
    with pytest.raises(ValueError):
        holder_product_check(f, f, 1.5, 0.5, 2.0, 0.5)  # w < p0' = 2
