import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import morreylab
from morreylab.checks import wrapped_poisson
from morreylab.fixtures import gaussian_bump
from morreylab.grids import GridFunction
from morreylab.semigroup import (
    SubordinatorDensity,
    _apply_multiplier,
    _validate_symbol,
    apply_semigroup,
    kernel,
    laplacian_power_symbol,
    positivity_defect,
    pseudoresolvent,
    selfsimilar_collapse,
    subordination_apply,
    symbol_from_coefficients,
)

N1 = dict(N=1, n=4096, L=8.0)


@pytest.fixture(scope="module")
def sym1():
    return laplacian_power_symbol(1, 4096, 8.0, 1)


@pytest.fixture(scope="module")
def sym2m():
    return laplacian_power_symbol(1, 4096, 8.0, 2)


# -- symbols ---------------------------------------------------------------------


def test_symbol_presets(sym1):
    assert sym1.c_ell == pytest.approx(1.0)
    assert sym1.table[0] == 0.0


def test_symbol_from_coefficients_matches_preset(sym1):
    built = symbol_from_coefficients(1, 4096, 8.0, 1, {(2,): -1.0})
    assert np.allclose(built.table, sym1.table)
    built2 = symbol_from_coefficients(2, 64, 4.0, 1, {(2, 0): -1.0, (0, 2): -1.0})
    ref2 = laplacian_power_symbol(2, 64, 4.0, 1)
    assert np.allclose(built2.table, ref2.table)


def test_symbol_ellipticity_rejected():
    with pytest.raises(ValueError):
        symbol_from_coefficients(1, 64, 4.0, 1, {(2,): 1.0})  # +Laplacian: not elliptic


def test_odd_real_symbol_rejected():
    xi = 2.0 * np.pi * np.fft.fftfreq(64, d=8.0 / 64)
    odd = xi**2 * (1.0 + 0.1 * np.sign(xi))  # elliptic, but a(-xi) != a(xi)
    with pytest.raises(ValueError, match="even"):
        _validate_symbol(1, 64, 4.0, 1, odd, False)
    even = _validate_symbol(1, 64, 4.0, 1, xi**2 * 1.5, False)
    assert even.c_ell == pytest.approx(1.5)


# -- semigroup basics -------------------------------------------------------------


def test_t_zero_is_identity(sym1):
    bump = gaussian_bump(**N1)
    out = apply_semigroup(bump, 0.0, 1.0, sym1)
    assert out is bump


def test_negative_time_rejected(sym1):
    with pytest.raises(ValueError):
        apply_semigroup(gaussian_bump(**N1), -0.1, 1.0, sym1)


def test_semigroup_law(sym1):
    bump = gaussian_bump(**N1)
    for mu in (0.5, 1.0):
        one = apply_semigroup(bump, 0.3, mu, sym1)
        two = apply_semigroup(apply_semigroup(bump, 0.1, mu, sym1), 0.2, mu, sym1)
        assert np.max(np.abs(one.values - two.values)) <= 1e-10 * np.max(np.abs(bump.values))


def test_translation_commutes(sym1):
    bump = gaussian_bump(**N1)
    shifted_then = apply_semigroup(bump.shifted(37), 0.1, 0.75, sym1)
    then_shifted = apply_semigroup(bump, 0.1, 0.75, sym1).shifted(37)
    assert np.max(np.abs(shifted_then.values - then_shifted.values)) < 1e-13


def test_times_array_matches_scalar_calls(sym1):
    bump = gaussian_bump(**N1)
    ts = np.array([0.3, 0.0, 1e-3, 0.05])
    for mu in (0.5, 1.0):
        states = apply_semigroup(bump, ts, mu, sym1)
        assert len(states) == ts.size and states[1] is bump
        for t, state in zip(ts, states):
            assert np.array_equal(state.values, apply_semigroup(bump, t, mu, sym1).values)
    sym = laplacian_power_symbol(2, 64, 4.0, 1)
    bump2 = gaussian_bump(2, 64, 4.0)
    for t, state in zip(ts, apply_semigroup(bump2, ts, 0.75, sym)):
        assert np.array_equal(state.values, apply_semigroup(bump2, t, 0.75, sym).values)
    with pytest.raises(ValueError):
        apply_semigroup(bump, np.array([0.1, -0.1]), 1.0, sym1)


def _complex_reference(u, mult):
    return np.fft.ifftn(mult * np.fft.fftn(u.values))


@pytest.mark.parametrize("N,n", [(1, 256), (2, 64)])
def test_real_path_matches_complex_reference(N, n):
    sym = laplacian_power_symbol(N, n, 4.0, 1)
    u = GridFunction(N, n, 4.0, np.random.default_rng(n).standard_normal((n,) * N))
    for t, mu in ((0.01, 1.0), (0.2, 0.5)):
        got = apply_semigroup(u, t, mu, sym).values
        want = _complex_reference(u, np.exp(-t * sym.power(mu))).real
        assert np.isrealobj(got)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("N,n", [(1, 255), (2, 63)])
def test_half_spectrum_slice_at_any_n(N, n):
    """The grids are powers of two; the transform site also takes odd n."""
    a = laplacian_power_symbol(N, n, 4.0, 1).table
    values = np.random.default_rng(n).standard_normal((n,) * N)
    [got] = _apply_multiplier(values, a, lambda half: [np.exp(-0.05 * half)])
    want = np.fft.ifftn(np.exp(-0.05 * a) * np.fft.fftn(values)).real
    assert np.isrealobj(got)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_mixed_term_symbol_is_even_off_nyquist_mean_on_it():
    """A mixed term xi_1 xi_2 is odd along the Nyquist lines, where fftfreq
    gives one sign; there the table holds the mean of the two aliases, so
    the real path applies an exactly even symbol that is still a semigroup."""
    n, coeffs = 64, {(2, 0): -1.0, (0, 2): -1.0, (1, 1): -0.5}
    sym = symbol_from_coefficients(2, n, 4.0, 1, coeffs)
    xi = 2.0 * np.pi * np.fft.fftfreq(n, d=8.0 / n)
    raw = xi[:, None] ** 2 + xi[None, :] ** 2 + 0.5 * xi[:, None] * xi[None, :]
    nyquist = np.zeros((n, n), dtype=bool)
    nyquist[n // 2, :] = nyquist[:, n // 2] = True
    reflected = raw[np.ix_(-np.arange(n) % n, -np.arange(n) % n)]
    assert np.array_equal(sym.table[~nyquist], raw[~nyquist])
    assert np.allclose(sym.table[nyquist], 0.5 * (raw + reflected)[nyquist], rtol=1e-15)
    assert not np.array_equal(raw[nyquist], reflected[nyquist])
    u = GridFunction(2, n, 4.0, np.random.default_rng(5).standard_normal((n, n)))
    for t, mu in ((0.01, 1.0), (0.05, 0.5)):
        got = apply_semigroup(u, t, mu, sym).values
        want = _complex_reference(u, np.exp(-t * sym.power(mu))).real
        assert np.isrealobj(got)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the raw table's complex path differs from it on the Nyquist modes alone
        gap = np.fft.fftn(got - _complex_reference(u, np.exp(-t * raw**mu)).real)
        assert np.max(np.abs(gap[~nyquist])) <= 1e-12 * np.max(np.abs(gap))
    twice = apply_semigroup(apply_semigroup(u, 0.01, 0.5, sym), 0.01, 0.5, sym).values
    once = apply_semigroup(u, 0.02, 0.5, sym).values
    assert np.max(np.abs(twice - once)) <= 1e-13 * np.max(np.abs(once))


def test_complex_datum_or_symbol_stays_complex(sym1):
    bump = gaussian_bump(**N1)
    twisted = GridFunction(1, 4096, 8.0, bump.values * np.exp(1j * bump.axis()))
    got = apply_semigroup(twisted, 0.1, 1.0, sym1).values
    want = _complex_reference(twisted, np.exp(-0.1 * sym1.table))
    assert np.iscomplexobj(got)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    rotated = symbol_from_coefficients(1, 4096, 8.0, 1, {(2,): -(1.0 + 0.5j)})
    got = apply_semigroup(bump, 0.1, 1.0, rotated).values
    want = _complex_reference(bump, np.exp(-0.1 * rotated.table))
    assert np.iscomplexobj(got) and np.max(np.abs(got.imag)) > 1e-3
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_constant_is_preserved(sym1):
    one = GridFunction.constant(1.0, **N1)
    out = apply_semigroup(one, 0.7, 0.5, sym1)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


# -- kernels -----------------------------------------------------------------------


def test_kernel_gaussian_oracle(sym1):
    t = 0.25
    k = kernel(t, 1.0, sym1)
    x = k.grid.axis()
    exact = np.exp(-(x**2) / (4 * t)) / math.sqrt(4 * math.pi * t)
    sel = np.abs(x) <= 4.0
    rel = np.max(np.abs(k.grid.values[sel] - exact[sel]) / exact[sel])
    assert rel <= 1e-6


def test_kernel_poisson_oracle(sym1):
    t = 0.5
    k = kernel(t, 0.5, sym1)
    x = k.grid.axis()
    exact = wrapped_poisson(x, t, 8.0)
    sel = np.abs(x) <= 4.0
    assert np.max(np.abs(k.grid.values[sel] - exact[sel]) / exact[sel]) <= 1e-4


def test_wrapped_poisson_matches_lattice_sum():
    x = np.linspace(-4, 4, 101)
    lattice = sum((1 / math.pi) * 0.5 / (0.25 + (x - 16 * n) ** 2) for n in range(-400, 401))
    assert np.max(np.abs(wrapped_poisson(x, 0.5, 8.0) - lattice)) < 1e-4


def test_kernel_mass_and_positivity(sym1):
    for mu in (0.5, 0.75, 1.0):
        k = kernel(0.02, mu, sym1)
        assert abs(k.grid.mass() - 1.0) <= 1e-8
        assert positivity_defect(k.grid) >= -1e-9


def test_kernel_under_resolved(sym1):
    with pytest.raises(ValueError):
        kernel(1e-7, 1.0, sym1)


def test_kernel_2d_spot_check():
    sym = laplacian_power_symbol(2, 256, 8.0, 1)
    t = 0.25
    k = kernel(t, 1.0, sym)
    assert abs(k.grid.mass() - 1.0) <= 1e-8
    assert positivity_defect(k.grid) >= -1e-9
    ax = k.grid.axis()
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    exact = np.exp(-(X**2 + Y**2) / (4 * t)) / (4 * math.pi * t)
    sel = np.maximum(np.abs(X), np.abs(Y)) <= 3.0
    rel = np.max(np.abs(k.grid.values[sel] - exact[sel]) / exact[sel])
    assert rel <= 1e-6


def test_gaussian_decay_envelope(sym2m):
    """Fitted c > 0 with |K(y)| <= exp(-c |y|^{2m/(2m-1)}) on the resolved range."""
    k = kernel(0.04, 1.0, sym2m)
    y, K = k.profile()
    peak = np.max(np.abs(K))
    sel = (np.abs(K) > 1e-12 * peak) & (np.abs(y) > 0.5)
    expo = 2 * 2 / (2 * 2 - 1)  # m = 2
    c_fit = np.min(-np.log(np.abs(K[sel])) / np.abs(y[sel]) ** expo)
    assert c_fit > 0.0
    assert np.all(np.abs(K[sel]) <= np.exp(-c_fit * np.abs(y[sel]) ** expo) * (1 + 1e-9))


def test_selfsimilar_collapse(sym1, sym2m):
    assert selfsimilar_collapse([kernel(0.02, 1.0, sym1)]) == 0.0
    res1 = selfsimilar_collapse([kernel(t, 1.0, sym1) for t in (0.01, 0.04)])
    assert res1 <= 1e-3
    res2 = selfsimilar_collapse([kernel(t, 1.0, sym2m) for t in (0.01, 0.04)])
    assert res2 <= 1e-2


def test_smoothing_rate_on_dirac(sym1):
    delta = GridFunction.dirac(**N1)
    ts = np.logspace(-3, -1, 9)
    sups = [np.max(np.abs(apply_semigroup(delta, t, 1.0, sym1).values)) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(sups), 1)[0]
    assert slope == pytest.approx(-0.5, rel=0.03)


# -- subordination ------------------------------------------------------------------


def test_subordinator_density():
    dens = SubordinatorDensity.build()
    assert abs(dens.weights.sum() - 1.0) <= 1e-6
    # nodes carry the closed-form density consistently: first moment of
    # s^{-1/2} under f equals 1 (Laplace transform value at 1/4... use a
    # known integral: E[e^{-s}] = e^{-1} for the 1/2-stable law)
    val = float(np.sum(dens.weights * np.exp(-dens.nodes)))
    assert val == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_subordination_zero_and_constant(sym1):
    zero = GridFunction.constant(0.0, **N1)
    assert np.all(subordination_apply(zero, 0.5, sym1).values == 0.0)
    one = GridFunction.constant(1.0, **N1)
    out = subordination_apply(one, 0.5, sym1)
    assert np.max(np.abs(out.values - 1.0)) < 1e-6


def test_subordination_matches_multiplier(sym1):
    delta = GridFunction.dirac(**N1)
    direct = apply_semigroup(delta, 0.5, 0.5, sym1)
    sub = subordination_apply(delta, 0.5, sym1)
    rel_l1 = np.sum(np.abs(direct.values - sub.values)) / np.sum(np.abs(direct.values))
    assert rel_l1 <= 1e-3


def test_subordination_half_spectrum_matches_full(sym1):
    bump = gaussian_bump(**N1)
    dens = SubordinatorDensity.build()
    t = 0.5
    mult = sum(w * np.exp(-s * t * t * sym1.table) for s, w in zip(dens.nodes, dens.weights))
    want = _complex_reference(bump, mult).real
    got = subordination_apply(bump, t, sym1, dens).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# -- pseudoresolvent -----------------------------------------------------------------


def test_pseudoresolvent_spectral_identity(sym1):
    bump = gaussian_bump(**N1)
    for mu, lam in ((1.0, -0.5 + 0.3j), (1.0, -2.0), (0.5, -1.0)):
        G = pseudoresolvent(bump, lam, mu, sym1)
        got = np.fft.fftn(G.values)
        want = np.fft.fftn(bump.values) / (sym1.power(mu) - lam)
        sig = np.abs(want) >= 1e-10 * np.abs(want).max()
        assert np.max(np.abs(got[sig] - want[sig]) / np.abs(want[sig])) <= 1e-6


def test_pseudoresolvent_real_only_for_real_lambda(sym1):
    bump = gaussian_bump(**N1)
    assert np.isrealobj(pseudoresolvent(bump, -2.0, 1.0, sym1).values)
    assert np.iscomplexobj(pseudoresolvent(bump, -2.0 + 0.5j, 1.0, sym1).values)


def test_pseudoresolvent_zero_and_bound(sym1):
    zero = GridFunction.constant(0.0, **N1)
    assert np.all(pseudoresolvent(zero, -1.0, 1.0, sym1).values == 0.0)
    bump = gaussian_bump(**N1)
    lam = -0.5
    G = pseudoresolvent(bump, lam, 1.0, sym1)
    l2 = lambda g: math.sqrt(np.sum(np.abs(g.values) ** 2) * g.h)
    assert l2(G) <= l2(bump) / abs(lam) * (1 + 1e-9)


def test_pseudoresolvent_margin(sym1):
    with pytest.raises(ValueError):
        pseudoresolvent(gaussian_bump(**N1), -0.05, 1.0, sym1, margin=0.1)


# -- trace -----------------------------------------------------------------------------


def test_trace_to_initial_data(sym1):
    bump = gaussian_bump(**N1)
    sel = bump.radii() <= 4.0
    prev = math.inf
    for k in range(4, 13):
        diff = apply_semigroup(bump, 2.0**-k, 1.0, sym1) - bump
        err = float(np.sum(np.abs(diff.values[sel])) * bump.h)
        assert err <= prev * (1 + 1e-9)
        prev = err
    ref = float(np.sum(np.abs(bump.values[sel])) * bump.h)
    assert prev < 1e-3 * ref


# -- start-up --------------------------------------------------------------------------


def test_cli_import_skips_scipy_optimize():
    src = str(Path(morreylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, morreylab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
