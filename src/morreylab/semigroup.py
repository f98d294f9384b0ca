"""Spectral engine for the unperturbed fractional diffusion semigroup.

On the periodic box the constant-coefficient operator is diagonal in
Fourier space, so e^{-t A^mu} u0 is computed by multiplying the DFT of
u0 with e^{-t a(xi)^mu}.  One Fourier convention, `_fourier_basis`,
serves every multiplier here and the march in `duhamel`: real data under
a real symbol take the real transforms, with every multiplier built on
the half spectrum a[..., : n//2 + 1] (which needs a real table even
under xi -> -xi, as `_validate_symbol` makes it); anything complex takes
the full complex transforms.  The power a^mu is taken only on the part
of the table the transforms read.  Given an array of times,
`apply_semigroup` returns an iterator: one forward transform of u0 at
the call, then one inverse transform per state as the caller asks for
it, so a caller that reduces each state as it arrives holds one
grid-sized state at a time.  A kernel is the grid function that the
semigroup makes of a unit-mass discrete Dirac, and `selfsimilar_collapse`
builds its own kernels and rescales each to its profile.  The mu = 1/2
evolution can be cross-checked by averaging the full-power semigroup
over the nodes and weights of `subordinator_rule`, a quadrature for the
one-sided stable density, and the pseudoresolvent, the Laplace transform
of the evolution, is the multiplier 1/(a(xi)^mu - lam).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grids import GridFunction, _check_points, same_grid

__all__ = [
    "SymbolSpec",
    "laplacian_power_symbol",
    "apply_semigroup",
    "kernel",
    "selfsimilar_collapse",
    "subordinator_rule",
    "subordination_apply",
    "pseudoresolvent",
    "positivity_defect",
]


def _freq_axis(n: int, L: float) -> np.ndarray:
    """Angular frequencies of the 2L-periodic DFT, xi_k = pi k / L."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * L / n)


@dataclass(frozen=True)
class SymbolSpec:
    """Constant-coefficient symbol a(xi) tabulated on the frequency grid.

    Presets are (-Laplacian)^m with a(xi) = |xi|^{2m}.  Explicit
    coefficient tables {zeta: a_zeta} over multi-indices |zeta| = 2m give
    a(xi) = sum a_zeta (i xi)^zeta; construction fails unless the grid
    ellipticity constant min Re a(xi)/|xi|^{2m} is positive.
    """

    N: int
    n: int
    L: float
    m: int
    table: np.ndarray
    c_ell: float

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    def require_agreement(self, u: GridFunction, dims=None) -> None:
        """Raise ValueError, before any transform, unless the datum u lives on
        this symbol's grid (N, n, L) and, given dims, the symbol has its N and m:
        every entry that applies a symbol to a datum calls this."""
        if not same_grid(self.N, self.n, self.L, u):
            raise ValueError(f"grid/symbol mismatch: symbol on (N, n, L) = "
                             f"{(self.N, self.n, self.L)}, datum on {(u.N, u.n, u.L)}")
        if dims is not None and (self.N, self.m) != (dims.N, dims.m):
            raise ValueError(f"symbol/dims mismatch: symbol of (N, m) = {(self.N, self.m)}, "
                             f"dims of {(dims.N, dims.m)}")

    def power(self, mu: float) -> np.ndarray:
        """Principal-branch fractional power a(xi)^mu."""
        return _power(self.table, mu)


def _power(a: np.ndarray, mu: float) -> np.ndarray:
    """Principal-branch fractional power of a symbol table, or of a slice of one."""
    return a**mu if np.isrealobj(a) else np.power(a.astype(complex), mu)


def _validate_symbol(N, n, L, m, table) -> SymbolSpec:
    _check_points(n)
    if np.isrealobj(table) or np.max(np.abs(np.imag(table))) == 0.0:
        table = _even_part(np.real(table))
    xi = _freq_axis(n, L)
    if N == 1:
        mod2 = xi**2
    else:
        mod2 = xi[:, None] ** 2 + xi[None, :] ** 2
    nz = mod2 > 0
    ratio = np.real(table[nz]) / mod2[nz] ** m
    c_ell = float(ratio.min()) if ratio.size else 0.0
    if c_ell <= 0.0:
        raise ValueError(f"symbol is not uniformly elliptic on the grid (c_ell={c_ell:.3e})")
    table.setflags(write=False)
    return SymbolSpec(N, n, L, m, table, c_ell)


def _even_part(table: np.ndarray) -> np.ndarray:
    """A real table made exactly even under xi -> -xi, the index reflection
    k -> -k mod n on every axis, which the half-spectrum transforms assume.

    For even n the Nyquist index n/2 is its own reflection, but it carries
    the one frequency -pi n / (2L), so a mixed term such as xi_1 xi_2 is not
    even along the Nyquist lines; there the table takes the mean of the two
    aliases.  Anywhere else the table must already be even.
    """
    axes = tuple(range(table.ndim))
    reflected = np.roll(np.flip(table, axes), 1, axes)
    uneven = table != reflected
    if table.shape[0] % 2 == 0:
        for ax in axes:
            uneven[(slice(None),) * ax + (table.shape[0] // 2,)] = False
    if np.any(uneven):
        raise ValueError("a real symbol table must be even under xi -> -xi")
    return 0.5 * (table + reflected)


def laplacian_power_symbol(N: int, n: int, L: float, m: int = 1) -> SymbolSpec:
    """Preset symbol of (-Laplacian)^m on the grid."""
    xi = _freq_axis(n, L)
    if N == 1:
        table = np.abs(xi) ** (2 * m)
    else:
        table = (xi[:, None] ** 2 + xi[None, :] ** 2) ** m
    return _validate_symbol(N, n, L, m, table)


def symbol_from_coefficients(N: int, n: int, L: float, m: int, coeffs: dict) -> SymbolSpec:
    """Symbol sum_{|zeta|=2m} a_zeta (i xi)^zeta from a coefficient table.

    Keys are multi-indices (length-N tuples of nonnegative ints summing
    to 2m); an int key is accepted for N = 1.
    """
    xi = _freq_axis(n, L)
    axes = [xi] if N == 1 else [xi[:, None] * np.ones(n), np.ones(n)[:, None] * xi]
    table = np.zeros((n,) * N, dtype=complex)
    for zeta, a in coeffs.items():
        zeta = (int(zeta),) if np.isscalar(zeta) else tuple(int(z) for z in zeta)
        if len(zeta) != N or any(z < 0 for z in zeta):
            raise ValueError(f"bad multi-index {zeta}")
        if sum(zeta) != 2 * m:
            raise ValueError(f"multi-index {zeta} has order {sum(zeta)}, expected {2 * m}")
        mono = np.ones((n,) * N, dtype=complex)
        for ax, z in zip(axes, zeta):
            mono = mono * (1j * ax) ** z
        table = table + a * mono
    return _validate_symbol(N, n, L, m, table)


def _fourier_basis(a: np.ndarray, real: bool, mu: float = 1.0):
    """The basis where the symbol table a acts pointwise, as (rates, forward,
    inverse): `forward` maps a stack (m, n, ..., n) of states to (m, F)
    coefficients, `inverse` maps them back, and rates is a^mu on those F.
    `real` data and table take the real transforms on the half spectrum
    (one-axis ones in 1D), and the power is taken after the table is cut to
    it; otherwise every transform is complex."""
    N, shape = a.ndim, a.shape
    kw = {"axes": tuple(range(1, N + 1))}
    if real:
        a = a[..., : shape[-1] // 2 + 1]
        forward, inverse = np.fft.rfftn, functools.partial(np.fft.irfftn, s=shape)
        if N == 1:
            forward, inverse, kw = np.fft.rfft, functools.partial(np.fft.irfft, n=shape[0]), {}
    else:
        forward, inverse = np.fft.fftn, np.fft.ifftn
    spec = a.shape
    return (_power(a, mu).ravel(),
            lambda x: forward(x, **kw).reshape(len(x), -1),
            lambda y: inverse(y.reshape((len(y),) + spec), **kw))


def _apply_multiplier(values: np.ndarray, a: np.ndarray, multipliers, mu: float = 1.0):
    """An iterator over the grid values under each multiplier that
    multipliers(rates) yields, rates being a^mu in `_fourier_basis`, real
    when values and table both are.  The one forward transform runs at the
    call; each multiplier and its inverse transform run only when the
    iterator reaches them.  Every product of a multiplier with the spectrum
    is formed in one buffer, and only the yielded states are new arrays:
    even with freed pages kept in the heap (`heap`), a fresh product and
    decay per state made spectral_fine slower, by up to 11% in 3 of 4
    pairs (`BENCH_heap.json`)."""
    rates, forward, inverse = _fourier_basis(a, np.isrealobj(values) and np.isrealobj(a), mu)
    spec = forward(values[None])
    product = np.empty_like(spec)
    return map(lambda mult: inverse(np.multiply(mult, spec, out=product))[0], multipliers(rates))


def apply_semigroup(u0: GridFunction, t: float | np.ndarray, mu: float,
                    symbol: SymbolSpec) -> GridFunction | Iterator[GridFunction]:
    """e^{-t a(xi)^mu} acting on u0; t = 0 returns u0 unchanged.

    A 1-D array of times gives an iterator over the states in the order of
    the times, each equal to its scalar call; a zero time yields u0 itself.
    mu, the times and the symbol are checked, and the one forward transform
    of u0 is taken, at the call.  Each state's inverse transform runs only
    when the iterator reaches it, and the iterator keeps no state it has
    yielded: a caller that needs them all builds the list.
    """
    if not (0.0 < mu <= 1.0):
        raise ValueError("mu must lie in (0, 1]")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1:
        raise ValueError("times must be a scalar or a 1-D array")
    if np.any(times < 0.0):
        raise ValueError("negative time")
    symbol.require_agreement(u0)
    moved, values = times[times > 0.0], iter(())

    def decays(a):  # e^{-s a}, each in the one buffer the product reads before the next
        buf = np.empty_like(a)
        for s in moved:
            yield np.exp(np.multiply(-s, a, out=buf), out=buf)

    if moved.size:
        values = _apply_multiplier(u0.values, symbol.table, decays, mu)
    states = (GridFunction(u0.N, u0.n, u0.L, next(values)) if s > 0.0 else u0 for s in times)
    return states if np.ndim(t) else next(states)


def kernel(t: float, mu: float, symbol: SymbolSpec) -> GridFunction:
    """Semigroup kernel k(t, .) as the image of the unit-mass discrete Dirac;
    refused unless its scale t^{1/(2 m mu)} clears 4h."""
    if t <= 0.0:
        raise ValueError("kernel needs t > 0")
    scale = t ** (1.0 / (2.0 * symbol.m * mu))
    if scale < 4.0 * symbol.h:
        raise ValueError(f"kernel under-resolved: t^(1/2m mu) = {scale:.3e} "
                         f"below 4h = {4.0 * symbol.h:.3e}")
    return apply_semigroup(GridFunction.dirac(symbol.N, symbol.n, symbol.L), t, mu, symbol)


def selfsimilar_collapse(ts, mu: float, symbol: SymbolSpec) -> float:
    """Max pairwise relative L^1 discrepancy of the kernels at the times ts,
    each rescaled to its profile K(y) = t^{N/(2 m mu)} k(t, y t^{1/(2 m mu)})
    (in 2D along the first axis through the origin).

    Profiles are linearly resampled onto the abscissae of the largest-t
    profile, the narrowest range, which every other profile covers.  Each
    profile is formed only when it is resampled and dropped after.
    """
    kernels = [kernel(t, mu, symbol) for t in ts]
    if not kernels:
        raise ValueError("no times")
    power = 1.0 / (2.0 * symbol.m * mu)
    ys = kernels[0].axis() / max(ts) ** power

    def resample(t, k):
        values = k.values if k.N == 1 else k.values[:, k.n // 2]
        amp = t ** (k.N / (2.0 * symbol.m * mu))
        return np.interp(ys, k.axis() / t**power, amp * np.real(values))

    resampled = [resample(t, k) for t, k in zip(ts, kernels)]
    worst = 0.0
    for i in range(len(resampled)):
        denom = np.trapezoid(np.abs(resampled[i]), ys)
        for j in range(i + 1, len(resampled)):
            disc = np.trapezoid(np.abs(resampled[i] - resampled[j]), ys) / denom
            worst = max(worst, float(disc))
    return worst


def subordinator_rule() -> tuple[np.ndarray, np.ndarray]:
    """Quadrature (nodes, weights) for the one-sided stable density at
    power one half,

        f(s) = (1/(2 sqrt(pi))) s^{-3/2} exp(-1/(4 s)),

    so that integral f(s) F(s) ds ~ sum w_j F(s_j).  The substitution
    u = 1/(2 sqrt(s)) turns the heavy tail into a Gaussian integral, so
    200 Gauss-Legendre nodes on u in [0, 8] converge fast.
    """
    x, w = leggauss(200)
    u = 4.0 * (x + 1.0)
    nodes = 0.25 / u**2
    weights = 2.0 / math.sqrt(math.pi) * np.exp(-(u**2)) * (4.0 * w)
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"truncated density mass {total} off unity by more than 1e-6")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def subordination_apply(u0: GridFunction, t: float, symbol: SymbolSpec) -> GridFunction:
    """The mu = 1/2 semigroup via subordination of the full-power one:

        S_{1/2}(t) u0 = integral f(s) S_1(s t^2) u0 ds,

    on the nodes of subordinator_rule(), summed only where
    min(s) t^2 Re a <= 746: elsewhere every term is 0.
    """
    if t <= 0.0:
        raise ValueError("subordination needs t > 0")
    symbol.require_agreement(u0)
    nodes, weights = subordinator_rule()

    def multiplier(a):
        live = nodes.min() * t * t * np.real(a) <= 746.0
        mult = np.zeros_like(a)
        mult[live] = sum(w * np.exp(-s * t * t * a[live]) for s, w in zip(nodes, weights))
        yield mult

    [values] = _apply_multiplier(u0.values, symbol.table, multiplier)
    return GridFunction(u0.N, u0.n, u0.L, values)


def pseudoresolvent(u0: GridFunction, lam: complex, mu: float, symbol: SymbolSpec) -> GridFunction:
    """G(lam) u0 = integral_0^inf e^{lam t} S(t) u0 dt, exactly: the
    multiplier 1/(a(xi)^mu - lam).  Requires Re lam <= -0.1.
    """
    lam = complex(lam)
    if lam.real > -0.1:
        raise ValueError(f"Re(lambda) = {lam.real} violates the margin -0.1")
    symbol.require_agreement(u0)
    values = u0.values
    # a real lambda keeps the multiplier real, for the half-spectrum path
    if lam.imag == 0.0:
        lam = lam.real
    else:
        values = values.astype(complex)
    [values] = _apply_multiplier(values, symbol.table, lambda a: [1.0 / (a - lam)], mu)
    return GridFunction(u0.N, u0.n, u0.L, values)


def positivity_defect(u: GridFunction) -> float:
    """min(0, min u): how far the values dip below zero."""
    return float(min(0.0, np.min(np.real(u.values))))
