"""Spectral engine for the unperturbed fractional diffusion semigroup.

On the periodic box the constant-coefficient operator is diagonal in
Fourier space, so e^{-t A^mu} u0 is computed by multiplying the DFT of
u0 with e^{-t a(xi)^mu}.  One Fourier convention holds here and in
`duhamel`: real data under a real symbol take the real transforms, with
every multiplier built on the half spectrum a[..., : n//2 + 1] (which
needs a real table even under xi -> -xi, as `_validate_symbol` makes it);
anything complex takes the full complex transforms.  Kernels are the
image of a unit-mass discrete Dirac, the mu = 1/2 evolution can be
cross-checked by averaging the full-power semigroup against the
one-sided stable density, and the Laplace transform of the evolution
gives the numerical pseudoresolvent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grids import GridFunction

__all__ = [
    "SymbolSpec",
    "laplacian_power_symbol",
    "apply_semigroup",
    "KernelTable",
    "kernel",
    "selfsimilar_collapse",
    "SubordinatorDensity",
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
    is_preset: bool
    c_ell: float

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    def compatible_with(self, u: GridFunction) -> bool:
        return (self.N, self.n) == (u.N, u.n) and abs(self.L - u.L) < 1e-12 * self.L

    def power(self, mu: float) -> np.ndarray:
        """Principal-branch fractional power a(xi)^mu."""
        if np.isrealobj(self.table):
            return self.table**mu
        return np.power(self.table.astype(complex), mu)


def _validate_symbol(N, n, L, m, table, is_preset) -> SymbolSpec:
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
    if is_preset and abs(complex(table[(0,) * N])) > 1e-14:
        raise ValueError("preset symbol must vanish at zero frequency")
    table.setflags(write=False)
    return SymbolSpec(N, n, L, m, table, is_preset, c_ell)


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
    return _validate_symbol(N, n, L, m, table, True)


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
    return _validate_symbol(N, n, L, m, table, False)


def _apply_multiplier(values: np.ndarray, a: np.ndarray, multipliers) -> list[np.ndarray]:
    """The grid values under each multiplier that multipliers(a) yields,
    all from one forward transform.

    Real values with a real table take rfftn/irfftn, and `multipliers`
    sees only the half spectrum a[..., : n//2 + 1]; anything complex takes
    the full transforms.  Multipliers and inverses run one at a time.
    """
    axes = tuple(range(values.ndim))
    if np.isrealobj(values) and np.isrealobj(a):
        a = a[..., : values.shape[-1] // 2 + 1]
        spec = np.fft.rfftn(values, axes=axes)
        inverse = functools.partial(np.fft.irfftn, s=values.shape, axes=axes)
    else:
        spec = np.fft.fftn(values, axes=axes)
        inverse = functools.partial(np.fft.ifftn, axes=axes)
    return [inverse(mult * spec) for mult in multipliers(a)]


def apply_semigroup(u0: GridFunction, t: float | np.ndarray, mu: float,
                    symbol: SymbolSpec) -> GridFunction | list[GridFunction]:
    """e^{-t a(xi)^mu} acting on u0; t = 0 returns u0 unchanged.

    A 1-D array of times gives a list with one state per time, each equal
    to its scalar call, from one power of the symbol and one forward
    transform of u0.
    """
    if not (0.0 < mu <= 1.0):
        raise ValueError("mu must lie in (0, 1]")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if times.ndim != 1:
        raise ValueError("times must be a scalar or a 1-D array")
    if np.any(times < 0.0):
        raise ValueError("negative time")
    if not symbol.compatible_with(u0):
        raise ValueError("grid/symbol mismatch")
    out = [u0] * times.size
    moved = np.flatnonzero(times)
    if moved.size:
        states = _apply_multiplier(u0.values, symbol.power(mu),
                                   lambda a: (np.exp(-s * a) for s in times[moved]))
        for k, values in zip(moved, states):
            out[k] = GridFunction(u0.N, u0.n, u0.L, values)
    return out if np.ndim(t) else out[0]


@dataclass(frozen=True)
class KernelTable:
    """Kernel slice k(t, ., 0) with its scaling metadata."""

    grid: GridFunction
    t: float
    mu: float
    m: int

    @property
    def scale(self) -> float:
        """Self-similar length t^{1/(2 m mu)}."""
        return self.t ** (1.0 / (2.0 * self.m * self.mu))

    def profile(self) -> tuple[np.ndarray, np.ndarray]:
        """Rescaled profile K(y) = t^{N/(2 m mu)} k(t, y * scale), as (y, K)."""
        g = self.grid
        amp = self.t ** (g.N / (2.0 * self.m * self.mu))
        if g.N == 1:
            order = np.argsort(g.axis())
            return g.axis()[order] / self.scale, amp * np.real(g.values)[order]
        # 2D: profile along the first axis through the origin
        row = np.real(g.values[:, g.n // 2])
        order = np.argsort(g.axis())
        return g.axis()[order] / self.scale, amp * row[order]


def kernel(t: float, mu: float, symbol: SymbolSpec) -> KernelTable:
    """Semigroup kernel as the image of the unit-mass discrete Dirac."""
    if t <= 0.0:
        raise ValueError("kernel needs t > 0")
    if t ** (1.0 / (2.0 * symbol.m * mu)) < 4.0 * symbol.h:
        raise ValueError(
            f"kernel under-resolved: t^(1/2m mu) = {t ** (1.0 / (2.0 * symbol.m * mu)):.3e} "
            f"below 4h = {4.0 * symbol.h:.3e}"
        )
    delta = GridFunction.dirac(symbol.N, symbol.n, symbol.L)
    return KernelTable(apply_semigroup(delta, t, mu, symbol), t, mu, symbol.m)


def selfsimilar_collapse(kernels) -> float:
    """Max pairwise relative L^1 discrepancy of the rescaled kernel profiles.

    Profiles are linearly resampled onto the abscissae of the coarsest
    (largest-t) kernel, restricted to the range every profile covers.
    """
    kernels = list(kernels)
    if not kernels:
        raise ValueError("no kernels")
    if len(kernels) == 1:
        return 0.0
    profiles = [k.profile() for k in kernels]
    ref_y = profiles[int(np.argmax([k.t for k in kernels]))][0]
    lo = max(y.min() for y, _ in profiles)
    hi = min(y.max() for y, _ in profiles)
    sel = (ref_y >= lo) & (ref_y <= hi)
    if not np.any(sel):
        raise ValueError("profiles share no resolved range")
    ys = ref_y[sel]
    resampled = [np.interp(ys, y, K) for y, K in profiles]
    worst = 0.0
    for i in range(len(resampled)):
        for j in range(i + 1, len(resampled)):
            denom = np.trapezoid(np.abs(resampled[i]), ys)
            disc = np.trapezoid(np.abs(resampled[i] - resampled[j]), ys) / denom
            worst = max(worst, float(disc))
    return worst


@dataclass(frozen=True)
class SubordinatorDensity:
    """Quadrature for the one-sided stable density at power one half,

        f(s) = (1/(2 sqrt(pi))) s^{-3/2} exp(-1/(4 s)).

    Nodes and weights realize integral f(s) F(s) ds ~ sum w_j F(s_j);
    the substitution u = 1/(2 sqrt(s)) turns the heavy tail into a
    Gaussian integral, so Gauss-Legendre in u converges fast.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @staticmethod
    def density(s):
        s = np.asarray(s, dtype=float)
        return 0.5 / math.sqrt(math.pi) * s**-1.5 * np.exp(-0.25 / s)

    @classmethod
    def build(cls, n_nodes: int = 200, u_max: float = 8.0) -> "SubordinatorDensity":
        x, w = leggauss(n_nodes)
        u = 0.5 * u_max * (x + 1.0)
        wu = 0.5 * u_max * w
        nodes = 0.25 / u**2
        weights = 2.0 / math.sqrt(math.pi) * np.exp(-(u**2)) * wu
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"truncated density mass {total} off unity by more than 1e-6")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        return cls(nodes, weights)


def subordination_apply(u0: GridFunction, t: float, symbol: SymbolSpec,
                        density: SubordinatorDensity | None = None) -> GridFunction:
    """The mu = 1/2 semigroup via subordination of the full-power one:

        S_{1/2}(t) u0 = integral f(s) S_1(s t^2) u0 ds.
    """
    if t <= 0.0:
        raise ValueError("subordination needs t > 0")
    if density is None:
        density = SubordinatorDensity.build()

    def multiplier(a):
        yield sum(w * np.exp(-s * t * t * a) for s, w in zip(density.nodes, density.weights))

    [values] = _apply_multiplier(u0.values, symbol.power(1.0), multiplier)
    return GridFunction(u0.N, u0.n, u0.L, values)


def pseudoresolvent(u0: GridFunction, lam: complex, mu: float, symbol: SymbolSpec,
                    margin: float = 0.1, nodes_per_decade: int = 48,
                    tail_cut: float = 1e-12) -> GridFunction:
    """Truncated Laplace transform G(lam) u0 = integral e^{lam t} S(t) u0 dt.

    Trapezoid in log-time on a geometric grid, with the initial segment
    [0, t_min] integrated by one linear panel and the tail cut where
    e^{Re lam t} drops below `tail_cut`.  Requires Re lam <= -margin.
    """
    lam = complex(lam)
    if lam.real > -margin:
        raise ValueError(f"Re(lambda) = {lam.real} violates the margin {-margin}")
    a_mu = symbol.power(mu)
    sigma_max = float(np.max(np.real(a_mu))) + abs(lam.real)
    t_min = min(1e-3, 1.0 / sigma_max) * 1e-4
    t_max = math.log(1.0 / tail_cut) / abs(lam.real)
    decades = math.log10(t_max / t_min)
    k = max(2, int(math.ceil(decades * nodes_per_decade)) + 1)
    tau = np.linspace(math.log(t_min), math.log(t_max), k)
    ts = np.exp(tau)
    dtau = tau[1] - tau[0]
    w = np.full(k, dtau)
    w[0] = w[-1] = 0.5 * dtau
    weights = w * ts  # trapezoid in log-time: dt = t dtau

    # a real lambda keeps the multiplier real, for the half-spectrum path
    if lam.imag == 0.0:
        lam = lam.real
    else:
        a_mu = a_mu.astype(complex)

    def multiplier(a):
        mult = sum(wt * np.exp((lam - a) * t) for t, wt in zip(ts, weights))
        # linear panel on [0, t_min]
        yield mult + 0.5 * t_min * (1.0 + np.exp((lam - a) * t_min))

    [values] = _apply_multiplier(u0.values, a_mu, multiplier)
    return GridFunction(u0.N, u0.n, u0.L, values)


def positivity_defect(u: GridFunction) -> float:
    """min(0, min u): how far the values dip below zero."""
    return float(min(0.0, np.min(np.real(u.values))))
