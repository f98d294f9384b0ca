"""Discrete Morrey and uniform-Lebesgue norm estimators.

The sup over ball centers and radii is discretized by a geometric
radius ladder and strided centers, so every estimator here is a lower
bound of the true sup.  The torus wrap distance is used throughout so
semigroup output can be normed directly.  One scan serves a single
state or a stack of them, and forms w = |phi|^p h^N once:

- N = 1: every ball is a cyclic interval of grid points, so its sum at
  every strided center is the difference of two strided slices of one
  cumulative sum of the cyclically padded w; no transform is taken.
- N >= 2: ball sums for all centers are circular convolutions of w with
  the ball indicators (discs), done with one forward FFT and inverse
  transforms evaluated only at the strided centers, for a batch of
  radii at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import GridFunction, grid_radii, wrap_offsets

__all__ = [
    "RadiusLadder",
    "lp_ball_norm",
    "morrey_norm",
    "uniform_norm",
    "HolderCheck",
    "holder_product_check",
]

# Ball spectra (N >= 2) are cached per grid, ladder and stride; the least
# recently used are evicted to keep the cache under _CACHE_BYTES.  A scan
# processes its radii in chunks whose folded spectra and sums stay under
# _BLOCK_BYTES.
_BALL_SPECTRA: dict = {}
_CACHE_BYTES = 64 << 20
_BLOCK_BYTES = 4 << 20
# the center stride of the default ladder and of the uniform norm
_STRIDE = 4


@dataclass(frozen=True)
class RadiusLadder:
    """A radius sequence plus a center stride.

    `for_grid` builds the default ladder: radii from 2h to the box
    half-width L in ratios of sqrt(2), with R = 1 spliced in when it falls
    inside that range so that the embedding into the uniform space is
    exact at the estimator level, and every 4th center.
    """

    radii: tuple
    stride: int

    @classmethod
    def for_grid(cls, g: GridFunction) -> "RadiusLadder":
        r_min, r_max, ratio = 2.0 * g.h, g.L, math.sqrt(2.0)
        radii = [r_min]
        while radii[-1] * ratio < r_max * (1.0 - 1e-12):
            radii.append(radii[-1] * ratio)
        if radii[-1] < r_max:
            radii.append(r_max)
        if r_min <= 1.0 <= r_max and not any(abs(r - 1.0) < 1e-12 for r in radii):
            radii.append(1.0)
        return cls(tuple(sorted(radii)), _STRIDE)


def _ball_mask(r: np.ndarray, radius: float) -> np.ndarray:
    """Indicator of the wrap-distance ball of the given radius around the
    origin, from the distances r = g.radii() of the grid points."""
    return r <= radius + 1e-12 * max(1.0, radius)


@functools.lru_cache(maxsize=32)
def _windows(n: int, L: float, radii: tuple) -> tuple:
    """The 1D balls of the ladder as windows: (before, after) when the ball
    around center c holds the points c - before .. c + after (cyclically),
    None when it holds the whole torus."""
    r = grid_radii(1, n, L)
    windows = []
    for radius in radii:
        inside = np.flatnonzero(_ball_mask(r, radius))
        # the ball is the interval n/2 - a .. n/2 + b around the origin
        # sample; the convolution sums w[c - d] over its offsets d
        windows.append(None if inside.size == n else
                       (int(inside[-1]) - n // 2, n // 2 - int(inside[0])))
    return tuple(windows)


def _aliased(spec: np.ndarray, stride: int, N: int) -> np.ndarray:
    """View the trailing n^N axes of a spectrum with each frequency k split
    as q*m + j (m = n/stride): axes (..., q1, j1, ..., qN, jN), last j only
    up to m/2."""
    m = spec.shape[-1] // stride
    return spec.reshape(spec.shape[:-N] + (stride, m) * N)[..., : m // 2 + 1]


def _ball_spectra(g: GridFunction, radii: tuple, stride: int) -> np.ndarray:
    """Aliased spectra of the ball indicators, one row per radius.

    The indicators are even, so their spectra are real.  Convolving with
    an origin-centered indicator needs the kernel indexed by offsets,
    i.e. rolled so offset 0 is at index 0.
    """
    key = (g.N, g.n, g.L, radii, stride)
    spectra = _BALL_SPECTRA.pop(key, None)
    if spectra is not None:
        _BALL_SPECTRA[key] = spectra  # now the most recently used
        return spectra
    axes = tuple(range(g.N))
    m = g.n // stride
    r = g.radii()
    spectra = np.empty((len(radii),) + (stride, m) * (g.N - 1) + (stride, m // 2 + 1))
    for row, radius in zip(spectra, radii):
        kernel = np.roll(_ball_mask(r, radius).astype(float), (-(g.n // 2),) * g.N, axis=axes)
        row[...] = _aliased(np.fft.fftn(kernel).real, stride, g.N)
    _BALL_SPECTRA[key] = spectra
    while sum(a.nbytes for a in _BALL_SPECTRA.values()) > _CACHE_BYTES:
        del _BALL_SPECTRA[next(iter(_BALL_SPECTRA))]
    return spectra


def _center_index(g: GridFunction, x0) -> tuple:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.size != g.N:
        raise ValueError(f"center has dimension {x0.size}, expected {g.N}")
    idx = np.round((wrap_offsets(x0, g.L) + g.L) / g.h).astype(int) % g.n
    return tuple(int(i) for i in idx)


def lp_ball_norm(phi: GridFunction, x0, R: float, p: float) -> float:
    """Riemann-sum L^p norm of phi over the wrap-distance ball B(x0, R)."""
    if R < 2.0 * phi.h - 1e-12:
        raise ValueError(f"ball radius {R} under-resolved (need >= 2h = {2 * phi.h:g})")
    if R > phi.L + 1e-12:
        raise ValueError("ball radius exceeds the box half-width")
    if p < 1.0:
        raise ValueError("p must be >= 1")
    # the mask is centered at the origin sample (index n/2 per axis)
    shift = tuple(i - phi.n // 2 for i in _center_index(phi, x0))
    offsets = np.roll(_ball_mask(phi.radii(), R), shift, axis=tuple(range(phi.N)))
    vals = np.abs(phi.values)[offsets]
    if p == math.inf:
        return float(vals.max(initial=0.0))
    return float(np.sum(vals**p) * phi.h**phi.N) ** (1.0 / p)


def _window_peaks(g: GridFunction, values: np.ndarray, p: float,
                  ladder: RadiusLadder) -> np.ndarray:
    """1D ball sums: per state and radius, the max over strided centers.

    w is padded cyclically by the widest window on each side behind a
    leading zero, so after one cumulative sum S the ball around center c
    sums to S[c + left + after + 1] - S[c + left - before]: two strided
    slices per radius.  The roundoff of a ball sum is relative to the
    running sum, so a small ball in flat data keeps fewer digits than on
    the FFT path (about 1e-12 relative at n = 2^18).
    """
    n, stride = g.n, ladder.stride
    windows = _windows(n, g.L, ladder.radii)
    left = max((win[0] for win in windows if win is not None), default=0)
    right = max((win[1] for win in windows if win is not None), default=0)
    batch = values.shape[:-1]
    sums = np.zeros(batch + (1 + left + n + right,))
    w = sums[..., 1 + left:1 + left + n]
    np.abs(values, out=w)
    w **= p
    w *= g.h
    total = w.sum(axis=-1)
    sums[..., 1:1 + left] = w[..., n - left:]
    sums[..., 1 + left + n:] = w[..., :right]
    np.cumsum(sums, axis=-1, out=sums)
    peaks = np.empty(batch + (len(windows),))
    diff = np.empty(batch + (n // stride,))
    for k, window in enumerate(windows):
        if window is None:
            peaks[..., k] = total
            continue
        lo = left - window[0]
        hi = left + window[1] + 1
        np.subtract(sums[..., hi:hi + n:stride], sums[..., lo:lo + n:stride], out=diff)
        peaks[..., k] = diff.max(axis=-1)
    return peaks


def _fourier_peaks(g: GridFunction, values: np.ndarray, p: float,
                   ladder: RadiusLadder) -> np.ndarray:
    """Ball sums on N >= 2 grids: per state and radius, the max over
    strided centers, from aliased FFT convolutions (see `_scan`)."""
    N, n, stride = g.N, g.n, ladder.stride
    axes = tuple(range(-N, 0))
    m = n // stride
    batch = values.shape[:-N]
    # norm="forward" puts the whole 1/n^N on the forward transform (a
    # power of two, so exact); the inverse is then a plain sum
    w_hat = _aliased(np.fft.fftn(np.abs(values) ** p * g.h**N, axes=axes, norm="forward"),
                     stride, N)
    spectra = _ball_spectra(g, ladder.radii, stride)
    qj = list(range(1, 2 * N + 1))  # axes (q1, j1, ..., qN, jN); sum over the q's
    chunk = max(1, _BLOCK_BYTES // (16 * m**N * math.prod(batch)))
    peaks = np.empty(batch + (len(spectra),))
    for lo in range(0, len(spectra), chunk):
        block = spectra[lo:lo + chunk]
        folded = np.einsum(w_hat, [...] + qj, block, [0] + qj, [..., 0] + qj[1::2])
        sums = np.fft.irfftn(folded, s=(m,) * N, axes=axes, norm="forward")
        peaks[..., lo:lo + chunk] = sums.reshape(batch + (len(block), -1)).max(axis=-1)
    return peaks


def _scan(g: GridFunction, values: np.ndarray, p: float, ell: float,
          ladder: RadiusLadder) -> np.ndarray:
    """max over ladder radii and strided centers of R^{(ell-N)/p} * ball norm,
    for each state of a stack `values` of shape (..., n, ..., n) on g's grid.

    The ball sums are sums of w = |phi|^p h^N over each ball, at every
    stride-th point along each axis (m = n/stride per axis); the leading
    axes of the stack are a batch served by the same pass.

    - N = 1 (`_window_peaks`): a ball is a cyclic window of grid points,
      so each ball sum is a difference of one cumulative sum of w.
    - N >= 2 (`_fourier_peaks`): a ball sum is a circular convolution of
      w with the ball indicator.  Sampled at the strided centers, a
      convolution with spectrum W B is the m^N-point inverse transform of
      its aliased spectrum, the sum of W B over the frequencies q*m + j
      for each j.  So one forward transform serves every radius, and each
      inverse transform has only m^N points.

    p = inf is the plain sup norm (all M^{inf,ell} collapse to L^inf).
    """
    N, n, stride = g.N, g.n, ladder.stride
    if p == math.inf:
        return np.abs(values).max(axis=tuple(range(-N, 0)))
    if stride < 1 or n % stride:
        raise ValueError(f"center stride {stride} does not divide n={n}")
    peaks = (_window_peaks if N == 1 else _fourier_peaks)(g, values, p, ladder)
    radii = np.asarray(ladder.radii)
    return np.max(np.maximum(peaks, 0.0) ** (1.0 / p) * radii ** ((ell - N) / p), axis=-1)


def morrey_norm(phi: GridFunction, p: float, ell: float, ladder: RadiusLadder | None = None) -> float:
    """Discrete Morrey norm sup_{x0,R} R^{(ell-N)/p} ||phi||_{L^p(B(x0,R))};
    p = inf is the plain sup norm."""
    if p != math.inf and not (0.0 < ell <= phi.N + 1e-12):
        raise ValueError(f"ell={ell} outside (0, N]")
    if ladder is None:
        ladder = RadiusLadder.for_grid(phi)
    return float(_scan(phi, phi.values, p, ell, ladder))


def uniform_norm(phi: GridFunction, p: float) -> float:
    """Locally-uniform norm: max over every 4th center of the unit-ball L^p norm."""
    if phi.L < 1.0:
        raise ValueError("uniform norm needs a box with L >= 1")
    return morrey_norm(phi, p, float(phi.N), RadiusLadder((1.0,), _STRIDE))


class HolderCheck(NamedTuple):
    lhs: float
    rhs: float
    z: float
    nu: float
    passed: bool


def holder_product_check(f: GridFunction, g: GridFunction, w: float, kappa: float,
                         p0: float, ell0: float) -> HolderCheck:
    """Product inequality ||f g||_{M^{z,nu}} <= ||f||_{M^{w,kappa}} ||g||_{M^{p0,ell0}}
    with 1/z = 1/w + 1/p0 and nu/z = kappa/w + ell0/p0.

    Requires w >= p0' so that z >= 1.  `passed` allows a discretization
    slack of 5% on the right-hand side; every norm takes the default ladder.
    """
    inv_w = 0.0 if w == math.inf else 1.0 / w
    inv_p0 = 0.0 if p0 == math.inf else 1.0 / p0
    inv_z = inv_w + inv_p0
    if inv_z > 1.0 + 1e-12:
        raise ValueError(f"w={w} below the conjugate exponent of p0={p0}: no product space")
    z = math.inf if inv_z == 0.0 else 1.0 / inv_z
    nu_over_z = kappa * inv_w + ell0 * inv_p0
    nu = 0.0 if z == math.inf else nu_over_z * z
    lhs = morrey_norm(f * g, z, nu if nu > 0 else float(f.N))
    rhs = morrey_norm(f, w, kappa) * morrey_norm(g, p0, ell0)
    return HolderCheck(lhs, rhs, z, nu, lhs <= rhs * 1.05)
