"""Sampled functions on a periodic box [-L, L)^N.

Everything downstream (norm estimators, the multiplier engine, the
Duhamel solver) works on these uniform periodic grids.  N is 1 or 2,
the number of points per axis is a power of two, and values are frozen
numpy arrays so one grid function can be shared by every caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridFunction", "grid_radii", "same_grid", "wrap_offsets"]


def _check_points(n: int) -> None:
    """The size rule of every grid axis: a power of two, at least 8."""
    if n < 8 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 8, got {n}")


def same_grid(N: int, n: int, L: float, other) -> bool:
    """Whether `other` (anything with N, n and L) lives on the (N, n, L)
    grid, its L equal to within 1e-12 L: the one grid-agreement rule of
    grid arithmetic, potential tables and symbols."""
    return (N, n) == (other.N, other.n) and abs(L - other.L) <= 1e-12 * L


def grid_radii(N: int, n: int, L: float) -> np.ndarray:
    """Distance from the origin of every sample of the (N, n, L) grid.  The
    samples lie in [-L, L), so this is also their torus distance."""
    ax = np.abs(-L + 2.0 * L / n * np.arange(n))
    if N == 1:
        return ax
    return np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)


def wrap_offsets(delta: np.ndarray, L: float) -> np.ndarray:
    """Reduce coordinate offsets to the fundamental window [-L, L)."""
    return np.mod(delta + L, 2.0 * L) - L


@dataclass(frozen=True)
class GridFunction:
    """A function sampled on the uniform periodic grid over [-L, L)^N.

    values has shape (n,) for N=1 and (n, n) for N=2; the sample at
    index k along an axis sits at x = -L + k*h with h = 2L/n.
    """

    N: int
    n: int
    L: float
    values: np.ndarray

    def __post_init__(self):
        if self.N not in (1, 2):
            raise ValueError(f"N must be 1 or 2, got {self.N}")
        _check_points(self.n)
        if self.L <= 0:
            raise ValueError("box half-width L must be positive")
        vals = np.asarray(self.values)
        if vals.shape != (self.n,) * self.N:
            raise ValueError(f"values shape {vals.shape} incompatible with N={self.N}, n={self.n}")
        if not np.isfinite(vals).all():
            raise ValueError("grid function contains non-finite values")
        vals = np.ascontiguousarray(vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    # -- geometry -----------------------------------------------------------

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis."""
        return -self.L + self.h * np.arange(self.n)

    def radii(self) -> np.ndarray:
        """Torus distance of every sample from the origin."""
        return grid_radii(self.N, self.n, self.L)

    # -- constructors -------------------------------------------------------

    @classmethod
    def dirac(cls, N: int, n: int, L: float) -> "GridFunction":
        """Unit-mass discrete Dirac at the origin (value 1/h^N at x = 0)."""
        vals = np.zeros((n,) * N)
        idx = (n // 2,) * N
        vals[idx] = (n / (2.0 * L)) ** N
        return cls(N, n, L, vals)

    @classmethod
    def constant(cls, c: float, N: int, n: int, L: float) -> "GridFunction":
        return cls(N, n, L, np.full((n,) * N, float(c)))

    # -- calculus ------------------------------------------------------------

    def mass(self) -> float:
        """Riemann sum of the values."""
        return float(np.sum(self.values).real * self.h**self.N)

    def is_compatible(self, other: "GridFunction") -> bool:
        return same_grid(self.N, self.n, self.L, other)

    # -- arithmetic ----------------------------------------------------------

    def _binary(self, other, op) -> "GridFunction":
        if isinstance(other, GridFunction):
            if not self.is_compatible(other):
                raise ValueError("grid mismatch")
            other = other.values
        return GridFunction(self.N, self.n, self.L, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.N, self.n, self.L, -self.values)
