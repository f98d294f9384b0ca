"""Sampled functions and atomic measures on a periodic box [-L, L)^N.

Everything downstream (norm estimators, the multiplier engine, the
Duhamel solver) works on these uniform periodic grids.  N is 1 or 2,
the number of points per axis is a power of two, and values are frozen
numpy arrays so grid functions can be shared freely between threads.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridFunction",
    "AtomicMeasure",
    "wrap_offsets",
]

_HEADER = struct.Struct("<qqd")  # N, n as int64; L as float64 (little endian)


def _check_points(n: int) -> None:
    """The size rule of every grid axis: a power of two, at least 8."""
    if n < 8 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 8, got {n}")


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
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function contains non-finite values")
        vals = np.require(vals, requirements=["C"])
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
        ax = np.minimum(np.abs(self.axis()), 2.0 * self.L - np.abs(self.axis()))
        if self.N == 1:
            return ax
        return np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)

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

    def shifted(self, cells) -> "GridFunction":
        """Exact periodic translation by whole grid cells (per axis)."""
        if np.isscalar(cells):
            cells = (int(cells),) * self.N
        return GridFunction(self.N, self.n, self.L, np.roll(self.values, cells, axis=tuple(range(self.N))))

    def is_compatible(self, other: "GridFunction") -> bool:
        return (self.N, self.n) == (other.N, other.n) and abs(self.L - other.L) < 1e-14 * self.L

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

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        vals = self.values
        if np.iscomplexobj(vals):
            if np.max(np.abs(vals.imag)) > 1e-12 * (1.0 + np.max(np.abs(vals.real))):
                raise ValueError("binary export only supports real-valued grids")
            vals = vals.real
        body = np.ascontiguousarray(vals, dtype="<f8").tobytes()
        return _HEADER.pack(self.N, self.n, self.L) + body

    @classmethod
    def from_bytes(cls, blob: bytes) -> "GridFunction":
        N, n, L = _HEADER.unpack_from(blob, 0)
        vals = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size).reshape((n,) * N)
        return cls(int(N), int(n), float(L), vals.copy())

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "GridFunction":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())

    def to_csv(self, path) -> None:
        """Plot-friendly export: coordinates followed by the sample value."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            ax = self.axis()
            if self.N == 1:
                writer.writerow(["x", "value"])
                for x, v in zip(ax, self.values):
                    writer.writerow([repr(float(x)), repr(float(np.real(v)))])
            else:
                writer.writerow(["x", "y", "value"])
                for i, x in enumerate(ax):
                    for j, y in enumerate(ax):
                        writer.writerow([repr(float(x)), repr(float(y)), repr(float(np.real(self.values[i, j])))])


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite combination of point masses inside the box."""

    N: int
    L: float
    atoms: tuple = field(default_factory=tuple)  # ((location, weight), ...); location is a float tuple

    def __post_init__(self):
        norm_atoms = []
        for loc, w in self.atoms:
            loc = (float(loc),) if np.isscalar(loc) else tuple(float(c) for c in loc)
            if len(loc) != self.N:
                raise ValueError(f"atom location {loc} has wrong dimension")
            if any(c < -self.L or c >= self.L for c in loc):
                raise ValueError(f"atom {loc} outside box [-L, L)")
            norm_atoms.append((loc, float(w)))
        object.__setattr__(self, "atoms", tuple(norm_atoms))
        if not np.isfinite(self.total_variation()):
            raise ValueError("total variation must be finite")

    def total_variation(self) -> float:
        return float(sum(abs(w) for _, w in self.atoms))

    def locations(self) -> np.ndarray:
        if not self.atoms:
            return np.zeros((0, self.N))
        return np.array([loc for loc, _ in self.atoms])

    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms]) if self.atoms else np.zeros(0)
