"""Potentials: realization rules plus their declared Morrey classes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction, grid_radii, same_grid
from .indices import MorreyParams, PotentialClass, ProblemDims
from .norms import morrey_norm

__all__ = ["PotentialSpec", "power_law_potential", "constant_potential", "tabulated_potential"]


@dataclass(frozen=True)
class PotentialSpec:
    """A potential with a realization rule and a declared class (p0, ell0).

    kind is 'power_law' (amplitude * r^{-beta}, capped at r = 2h),
    'constant', or 'tabulated'.  Power-law specs must satisfy the class
    consistency ell0 = beta * p0 and beta * p0 < N.
    """

    kind: str
    p0: float
    ell0: float
    amplitude: float = 0.0
    beta: float = 0.0
    value: float = 0.0
    table: GridFunction | None = None

    def __post_init__(self):
        MorreyParams(self.p0, self.ell0)
        if self.kind == "power_law":
            if self.beta <= 0.0:
                raise ValueError("power-law exponent beta must be positive")
            if abs(self.ell0 - self.beta * self.p0) > 1e-9:
                raise ValueError(
                    f"declared class inconsistent: ell0={self.ell0} != beta*p0={self.beta * self.p0}"
                )
        elif self.kind not in ("constant", "tabulated"):
            raise ValueError(f"unknown potential kind {self.kind!r}")

    def potential_class(self, dims: ProblemDims) -> PotentialClass:
        if self.kind == "power_law" and not self.beta * self.p0 < dims.N:
            raise ValueError(f"beta*p0 = {self.beta * self.p0} must stay below N={dims.N}")
        return PotentialClass.from_exponents(self.p0, self.ell0, dims).require_admissible()

    def on_grid(self, N: int, n: int, L: float) -> GridFunction:
        """Realize the potential on a grid; the power law is capped at 2h."""
        if self.kind == "constant":
            return GridFunction.constant(self.value, N, n, L)
        if self.kind == "tabulated":
            if self.table is None:
                raise ValueError("tabulated potential without a table")
            if not same_grid(N, n, L, self.table):
                raise ValueError("tabulated potential on an incompatible grid")
            return self.table
        r = np.maximum(grid_radii(N, n, L), 4.0 * L / n)  # the cap at 2h
        return GridFunction(N, n, L, self.amplitude * r ** (-self.beta))

    def measured_norm(self, N: int, n: int, L: float) -> float:
        """Morrey norm of the capped realization in the declared class.

        This measured value, not the analytic ideal, is what feeds the
        contraction and growth-rate formulas.
        """
        if self.kind == "constant":
            return abs(self.value)
        return morrey_norm(self.on_grid(N, n, L), self.p0, self.ell0)


def power_law_potential(amplitude: float, beta: float, p0: float) -> PotentialSpec:
    return PotentialSpec("power_law", p0=p0, ell0=beta * p0, amplitude=amplitude, beta=beta)


def constant_potential(value: float, N: int = 1) -> PotentialSpec:
    """A bounded constant potential; its class is p0 = inf (any ell)."""
    return PotentialSpec("constant", p0=math.inf, ell0=float(N), value=value)


def tabulated_potential(table: GridFunction, p0: float, ell0: float) -> PotentialSpec:
    return PotentialSpec("tabulated", p0=p0, ell0=ell0, table=table)
