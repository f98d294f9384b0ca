"""Code-generated initial-datum fixtures.

Fixtures are always regenerated from formulas (never shipped as data)
so that report runs are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .grids import GridFunction, grid_radii

__all__ = ["gaussian_bump", "power_law"]


def gaussian_bump(N: int, n: int, L: float) -> GridFunction:
    """exp(-|x|^2)."""
    return GridFunction(N, n, L, np.exp(-(grid_radii(N, n, L) ** 2)))


def power_law(N: int, n: int, L: float, beta: float = 0.5,
              support_radius: float | None = None, mass_faithful: bool = False) -> GridFunction:
    """|x|^{-beta}, capped below |x| = 2h; optionally zero outside support_radius.

    The outer truncation keeps the torus wrap from leaving a flat
    background whose norms would contaminate decay-rate fits.  With
    mass_faithful (1D only) the samples inside the cap are replaced by
    exact cell averages of the continuum profile, so the discrete core
    carries the right mass; otherwise the singular mass lost to the cap
    evolves like an extra point source and flattens small-time fits.
    """
    h = 2.0 * L / n
    cap = 2.0 * h
    r = grid_radii(N, n, L)
    vals = np.maximum(r, cap) ** (-beta)
    if mass_faithful:
        if N != 1 or beta >= 1.0:
            raise ValueError("mass-faithful realization needs N = 1 and beta < 1")
        core = np.where(r <= cap + 1e-12 * cap)
        lo, hi = r[core] - 0.5 * h, r[core] + 0.5 * h  # in 1D r is |x|

        def anti(s):  # integral of |x|^{-beta} from 0 to s >= 0
            return s ** (1.0 - beta) / (1.0 - beta)

        straddles = lo < 0.0
        cell = np.where(straddles, anti(np.abs(lo)) + anti(hi),
                        anti(hi) - anti(np.maximum(lo, 0.0)))
        vals = vals.copy()
        vals[core] = cell / h
    if support_radius is not None:
        vals = np.where(r <= support_radius, vals, 0.0)
    return GridFunction(N, n, L, vals)
