"""Code-generated initial-datum fixtures.

Fixtures are always regenerated from formulas (never shipped as data)
so that report runs are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

from .grids import GridFunction

__all__ = ["gaussian_bump", "power_law"]


def gaussian_bump(N: int, n: int, L: float) -> GridFunction:
    """exp(-|x|^2)."""
    g = GridFunction.constant(0.0, N, n, L)
    return GridFunction(N, n, L, np.exp(-(g.radii() ** 2)))


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
    g = GridFunction.constant(0.0, N, n, L)
    cap = 2.0 * g.h
    vals = np.maximum(g.radii(), cap) ** (-beta)
    if mass_faithful:
        if N != 1 or beta >= 1.0:
            raise ValueError("mass-faithful realization needs N = 1 and beta < 1")
        h = g.h
        core = np.where(g.radii() <= cap + 1e-12 * cap)
        x = g.axis()[core]
        lo, hi = np.abs(x) - 0.5 * h, np.abs(x) + 0.5 * h

        def anti(s):  # integral of |x|^{-beta} from 0 to s >= 0
            return s ** (1.0 - beta) / (1.0 - beta)

        straddles = lo < 0.0
        cell = np.where(straddles, anti(np.abs(lo)) + anti(hi),
                        anti(hi) - anti(np.maximum(lo, 0.0)))
        vals = vals.copy()
        vals[core] = cell / h
    if support_radius is not None:
        vals = np.where(g.radii() <= support_radius, vals, 0.0)
    return GridFunction(N, n, L, vals)
