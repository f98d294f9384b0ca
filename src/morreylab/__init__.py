"""Desk-scale laboratory for fractional diffusion semigroups with Morrey potentials.

Layers, bottom up: `grids` (periodic sampled functions), `indices`
(the two-parameter smoothing calculus), `norms` (Morrey estimators),
`semigroup` (the Fourier-multiplier evolution engine), `potentials` and
`duhamel` (the perturbed evolution, marched in time), `verify`
(rate fits and brute-force oracles), and `checks`/`cli` (the runnable
experiment surface).
"""

from .grids import GridFunction
from .indices import (
    MorreyParams,
    PotentialClass,
    ProblemDims,
    ScaleIndex,
    choose_alpha,
    exterior_tangent,
    from_index,
    to_index,
)
from .norms import RadiusLadder, lp_ball_norm, morrey_norm, uniform_norm
from .potentials import PotentialSpec, constant_potential, power_law_potential
from .semigroup import apply_semigroup, kernel, laplacian_power_symbol, pseudoresolvent
from .duhamel import SolverConfig, Trajectory, picard_solve, sequential_solve

__version__ = "0.1.0"

__all__ = [
    "GridFunction",
    "MorreyParams",
    "PotentialClass",
    "ProblemDims",
    "ScaleIndex",
    "choose_alpha",
    "exterior_tangent",
    "from_index",
    "to_index",
    "RadiusLadder",
    "lp_ball_norm",
    "morrey_norm",
    "uniform_norm",
    "PotentialSpec",
    "constant_potential",
    "power_law_potential",
    "apply_semigroup",
    "kernel",
    "laplacian_power_symbol",
    "pseudoresolvent",
    "SolverConfig",
    "Trajectory",
    "picard_solve",
    "sequential_solve",
    "__version__",
]
