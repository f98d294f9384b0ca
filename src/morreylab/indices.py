"""Index calculus for diffusion smoothing between Morrey-type spaces.

A space M^{p,l} is encoded by the planar index

    gamma(p, l) = (1/p, l / (2 m mu p)),

which lives in the triangle with vertices (0,0), (1,0) and
(1, N/(2 m mu)), taken as the set

    J = {(0,0)} union {(g1, g2) in (0,1] x (0, N/(2 m mu)] : g2/g1 <= N/(2 m mu)}.

The regularity height r(gamma) = -gamma2 orders the spaces; smoothing
from gamma to gamma' costs a factor t^{-(gamma2 - gamma'2)}.  This
module implements the exact membership predicates for the
admissible-data and reachable-target sets of the perturbed evolution,
the canonical choice of the working index alpha, the two-potential
continuous-dependence region with its star-shaped joint-admissibility
region, and the convex exterior-tangent construction.

All comparisons use an absolute tolerance band of 1e-12 per inequality
so that queries sitting exactly on a region boundary do not flip with
rounding noise.

The predicates region_report is built on evaluate elementwise
(in_triangle, sub_triangle_contains, star_region_contains, boundary_h):
the coordinates of a ScaleIndex and the exponents of a MorreyParams may
be floats or equal-length numpy columns, and region_report decides a
whole block of queries in one pass.  existence_set_contains,
regularity_set_contains, sigma_contains, choose_alpha and
cd2_region_contains join their tests with `and` and take scalars only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TOL",
    "ProblemDims",
    "MorreyParams",
    "ScaleIndex",
    "PotentialClass",
    "holder_conjugate",
    "to_index",
    "from_index",
    "in_triangle",
    "regularity",
    "smoothing_distance",
    "sub_triangle_contains",
    "existence_set_contains",
    "regularity_set_contains",
    "sigma_contains",
    "choose_alpha",
    "star_theta",
    "cd2_region_contains",
    "star_region_contains",
    "boundary_h",
    "exterior_tangent",
    "region_report",
]

TOL = 1e-12


def _le(a: float, b: float) -> bool:
    return a <= b + TOL


def _lt(a: float, b: float) -> bool:
    return a < b - TOL


@dataclass(frozen=True)
class ProblemDims:
    """Spatial dimension N, operator order 2m, fractional power mu."""

    N: int
    m: int
    mu: float

    def __post_init__(self):
        if self.N < 1 or int(self.N) != self.N:
            raise ValueError("N must be a positive integer")
        if self.m < 1 or int(self.m) != self.m:
            raise ValueError("m must be a positive integer")
        if not (0.0 < self.mu <= 1.0):
            raise ValueError("mu must lie in (0, 1]")

    @property
    def order(self) -> float:
        """Effective diffusion order 2 m mu."""
        return 2.0 * self.m * self.mu

    @property
    def slope_cap(self) -> float:
        """Largest admissible index slope, N / (2 m mu)."""
        return self.N / self.order


def holder_conjugate(p: float) -> float:
    if p == math.inf:
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class MorreyParams:
    """Integrability exponent p in [1, inf] and scale parameter ell in (0, N]."""

    p: float
    ell: float

    def __post_init__(self):
        if not np.all(self.p >= 1.0):
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not np.all(self.ell > 0.0):
            raise ValueError(f"ell must be positive, got {self.ell}")

    def validate_for(self, dims: ProblemDims) -> "MorreyParams":
        if not np.all(_le(self.ell, dims.N)):
            raise ValueError(f"ell={self.ell} exceeds dimension N={dims.N}")
        return self


@dataclass(frozen=True)
class ScaleIndex:
    """A point gamma = (gamma1, gamma2) of the index triangle."""

    gamma1: float
    gamma2: float

    @property
    def is_origin(self):
        return (self.gamma1 <= TOL) & (self.gamma2 <= TOL)

    @property
    def slope(self):
        """gamma2/gamma1, with the origin assigned slope 0.

        The origin encodes L^inf; giving it slope 0 makes it smooth only
        to itself under the relation below.  A point with gamma1 = 0
        (p = inf) divides by zero here, silently: the origin takes 0, and
        any other such point lies outside the triangle.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.divide(self.gamma2, self.gamma1)
        return np.where(self.is_origin, 0.0, ratio)[()]

    def __add__(self, other: "ScaleIndex") -> "ScaleIndex":
        return ScaleIndex(self.gamma1 + other.gamma1, self.gamma2 + other.gamma2)

    def as_tuple(self):
        return (float(self.gamma1), float(self.gamma2))


ORIGIN = ScaleIndex(0.0, 0.0)


def in_triangle(gamma: ScaleIndex, dims: ProblemDims):
    """Membership of gamma in J."""
    g1, g2 = gamma.gamma1, gamma.gamma2
    return gamma.is_origin | (
        _lt(0.0, g1)
        & _le(g1, 1.0)
        & _lt(0.0, g2)
        & _le(g2, dims.slope_cap)
        & _le(gamma.slope, dims.slope_cap)
    )


def to_index(mp: MorreyParams, dims: ProblemDims) -> ScaleIndex:
    """Coordinates (1/p, ell/(2 m mu p)); p = inf lands on the origin."""
    mp.validate_for(dims)
    return ScaleIndex(1.0 / mp.p, mp.ell / (dims.order * mp.p))


def from_index(gamma: ScaleIndex, dims: ProblemDims) -> MorreyParams:
    """Inverse of to_index.  The origin returns p = inf with sentinel ell = N."""
    if not in_triangle(gamma, dims):
        raise ValueError(f"{gamma} is not in the index triangle")
    if gamma.is_origin:
        return MorreyParams(math.inf, float(dims.N))
    p = 1.0 / gamma.gamma1
    ell = dims.order * gamma.gamma2 / gamma.gamma1
    return MorreyParams(p, min(ell, float(dims.N)))


@dataclass(frozen=True)
class PotentialClass:
    """Declared Morrey class of a potential plus its derived index data."""

    params: MorreyParams
    dims: ProblemDims

    @classmethod
    def from_exponents(cls, p0: float, ell0: float, dims: ProblemDims) -> "PotentialClass":
        return cls(MorreyParams(p0, ell0), dims)

    @cached_property
    def gamma0(self) -> ScaleIndex:
        """The class's index, computed on first read and kept; fields alone
        decide equality and hashing."""
        return to_index(self.params, self.dims)

    @property
    def kappa(self) -> float:
        """Criticality index ell0 / (2 m mu p0); the theory needs kappa < 1."""
        return self.gamma0.gamma2

    @property
    def admissible(self) -> bool:
        return _lt(self.kappa, 1.0)

    def require_admissible(self) -> "PotentialClass":
        if not self.admissible:
            raise ValueError(
                f"potential class (p0={self.params.p}, ell0={self.params.ell}) has "
                f"kappa={self.kappa:.6g} >= 1 and is not admissible"
            )
        return self


def regularity(gamma: ScaleIndex) -> float:
    """Regularity height r(gamma) = -gamma2."""
    return -gamma.gamma2


def smoothing_distance(target: ScaleIndex, source: ScaleIndex) -> float:
    """d(target, source) = r(target) - r(source) = source2 - target2.

    May be negative; callers test the sign.
    """
    return regularity(target) - regularity(source)


def sub_triangle_contains(gamma: ScaleIndex, cls: PotentialClass) -> bool:
    """The sub-triangle of indices with slope at most that of the class.

    A class at the origin (a bounded potential) imposes no restriction.
    """
    return in_triangle(gamma, cls.dims) & _within_class_slope(gamma, cls)


def _within_class_slope(gamma: ScaleIndex, cls: PotentialClass):
    g0 = cls.gamma0
    return g0.is_origin | _le(gamma.slope, g0.slope)


def existence_set_contains(gamma: ScaleIndex, alpha: ScaleIndex) -> bool:
    """Admissible initial-data indices for the working index alpha:
    alpha2 <= gamma2 < alpha2 + 1 and slope(alpha) <= slope(gamma)."""
    return (
        _le(alpha.gamma2, gamma.gamma2)
        and _lt(gamma.gamma2, alpha.gamma2 + 1.0)
        and _le(alpha.slope, gamma.slope)
    )


def _check_beta(alpha: ScaleIndex, cls: PotentialClass) -> ScaleIndex:
    g0 = cls.gamma0
    if not _le(alpha.gamma1 + g0.gamma1, 1.0):
        raise ValueError(
            f"alpha1 + gamma0_1 = {alpha.gamma1 + g0.gamma1:.6g} > 1: "
            "the perturbation target leaves the triangle"
        )
    return alpha + g0


def regularity_set_contains(target: ScaleIndex, alpha: ScaleIndex, cls: PotentialClass) -> bool:
    """Reachable target indices: target2 <= beta2, slope(target) <= slope(beta),
    target2 > alpha2 - (1 - kappa), where beta = alpha + gamma0."""
    beta = _check_beta(alpha, cls)
    j0 = 1.0 - cls.gamma0.gamma2
    return (
        _le(target.gamma2, beta.gamma2)
        and _le(target.slope, beta.slope)
        and _lt(alpha.gamma2 - j0, target.gamma2)
    )


def sigma_contains(gamma: ScaleIndex, alpha: ScaleIndex, cls: PotentialClass) -> bool:
    """The joint admissibility system: gamma is reachable from alpha (the
    regularity set, which raises when alpha + gamma0 leaves the triangle)
    and lies in alpha's existence set.

    For kappa < 1 - 2 TOL this is  alpha2 <= gamma2 <= alpha2 + gamma0_2
    and slope(alpha) <= slope(gamma) <= slope(alpha + gamma0): the
    existence bound gamma2 < alpha2 + 1 and the regularity bound
    gamma2 > alpha2 - (1 - kappa) follow from the heights.
    """
    return regularity_set_contains(gamma, alpha, cls) and existence_set_contains(gamma, alpha)


def choose_alpha(gamma: ScaleIndex, classes) -> ScaleIndex:
    """Canonical working index for initial data at gamma.

    With theta = min_i (1 - gamma^i_1), keep alpha = gamma when
    gamma1 <= theta, otherwise slide down the ray through gamma to
    alpha = (theta, slope(gamma) * theta).  The result is checked
    against sigma_contains for every class; for two classes this can
    genuinely fail outside the star region, which is reported as an
    error rather than patched over.
    """
    classes = list(classes)
    if not classes:
        return gamma
    for cls in classes:
        cls.require_admissible()
        if not sub_triangle_contains(gamma, cls):
            raise ValueError(f"{gamma} is outside the admissible sub-triangle of {cls.params}")
    if gamma.is_origin:
        alpha = ORIGIN
    else:
        theta = star_theta(classes)
        if _le(gamma.gamma1, theta):
            alpha = gamma
        else:
            alpha = ScaleIndex(theta, gamma.slope * theta)
    for cls in classes:
        if not sigma_contains(gamma, alpha, cls):
            raise ValueError(
                f"no admissible working index: candidate alpha={alpha.as_tuple()} fails "
                f"the joint admissibility system for class {cls.params}"
            )
    return alpha


def _sorted_pair(classes):
    c0, c1 = classes
    if c0.params.ell <= c1.params.ell:
        return c0, c1
    return c1, c0


def cd2_region_contains(mp: MorreyParams, classes, dims: ProblemDims) -> bool:
    """Two-potential continuous-dependence region in (p, ell) coordinates:

        1 <= p <= inf,  ell <= ell_min,
        ell (1/p - 1/(p0' v p1')) <= (ell0/p0) ^ (ell1/p1),

    a negative left side counting as satisfied.
    """
    c0, c1 = _sorted_pair([c.require_admissible() for c in classes])
    mp.validate_for(dims)
    if not _le(mp.ell, c0.params.ell):
        return False
    conj = max(holder_conjugate(c0.params.p), holder_conjugate(c1.params.p))
    inv_conj = 0.0 if conj == math.inf else 1.0 / conj
    inv_p = 0.0 if mp.p == math.inf else 1.0 / mp.p
    lhs = mp.ell * (inv_p - inv_conj)
    rhs = min(c0.params.ell / c0.params.p, c1.params.ell / c1.params.p)
    return _le(lhs, rhs)


def star_theta(classes):
    """theta = 1 - max_i(gamma^i_1): the largest working-index gamma1 that
    keeps alpha + gamma^i inside the triangle for every class."""
    return 1.0 - np.max([c.gamma0.gamma1 for c in classes], axis=0)


def boundary_h(gamma1, classes):
    """Curved boundary of the star region for gamma1 > theta:

        h(g1) = m2 + m2 * theta / (g1 - theta),

    with theta = star_theta(classes) and m2 = min_i(gamma^i_2).
    Returns inf for g1 <= theta + TOL, where the division by g1 - theta
    (zero at g1 = theta) is discarded.
    """
    theta = star_theta(classes)
    m2 = np.min([c.gamma0.gamma2 for c in classes], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = m2 + m2 * theta / (gamma1 - theta)
    return np.where(gamma1 <= theta + TOL, math.inf, h)[()]


def star_region_contains(gamma: ScaleIndex, classes):
    """Indices with a joint working index for both (admissible) classes:
    gamma1 <= theta or gamma2 <= h(gamma1)."""
    theta = star_theta(classes)
    return _le(gamma.gamma1, theta) | _le(gamma.gamma2, boundary_h(gamma.gamma1, classes))


def _bracketed_newton(g, gp, lo: float, hi: float) -> float:
    """Root of g on [lo, hi], where g changes sign: at most 200 Newton
    steps, with a bisection whenever a step would leave the shrinking
    bracket."""
    g_lo, g_hi = g(lo), g(hi)
    if g_lo == 0.0 or g_hi == 0.0:
        return lo if g_lo == 0.0 else hi
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise ValueError("root is not bracketed")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        gx = g(x)
        if gx == 0.0:
            return x
        if (gx < 0.0) == (g_lo < 0.0):
            lo = x
        else:
            hi = x
        slope = gp(x)
        x_new = x - gx / slope if slope != 0.0 else math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15 + 8.9e-16 * abs(x_new):
            return x_new
        x = x_new
    raise ArithmeticError("no convergence in 200 iterations")


def exterior_tangent(f, fp, fpp, a: float, b: float, c: float, d: float, side: str) -> float:
    """Abscissa x* where the tangent to a strictly convex f passes through (c, d).

    The tangent value at c seen from x is t(x) = f(x) + f'(x)(c - x);
    it increases on [a, c) and decreases on (c, b], so the root of
    t(x) = d on the requested side is unique.  Requires d < f(c) and the
    matching endpoint slope condition, else raises.
    """
    if not (a < c < b):
        raise ValueError("need a < c < b")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    for x in (a, c, b):
        if fpp(x) <= 0.0:
            raise ValueError("f must satisfy f'' > 0 on [a, b]")
    if not d < f(c) - TOL:
        raise ValueError(f"no exterior tangent: d={d} is not below f(c)={f(c)}")

    def t(x):
        return f(x) + fp(x) * (c - x)

    if side == "left":
        if t(a) > d + TOL:
            raise ValueError("no tangent to the left: t(a) > d")
        lo, hi = a, c - 1e-14 * max(1.0, abs(c))
    else:
        if t(b) > d + TOL:
            raise ValueError("no tangent to the right: t(b) > d")
        lo, hi = c + 1e-14 * max(1.0, abs(c)), b
    x_star = _bracketed_newton(lambda x: t(x) - d, lambda x: fpp(x) * (c - x), lo, hi)
    resid = abs(t(x_star) - d)
    if resid > 1e-12 * (1.0 + abs(d)):
        raise ArithmeticError(f"tangent solve residual {resid:.3e} above tolerance")
    return float(x_star)


# region_report's reason by verdict code: 0 IN, 1 kappa >= 1 (worded per
# row), 2 triangle, 3 sub-triangle, 4 star region
_OUT_REASONS = (None, None, "outside the index triangle",
                "slope exceeds potential-class slope (ell > ell0)",
                "outside the two-potential star region")


def _row_classes(rows, dims: ProblemDims):
    """(two, c0, c1) of nan-padded (n, 4) rows (p0, ell0, p1, ell1): the mask
    of two-class rows and the slots' classes, a one-class row repeating its own."""
    rows = np.asarray(rows, dtype=float)
    two = ~np.isnan(rows[:, 2])
    second = np.where(two[:, None], rows[:, 2:], rows[:, :2])
    return (two, PotentialClass.from_exponents(rows[:, 0], rows[:, 1], dims),
            PotentialClass.from_exponents(second[:, 0], second[:, 1], dims))


def region_report(gamma: ScaleIndex, classes, dims: ProblemDims) -> list:
    """Why initial data at each row of gamma admit no joint working index,
    or None where they do: the closed-form region verdict for a block of
    queries, tested in the order admissibility, index triangle,
    sub-triangle, star region.

    gamma holds index columns; classes is an (n, 4) array of rows
    (p0, ell0, p1, ell1), with p1 = ell1 = nan where a row names one
    class.  Every exponent must pass MorreyParams and validate_for; one
    that does not raises ValueError for the whole block.

    The sub-triangle test's TOL band is on the class slope,
    slope(gamma) <= slope(gamma^i) + TOL, the band verify.region_oracle
    gives the raw test slope(gamma) <= slope(beta_i).

    No working index is constructed: inside the sub-triangles, the star
    region is exactly where choose_alpha's candidate
    alpha = (theta, slope * theta) satisfies sigma, because the binding
    inequality gamma2 - slope * theta <= min gamma^i_2 is the star bound
    gamma2 <= h(gamma1) scaled by (gamma1 - theta) / gamma1 <= 1.  For
    one class the sub-triangle already implies that bound, so the star
    test applies to two-class rows only.
    """
    # a repeated class leaves the slope test as it is; `two` masks kappa and star
    two, c0, c1 = _row_classes(classes, dims)
    inadmissible = (~c0.admissible, two & ~c1.admissible)
    code = np.select([inadmissible[0] | inadmissible[1],
                      ~in_triangle(gamma, dims),
                      ~(_within_class_slope(gamma, c0) & _within_class_slope(gamma, c1)),
                      two & ~star_region_contains(gamma, [c0, c1])], [1, 2, 3, 4], 0)
    reasons = [_OUT_REASONS[c] for c in code.tolist()]
    for i in np.flatnonzero(code == 1).tolist():
        reasons[i] = "; ".join(
            f"kappa({float(c.params.p[i]):g},{float(c.params.ell[i]):g})="
            f"{float(c.kappa[i]):.4g}>=1"
            for c, bad in zip((c0, c1), inadmissible) if bad[i])
    return reasons
