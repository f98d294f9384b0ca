import math

import numpy as np
import pytest

from morreylab.indices import ProblemDims
from morreylab.potentials import (
    PotentialSpec,
    constant_potential,
    power_law_potential,
    tabulated_potential,
)
from morreylab.fixtures import gaussian_bump

DIMS = ProblemDims(1, 1, 1.0)


def test_power_law_class_consistency():
    V = power_law_potential(1.0, 0.5, 1.5)
    assert V.ell0 == pytest.approx(0.75)
    cls = V.potential_class(DIMS)
    assert cls.kappa == pytest.approx(0.25)
    with pytest.raises(ValueError):
        PotentialSpec("power_law", p0=2.0, ell0=0.8, amplitude=1.0, beta=0.5)
    with pytest.raises(ValueError):
        # beta * p0 = N: not locally integrable at the stated power
        power_law_potential(1.0, 0.5, 2.0).potential_class(DIMS)


def test_power_law_cap():
    V = power_law_potential(1.0, 0.5, 1.5)
    g = V.on_grid(1, 512, 8.0)
    assert np.max(g.values) == pytest.approx((2 * g.h) ** -0.5)


def test_power_law_measured_norm():
    """Measured class norm of the capped realization is near the analytic 4,
    and scales linearly with the amplitude."""
    V = power_law_potential(1.0, 0.5, 1.5)
    norm1 = V.measured_norm(1, 4096, 8.0)
    assert norm1 == pytest.approx(4.0, rel=0.10)
    V3 = power_law_potential(3.0, 0.5, 1.5)
    assert V3.measured_norm(1, 4096, 8.0) == pytest.approx(3 * norm1, rel=1e-12)


def test_constant_potential():
    V = constant_potential(2.5)
    assert V.p0 == math.inf
    cls = V.potential_class(DIMS)
    assert cls.gamma0.is_origin and cls.kappa == 0.0
    assert V.measured_norm(1, 256, 8.0) == 2.5
    g = V.on_grid(1, 64, 4.0)
    assert np.all(g.values == 2.5)


def test_tabulated_potential():
    table = gaussian_bump(1, 128, 4.0)
    V = tabulated_potential(table, 2.0, 1.0)
    assert V.on_grid(1, 128, 4.0) is table
    with pytest.raises(ValueError):
        V.on_grid(1, 256, 4.0)


def test_kappa_at_least_one_rejected():
    slow = ProblemDims(1, 1, 0.5)  # order 1: kappa = ell0/p0
    V = power_law_potential(1.0, 0.9, 1.0)  # class (1.0, 0.9): kappa = 0.9 < 1 ok
    V.potential_class(slow)
    W = PotentialSpec("constant", p0=1.0, ell0=1.0, value=1.0)  # kappa = 1
    with pytest.raises(ValueError):
        W.potential_class(slow)
