import numpy as np
import pytest

from morreylab.grids import GridFunction


def test_geometry():
    g = GridFunction.constant(1.0, 1, 64, 2.0)
    assert g.h * g.n == pytest.approx(2 * g.L)
    assert g.axis()[0] == -2.0
    assert g.axis()[g.n // 2] == 0.0


def test_dirac_mass():
    for N in (1, 2):
        d = GridFunction.dirac(N, 64, 4.0)
        assert d.mass() == pytest.approx(1.0)


def test_validation():
    with pytest.raises(ValueError):
        GridFunction(1, 60, 1.0, np.zeros(60))  # not a power of two
    with pytest.raises(ValueError):
        GridFunction(1, 4, 1.0, np.zeros(4))  # too small
    with pytest.raises(ValueError):
        GridFunction(1, 8, 1.0, np.full(8, np.nan))
    with pytest.raises(ValueError):
        GridFunction(3, 8, 1.0, np.zeros((8, 8, 8)))


def test_values_frozen():
    g = GridFunction.constant(1.0, 1, 8, 1.0)
    with pytest.raises(ValueError):
        g.values[0] = 2.0


def test_values_copied_only_when_not_c_contiguous():
    """A C-contiguous array is kept as it is; a strided view becomes a
    C-contiguous copy of the same values."""
    kept = np.zeros(8)
    assert GridFunction(1, 8, 1.0, kept).values is kept
    strided = np.arange(16.0)[::2]
    g = GridFunction(1, 8, 1.0, strided)
    assert g.values.flags.c_contiguous and np.array_equal(g.values, strided)
    assert not g.values.flags.writeable and strided.flags.writeable
    with pytest.raises(ValueError, match="non-finite"):
        GridFunction(1, 8, 1.0, np.full(8, np.inf))


def test_arithmetic_and_mismatch():
    a = GridFunction.constant(2.0, 1, 16, 1.0)
    b = GridFunction.constant(3.0, 1, 16, 1.0)
    assert np.all((a + b).values == 5.0)
    assert np.all((a * b).values == 6.0)
    assert np.all((2.0 * a).values == 4.0)
    c = GridFunction.constant(1.0, 1, 32, 1.0)
    with pytest.raises(ValueError):
        a + c

