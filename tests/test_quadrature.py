import math
from pathlib import Path

import numpy as np
import pytest

from morreylab.quadrature import product_weights


def graded(K, g=2.0, t=1.0):
    return t * (np.arange(1, K + 1) / K) ** g


def modelled_part(W, s, a, b):
    """Per row k >= 1 (output node kk): sum over j < kk of W[k, j] times the
    kernel (t - s_j)^{-a} s_j^{-b}, less the trapezoid half the last
    interval gives node kk - 1 when a > 0.  The rule integrates the
    constant compensated integrand exactly, so this is the kernel's
    integral from 0 to s_{kk-1} (to t when a = 0)."""
    off = int(s[0] == 0.0)
    out = []
    for k in range(1 - off, W.shape[0]):
        kk, t = k + off, s[k + off]
        upto = kk if a > 0.0 else kk + 1
        f = np.maximum(t - s[:upto], 0.0) ** -a * np.where(s[:upto] > 0, s[:upto], 1.0) ** -b
        val = W[k, :upto] @ f
        if a > 0.0:
            val -= 0.5 * (s[kk] - s[kk - 1]) * f[-1]
        out.append((val, s[kk - 1] / t if a > 0.0 else 1.0, t))
    return out


def incomplete_beta(x, a, b, t):
    """integral_0^{x t} (t - s)^{-a} s^{-b} ds."""
    from scipy.special import beta, betainc

    return t ** (1 - a - b) * beta(1 - b, 1 - a) * betainc(1 - b, 1 - a, x)


def test_constant_data_identity_applier():
    """With a = b = 0 every row integrates constant data exactly: W[k] sums to t_k."""
    s = graded(100, 1.0)
    W = product_weights(s, 0.0, 0.0)
    assert np.max(np.abs(W.sum(axis=1) - s)) <= 1e-15


def test_beta_half_half():
    s = graded(128)
    for val, x, t in modelled_part(product_weights(s, 0.5, 0.5), s, 0.5, 0.5):
        assert val == pytest.approx(2.0 * math.asin(math.sqrt(x)), rel=1e-13, abs=0)


def test_sqrt_singularity():
    s = graded(512)
    for val, x, t in modelled_part(product_weights(s, 0.5, 0.0), s, 0.5, 0.0):
        assert val == pytest.approx(2.0 * t**0.5 * (1.0 - math.sqrt(1.0 - x)), rel=1e-13, abs=0)


def test_general_beta_against_quadrature():
    """Exactness on data matching the modelled singular profile, every row."""
    for a, b in ((0.3, 0.6), (0.0, 0.9), (0.8, 0.0)):
        s = graded(96)
        for val, x, t in modelled_part(product_weights(s, a, b), s, a, b):
            assert val == pytest.approx(incomplete_beta(x, a, b, t), rel=1e-12, abs=0)


def test_kernel_moment_matches_quad():
    """Entries of a table over their compensation (t - s_j)^a s_j^b are the
    kernel's moments against the hat functions: QUADPACK agrees, with the
    algebraic weight on the panel [0, s_0] that holds s^{-b}."""
    from scipy.integrate import quad

    for a, b in ((0.5, 0.25), (0.2, 0.8)):
        s = graded(8)
        W = product_weights(s, a, b)
        k = 6
        t = s[k]

        def kernel(x):
            return (t - x) ** -a * x**-b

        def moment(lo, hi, weight):
            return quad(lambda x: kernel(x) * weight(x), lo, hi, epsabs=0, epsrel=1e-13,
                        limit=200)[0]

        for j in range(k - 1):  # nodes whose hat lies below the last interval
            want = moment(s[j], s[j + 1], lambda x: (s[j + 1] - x) / (s[j + 1] - s[j]))
            if j:
                want += moment(s[j - 1], s[j], lambda x: (x - s[j - 1]) / (s[j] - s[j - 1]))
            else:
                want += quad(lambda x: (t - x) ** -a, 0.0, s[0], weight="alg",
                             wvar=(-b, 0.0), epsabs=0, epsrel=1e-13)[0]
            got = W[k, j] / ((t - s[j]) ** a * s[j] ** b)
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_weights_validation():
    with pytest.raises(ValueError):
        product_weights([0.5, 0.4, 1.0], 0.0, 0.0)  # not increasing
    with pytest.raises(ValueError):
        product_weights([0.5, 0.9, 1.0], 0.0, 0.0)  # gaps shrink
    with pytest.raises(ValueError):
        product_weights([0.5, 1.0], 1.0, 0.0)  # a >= 1
    with pytest.raises(ValueError):
        product_weights([0.0, 1.0], 0.0, 0.5)  # zero node with b > 0
    with pytest.raises(ValueError):
        product_weights([], 0.0, 0.0)


def test_identity_top_weight_is_positive():
    """For a > 0 the last interval is a trapezoid with P(0) the identity:
    the node at t gets half the last gap, not the zero a (t - s)^a
    compensation would give it."""
    s = graded(32)
    W = product_weights(s, 0.4, 0.0)
    k = np.arange(1, 32)
    assert np.array_equal(W[k, k], 0.5 * (s[k] - s[k - 1])) and W[0, 0] == 0.0


def test_single_node_edge():
    # a > 0 with one node: the initial-layer contribution is dropped
    assert product_weights([1.0], 0.5, 0.0)[0, 0] == 0.0
    # a = 0 with one node: constant extension over the whole interval
    assert product_weights([1.0], 0.0, 0.0)[0, 0] == pytest.approx(1.0)
    assert product_weights([1.0], 0.0, 0.5)[0, 0] == pytest.approx(2.0)


def test_zero_node_allowed_for_bounded_data():
    s = np.concatenate([[0.0], graded(16)])
    W = product_weights(s, 0.0, 0.0)
    assert W.shape == (16, 17)
    assert np.max(np.abs(W.sum(axis=1) - s[1:])) <= 1e-15


# name: (a, b, K, grading, horizon); b = 0 puts a node at s = 0
REFERENCE_TABLES = {
    "a0_b0_K256_g1": (0.0, 0.0, 256, 1.0, 0.25),
    "a0.3_b0_K256_g1": (0.3, 0.0, 256, 1.0, 0.25),
    "a0.25_b0.0583_K192_g2": (0.25, 0.05833333333333332, 192, 2.0, 3.2),
    "a0.15_b0.025_K64_g1": (0.15, 0.024999999999999994, 64, 1.0, 0.25),
    "a0.25_b0_K16_g1": (0.25, 0.0, 16, 1.0, 0.25),
    "a0.3_b0.1_K64_g4": (0.3, 0.1, 64, 4.0, 0.25),
    "a0_b0.9_K32_g3": (0.0, 0.9, 32, 3.0, 1.0),
}


def reference_table(name, K, J):
    ref = np.load(Path(__file__).parent / "data" / "weight_reference.npz")
    if name + ".lag" in ref:
        lag, col0 = ref[name + ".lag"], ref[name + ".col0"]
        k, j = np.indices((K, J))
        R = np.where(j == 0, col0[k], lag[np.clip(k - j + 1, 0, K - 1)])
        return np.where(j <= k + 1, R, 0.0)
    R = np.zeros((K, J))
    R[np.tril_indices(K, J - K, J)] = ref[name]
    return R


@pytest.mark.parametrize("name", sorted(REFERENCE_TABLES))
def test_weight_tables_match_40_digit_reference(name):
    """Every nonzero entry within 1e-12 relative of the exact rule (the
    per-row incomplete-Beta differences it replaced were off by up to
    4.7e-11): the registry's exponent sets and shapes, a = 0.3 at K = 256,
    a grading-4 table and an a = 0 table with b near 1.

    tests/data/weight_reference.npz was made once with mpmath 1.3.0 at
    40 digits from the float64 nodes t_k = T (k/K)^g (a node at 0 when
    b = 0).  Entry (k, j), with t = s[kk] the output node, is

        mom = lambda m, lo, hi: t**(1-a-b+m) * mp.betainc(1-b+m, 1-a, lo/t, hi/t)
        h = (mom(0, 0, s[0]) if j == 0 and s[0] > 0 else 0)
        last = kk - (a > 0)                    # panels below it are modelled
        if j < last:                           # left hat half, panel j
            h += (s[j+1] mom(0, s[j], s[j+1]) - mom(1, s[j], s[j+1])) / (s[j+1] - s[j])
        if 1 <= j <= last:                     # right hat half, panel j - 1
            h += (mom(1, s[j-1], s[j]) - s[j-1] mom(0, s[j-1], s[j])) / (s[j] - s[j-1])
        w = h (t - s[j])**a s[j]**b  (+ (s[kk] - s[kk-1]) / 2 if a > 0, kk > 0, j >= kk - 1)

    stored as the row-major lower triangle, except the uniform K = 256
    tables with a node at 0, stored as "name.col0" (column 0 of every
    row) and "name.lag" (lag weights, the last row read backwards from
    node J - 1 to node 1), which give every other entry.
    """
    a, b, K, g, T = REFERENCE_TABLES[name]
    s = graded(K, g, T)
    if b == 0.0:
        s = np.concatenate([[0.0], s])
    W = product_weights(s, a, b)
    R = reference_table(name, K, s.size)
    nz = R != 0.0
    assert np.all(W[~nz] == 0.0)
    assert np.max(np.abs(W[nz] - R[nz]) / np.abs(R[nz])) <= 1e-12
