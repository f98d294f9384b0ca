"""Product integration for Duhamel integrals with endpoint singularities.

The integrals have the shape

    I(t) = integral_0^t  P(t - s) [ g(s) ]  ds

where the data g blow up like s^{-b} near s = 0 and the semigroup P
carries an operator-norm envelope (t - s)^{-a} near s = t, with
a, b in [0, 1).  The rule models the compensated integrand

    H(s) = (t - s)^a s^b P(t - s) g(s)

as piecewise linear between the sample nodes and integrates it exactly
against the kernel (t - s)^{-a} s^{-b}; below the first node the
compensated data is extended as a constant.  For a > 0 the last interval
takes an ordinary trapezoid on P(t - s) g(s) instead, with P(0) the
identity, which keeps second order there for grid-regular integrands.

The kernel moments need no special functions.  On graded nodes every
interval lies at least its own width from s = t, and, once split
geometrically towards s = 0, from s = 0 too, so Gauss-Legendre panels
converge like rho^{-2n} with rho >= 3 + 2 sqrt(2) (Trefethen, SIAM Rev.
50, 2008).  The constant panel [0, s_0] is a binomial series in s_0 / t
<= 1/2.
"""

from __future__ import annotations

import numpy as np

__all__ = ["product_weights"]

# Gauss-Legendre points per panel: rho^{-2n} = 4e-19 at rho = 3 + 2 sqrt(2)
_GAUSS_POINTS = 12
# binomial terms of the constant panel: the tail is below 2^-64 at s_0 / t <= 1/2
_SERIES_TERMS = 64
# the most output times times panel points one block of rows evaluates at once
_BLOCK_POINTS = 2**16


def product_weights(nodes, a: float, b: float) -> np.ndarray:
    """The K x J table W with I(t_k) ~ sum_j W[k, j] P(t_k - s_j)[g(s_j)].

    The J nodes s_j must be nonnegative, strictly increasing and graded:
    each gap (the first from 0) at least the one before it, as on
    t_k = T (k/K)^g with g >= 1.  The output times t_k are the K positive
    nodes, and row k uses the nodes up to t_k.  A node at s = 0 needs
    bounded data there (b = 0).  The compensation (t - s_j)^a s_j^b is
    folded into the weights, so callers apply P to the raw samples.
    """
    s = np.asarray(nodes, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("need at least one node")
    if s[0] < 0.0 or np.any(np.diff(s) <= 0.0):
        raise ValueError("nodes must be nonnegative and strictly increasing")
    if s[0] == 0.0 and b > 0.0:
        raise ValueError("a node at s = 0 needs bounded data there (b = 0)")
    if not (0.0 <= a < 1.0 and 0.0 <= b < 1.0):
        raise ValueError("singularity exponents must lie in [0, 1)")
    off = int(s[0] == 0.0)
    gaps = np.diff(s, prepend=0.0)[off:]
    if np.any(gaps[1:] < gaps[:-1] * (1.0 - 1e-9)):
        raise ValueError("node gaps must not shrink (graded nodes)")

    t, at_t = s[off:], np.arange(off, s.size)  # output times and their node index
    # panels [s_j, s_{j+1}] in row k: all below t_k, or all but the last when a > 0
    used = np.arange(s.size - 1) < (at_t - (a > 0.0))[:, None]
    left, right = _panel_moments(s, t, a, b)
    hat = np.zeros((t.size, s.size))
    hat[:, :-1] = np.where(used, left, 0.0)
    hat[:, 1:] += np.where(used, right, 0.0)
    if s[0] > 0.0:
        n = np.arange(_SERIES_TERMS)
        rising = np.cumprod(np.concatenate([[1.0], (a + n[:-1]) / n[1:]]))  # (a)_n / n!
        series = np.power.outer(s[0] / t, n) @ (rising / (n + 1.0 - b))
        hat[:, 0] += t**-a * s[0] ** (1.0 - b) * series
    W = hat * np.maximum(np.subtract.outer(t, s), 0.0) ** a * s**b
    if a > 0.0:
        k = np.flatnonzero(at_t > 0)
        half = 0.5 * (s[at_t[k]] - s[at_t[k] - 1])
        W[k, at_t[k] - 1] += half
        W[k, at_t[k]] += half
    return W


def _panel_moments(s, t, a: float, b: float):
    """Kernel moments of the two hat halves (s_{j+1} - s) / h_j and
    (s - s_j) / h_j on each panel [s_j, s_{j+1}], for every output time:
    two (K, J - 1) arrays, entries whose panel reaches past t_k unused.

    With b > 0 a panel wider than its distance from 0 is cut into
    geometric pieces of ratio at most 2.
    """
    lo, hi = s[:-1], s[1:]
    owner, p_lo = np.arange(lo.size), lo  # each piece's panel and left end
    if b > 0.0:
        pieces = np.maximum(np.ceil(np.log2(hi / lo)), 1).astype(int)
        owner = np.repeat(owner, pieces)
        i = np.arange(owner.size) - (np.cumsum(pieces) - pieces)[owner]
        p_lo = lo[owner] * (hi / lo)[owner] ** (i / pieces[owner])
    p_hi = np.append(p_lo[1:], hi[-1:])

    x, w = np.polynomial.legendre.leggauss(_GAUSS_POINTS)  # at call: no BLAS set-up on import
    half = 0.5 * (p_hi - p_lo)[:, None]
    pts = 0.5 * (p_hi + p_lo)[:, None] + half * x
    wts = half * w * pts**-b / (hi - lo)[owner, None]
    w_left = (wts * (hi[owner, None] - pts)).ravel()
    w_right = (wts * (pts - lo[owner, None])).ravel()
    starts = np.searchsorted(owner, np.arange(lo.size)) * x.size
    if a == 0.0:
        shape = (t.size, lo.size)
        return (np.broadcast_to(np.add.reduceat(w_left, starts), shape),
                np.broadcast_to(np.add.reduceat(w_right, starts), shape))

    pts = pts.ravel()
    left, right = np.zeros((2, t.size, lo.size))
    rows = max(1, _BLOCK_POINTS // max(pts.size, 1))
    for k0 in range(0, t.size, rows):
        k1 = min(k0 + rows, t.size)
        below = int(np.searchsorted(hi, t[k1 - 1]))  # panels below the block's last t_k
        end = starts[below] if below < lo.size else pts.size
        if below:
            # |t_k - s|: points past t_k only reach panels that row k leaves unused
            E = np.abs(np.subtract.outer(t[k0:k1], pts[:end])) ** -a
            left[k0:k1, :below] = np.add.reduceat(E * w_left[:end], starts[:below], axis=1)
            E *= w_right[:end]
            right[k0:k1, :below] = np.add.reduceat(E, starts[:below], axis=1)
    return left, right
