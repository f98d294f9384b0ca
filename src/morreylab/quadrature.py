"""Product integration for Duhamel integrals with endpoint singularities.

The integrals have the shape

    I(t) = integral_0^t  A(t - s) [ g(s) ]  ds

where the data g blows up like s^{-b} near s = 0 and the applier A
carries an operator-norm envelope (t - s)^{-a} near s = t, with
a, b in [0, 1).  The rule models the compensated integrand

    H(s) = (t - s)^a s^b A(t - s) g(s)

as piecewise linear between the sample nodes and integrates it exactly
against the kernel (t - s)^{-a} s^{-b}; the kernel moments are
incomplete-Beta differences, so the weights are exact in closed form.
Below the first node the compensated data is extended as a constant,
and for a > 0 the right endpoint uses the constant extension as well so
the applier is never evaluated at zero.
"""

from __future__ import annotations

import numpy as np

__all__ = ["product_weights", "singular_convolve", "kernel_moment"]


def _log_beta(p: float, q: float) -> float:
    from scipy.special import gammaln  # on use: commands that build no weights skip it
    return gammaln(p) + gammaln(q) - gammaln(p + q)


def kernel_moment(t: float, a: float, b: float, k: int, lo, hi):
    """integral_lo^hi (t-s)^{-a} s^{-b+k} ds via regularized incomplete Beta."""
    from scipy.special import betainc
    p, q = 1.0 - b + k, 1.0 - a
    lo = np.minimum(np.maximum(np.asarray(lo, dtype=float) / t, 0.0), 1.0)
    hi = np.minimum(np.maximum(np.asarray(hi, dtype=float) / t, 0.0), 1.0)
    scale = t ** (1.0 - a - b + k) * np.exp(_log_beta(p, q))
    return scale * (betainc(p, q, hi) - betainc(p, q, lo))


def product_weights(nodes, t: float, a: float, b: float, top: str = "envelope") -> np.ndarray:
    """Weights W_j with I(t) ~ sum_j W_j A(t - s_j)[g_j].

    nodes must be strictly increasing, nonnegative, with nodes[-1] == t
    (a node at s = 0 needs b = 0).  The compensation (t - s_j)^a s_j^b
    is folded into the weights, so callers apply A to the raw samples.

    `top` picks the model at the upper endpoint when a > 0:

    - "envelope" never evaluates the applier at tau = 0: the compensated
      data is extended as a constant over the last interval.  Right for
      appliers genuinely singular at 0; with a single node this leaves
      weight zero and drops the O(t^{1-a-b}) initial layer.
    - "identity" treats A(0) as a plain evaluation (semigroups: the
      identity) and uses an ordinary trapezoid on the last interval,
      which keeps second order there for grid-regular integrands.
    """
    s = np.asarray(nodes, dtype=float)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("need at least one node")
    if s[0] < 0.0 or np.any(np.diff(s) <= 0.0):
        raise ValueError("nodes must be nonnegative and strictly increasing")
    if s[0] == 0.0 and b > 0.0:
        raise ValueError("a node at s = 0 needs bounded data there (b = 0)")
    if abs(s[-1] - t) > 1e-12 * max(1.0, t):
        raise ValueError("last node must equal the output time")
    if not (0.0 <= a < 1.0 and 0.0 <= b < 1.0):
        raise ValueError("singularity exponents must lie in [0, 1)")
    if top not in ("envelope", "identity"):
        raise ValueError("top must be 'envelope' or 'identity'")

    k = s.size
    trapezoid_top = top == "identity" and a > 0.0 and k > 1
    hat = np.zeros(k)
    # constant extension of the compensated data below the first node
    hat[0] += kernel_moment(t, a, b, 0, 0.0, s[0])
    if k > 1:
        lo, hi = s[:-1], s[1:]
        if trapezoid_top:
            lo, hi = lo[:-1], hi[:-1]
        if lo.size:
            m0 = kernel_moment(t, a, b, 0, lo, hi)
            m1 = kernel_moment(t, a, b, 1, lo, hi)
            dl = hi - lo
            hat[: lo.size] += (hi * m0 - m1) / dl
            hat[1 : lo.size + 1] += (m1 - lo * m0) / dl
        if a > 0.0 and not trapezoid_top:
            # never evaluate the applier at tau = 0: give the last node's
            # share to its neighbour (constant extension of H near s = t)
            hat[-2] += hat[-1]
            hat[-1] = 0.0
    comp = (t - s) ** a * s**b
    if a > 0.0 and not trapezoid_top:
        comp[-1] = 0.0
    w = hat * comp
    if trapezoid_top:
        half = 0.5 * (s[-1] - s[-2])
        w[-2] += half
        w[-1] += half
    return w


def singular_convolve(samples, nodes, t: float, a: float, b: float, applier):
    """Evaluate the Duhamel integral at time t from time-sampled data.

    samples: sequence of payloads (grid functions, arrays, scalars)
    sampled at `nodes`; applier(tau, payload) realizes A(tau).  Returns
    sum_j W_j applier(t - s_j, samples[j]).
    """
    samples = list(samples)
    s = np.asarray(nodes, dtype=float)
    if len(samples) != s.size:
        raise ValueError("samples and nodes disagree in length")
    w = product_weights(s, t, a, b)
    out = None
    for wj, sj, gj in zip(w, s, samples):
        if wj == 0.0:
            continue
        term = wj * applier(t - sj, gj)
        out = term if out is None else out + term
    if out is None:
        out = 0.0 * applier(t - s[0], samples[0])
    return out
