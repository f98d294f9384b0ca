"""Perturbed semigroup via Picard iteration on the Duhamel formula.

The fixed point of

    F(phi)(t) = S(t) u0 + sum_i integral_0^t S(t - s) V_i phi(s) ds

is computed on a graded time grid t_k = T (k/K)^g with the singular
product-integration rule from `quadrature`, contracting in the weighted
norm  sup_t e^{-theta t} t^{d(alpha, gamma)} ||phi(t)||_alpha.  theta is
chosen from the closed-form contraction bound unless fixed by the
caller.  Every solve runs one sweep engine with one node rule on
stacked (K, ...) arrays, one state per node, and one stacked Morrey scan
norms all K updates of a sweep.  The history sum is taken in a basis
where the base propagator over tau multiplies coefficient f by
e^{-tau r(f)}: Fourier modes for the free semigroup (r = a^mu, real
transforms for real data), or, when perturbations are applied one at a
time, the eigenbasis H = Q Lambda Q^T of the first one's symmetric
discrete generator (r = -lambda), which reaches every lag exactly.  On
a uniform grid with a node at s = 0 the sum is a discrete convolution
in time, taken by FFT along the node axis; other grids use one matrix
product per coefficient.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import GridFunction
from .indices import (
    ScaleIndex,
    ProblemDims,
    choose_alpha,
    from_index,
    smoothing_distance,
)
from .norms import RadiusLadder, _scan
from .potentials import PotentialSpec
from .quadrature import product_weights
from .semigroup import SymbolSpec, apply_semigroup

__all__ = [
    "SolverConfig",
    "Trajectory",
    "multiply",
    "contraction_bound",
    "choose_theta",
    "picard_solve",
    "sequential_solve",
    "evaluate",
    "time_grid",
]

# the most memory the first-stage eigendecomposition may take: five real
# n x n matrices (the generator, its eigenvectors, LAPACK's copy of the
# generator and its 2 n^2 workspace)
_FIRST_STAGE_MAX_BYTES = 3 * 2**30
# the most memory the history sum of one solve may take
_HISTORY_MAX_BYTES = 2**30
# the doubling ladder of choose_theta, and the nodes of evaluate's short re-solves
_THETA_MIN = 1.0
_THETA_MAX = 2.0**24
_SHORT_NODES = 24
# the sweep budget of every solve
_MAX_SWEEPS = 60


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the Picard solver.

    horizon T, K graded nodes t_k = T (k/K)^g, weight parameter theta
    (None selects it from the contraction bound) and the stopping
    tolerance on the weighted residual.
    """

    horizon: float
    nodes: int = 64
    grading: float = 2.0
    theta: float | None = None
    picard_tol: float = 1e-8

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.nodes < 16:
            raise ValueError("need at least 16 time nodes")
        if self.grading < 1.0:
            raise ValueError("grading must be >= 1")
        if self.picard_tol <= 0.0:
            raise ValueError("picard_tol must be positive")


def time_grid(cfg: SolverConfig) -> np.ndarray:
    k = np.arange(1, cfg.nodes + 1, dtype=float)
    return cfg.horizon * (k / cfg.nodes) ** cfg.grading


def multiply(V: PotentialSpec | GridFunction, phi: GridFunction) -> GridFunction:
    """Pointwise multiplication operator of a potential."""
    table = V.on_grid(phi.N, phi.n, phi.L) if isinstance(V, PotentialSpec) else V
    if not table.is_compatible(phi):
        raise ValueError("potential and argument live on different grids")
    return GridFunction(phi.N, phi.n, phi.L, table.values * phi.values)


# -- contraction bound ------------------------------------------------------


def contraction_bound(theta: float, T: float, d_list, d_gamma: float,
                      n_q: int = 96, q_max: float = 60.0):
    """Closed-form upper bounds on the per-perturbation contraction factors

        c_i(theta) = sup_{t <= T} t^{1-d_i} e^{-theta t}
                     integral_0^1 e^{theta t z} (1-z)^{-d_i} z^{-d_gamma} dz,

    namely min over q in (1, q_max] of
    theta^{-1/q'} T^{1/q - d_i} q'^{-1/q'} B(1 - q d_i, 1 - q d_gamma)^{1/q}.
    """
    if not 0.0 <= d_gamma < 1.0:
        raise ValueError(f"d(alpha, gamma) = {d_gamma} must lie in [0, 1)")
    bounds = []
    for d in d_list:
        if not 0.0 <= d < 1.0:
            raise ValueError(f"d(alpha, beta) = {d} must lie in [0, 1)")
        inv_qp, t_power, rest = _q_terms(d, d_gamma, n_q, q_max)
        logs = -math.log(theta) * inv_qp + t_power * math.log(T) + rest
        bounds.append(float(np.exp(logs.min())))
    return bounds


@functools.lru_cache(maxsize=64)
def _q_terms(d: float, d_gamma: float, n_q: int, q_max: float):
    """The parts of contraction_bound's log on its q grid that do not
    depend on theta or T: 1/q', 1/q - d, and -log(q')/q' + log B / q, the
    log-Beta row from math.lgamma once per exponent pair."""
    q_hi = min([q_max] + [1.0 / x for x in (d, d_gamma) if x > 0.0])
    qs = 1.0 + (q_hi - 1.0) * np.linspace(1e-4, 1.0 - 1e-6, n_q) ** 2
    qp = qs / (qs - 1.0)
    p, r = 1.0 - qs * d, 1.0 - qs * d_gamma
    log_beta = np.array([math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
                         for x, y in zip(p, r)])
    terms = (1.0 / qp, 1.0 / qs - d, -np.log(qp) / qp + log_beta / qs)
    for x in terms:
        x.flags.writeable = False  # shared by every call on the pair
    return terms


def choose_theta(norm_bound: float, d_list, d_gamma: float, T: float):
    """Smallest theta on a doubling ladder with R sum_i c_i(theta) <= 1/2."""
    if norm_bound < 0.0:
        raise ValueError("norm bound must be nonnegative")
    theta = _THETA_MIN
    while True:
        total = norm_bound * sum(contraction_bound(theta, T, d_list, d_gamma))
        if total <= 0.5:
            return theta, total
        if theta >= _THETA_MAX:
            raise RuntimeError(
                f"no contraction on the theta ladder up to {_THETA_MAX:g}: "
                f"R sum c_i = {total:.3g} there"
            )
        theta *= 2.0


def _theta(cfg: SolverConfig, norm_bound: float, d_list, d_gamma: float):
    """theta and the predicted contraction ratio at it (fixed theta or the ladder)."""
    if cfg.theta is None:
        return choose_theta(norm_bound, d_list, d_gamma, cfg.horizon)
    return cfg.theta, norm_bound * sum(contraction_bound(cfg.theta, cfg.horizon, d_list, d_gamma))


# -- the sweep engine ------------------------------------------------------------


def _weights(d_list, d_gamma: float, times):
    """Product weights W[i, k, j] of node k over the convolution nodes s_j,
    and those nodes, both read-only and shared by every solve on the same
    exponents and time grid (the fixed steps of evolve_norms repeat one).

    Data bounded at s = 0 (d_gamma = 0) get a node there carrying V_i u0,
    which restores second order at the initial layer.
    """
    return _weight_table(tuple(d_list), d_gamma, times.tobytes())


@functools.lru_cache(maxsize=4)
def _weight_table(d_list, d_gamma: float, times_bytes: bytes):
    times = np.frombuffer(times_bytes)
    conv = np.concatenate([[0.0], times]) if d_gamma == 0.0 else times
    W = np.stack([product_weights(conv, a, d_gamma) for a in d_list])
    W.flags.writeable = conv.flags.writeable = False
    return W, conv


def _diagonals(K: int, J: int):
    """Lag diagonals j = k + off - lag (off = J - K) of a K x J weight
    table: (lag, first node k0, first convolution node j0, length)."""
    off = J - K
    for lag in range(J):
        k0 = max(lag - off, 0)
        yield lag, k0, k0 + off - lag, K - k0


def _sweep(u0, base, tables, d_list, d_gamma: float, times, summer, residual,
           stop: float):
    """Picard sweeps u_k = base_k + sum_i sum_j W_i[k, j] P(t_k - s_j)[V_i u_j]
    on stacked arrays, one state per node along axis 0.

    `summer(tables, W, conv)` builds, once per solve, the history
    `history(nodes)`: it maps the stacked states at the convolution nodes
    (u0 first when s = 0 is one, the same at every call) to the stacked
    sums over j.  The iterate is kept in that stack and updated in place.
    `residual(change)` maps the stacked update of a sweep to one weighted
    norm per node.  Returns the states and the per-sweep residuals, and
    raises on blow-up (a residual that is not finite, which a state that
    is not finite gives too) and when _MAX_SWEEPS run out.
    """
    W, conv = _weights(d_list, d_gamma, times)
    history = summer(tables, W, conv)
    nodes = np.empty((conv.size,) + base.shape[1:], dtype=np.result_type(u0, base, *tables))
    nodes[: conv.size - times.size] = u0
    current = nodes[conv.size - times.size:]
    current[...] = base
    residuals = []
    for sweep in range(_MAX_SWEEPS):
        new = history(nodes)
        new += base
        per_node = residual(new - current)
        if not np.isfinite(per_node).all():
            k = int(np.argmin(np.isfinite(per_node)))
            raise RuntimeError(f"blow-up at t = {times[k]:.6g} during sweep {sweep}")
        worst = float(np.max(per_node))
        current[...] = new
        del new  # not alive during the next history sum
        residuals.append(worst)
        if worst <= stop:
            return current, residuals
    raise RuntimeError(f"no contraction: residual {residuals[-1]:.3e} above {stop:.3e} "
                       f"after {_MAX_SWEEPS} sweeps")


def _spectral_sum(rates: np.ndarray, forward, inverse):
    """History sums in a basis that diagonalises the base generator.

    `forward` maps (J, ...) stacked states to (J, F) coefficients,
    `inverse` maps (K, F) back, and the base propagator over tau
    multiplies coefficient f by e^{-tau rates[f]}.  On a uniform grid
    with a node at s = 0 the weights depend on the lag alone off the
    s = 0 column, so the sum is a discrete convolution in time (Lubich,
    Numer. Math. 52, 1988): lag kernels C_i[l, f] = W_i[l, 1] e^{-l h rates[f]}
    (column 1 holds every lag's weight, each at its first row; other rows
    agree with it to about 1e-14), transformed once at length 2K, give a
    sweep from one FFT product along the node axis; the s = 0 column is
    summed once.  Other grids take one product per coefficient with
    G_i[f, k, j] = W_i[k, j] e^{-(t_k - s_j) rates[f]}, built one lag
    diagonal at a time.  Both paths check their bytes first.
    """

    def summer(tables, W, conv):
        I, K, J = W.shape
        F, times = rates.size, conv[J - K:]
        uniform = J == K + 1 and np.ptp(np.diff(conv)) <= 1e-12 * conv[-1]
        # the lag kernels, a sweep's two length-2K stacks, its transformed data
        # and the s = 0 sum; or the dense operator
        need = (2 * I + 6) * F * K * 16 if uniform else I * F * K * J * rates.itemsize
        if need > _HISTORY_MAX_BYTES:
            raise ValueError(f"history sum for {K} nodes needs {need} bytes, "
                             f"above the {_HISTORY_MAX_BYTES}-byte limit")
        if uniform:
            C = np.fft.fft(W[:, :, 1, None] * np.exp(-np.multiply.outer(times - conv[1], rates)),
                           2 * K, axis=1)
            start = None

            def history(nodes):
                nonlocal start
                if start is None:
                    decay = np.exp(-np.multiply.outer(times, rates))
                    start = sum(W_i[:, :1] * decay * forward(tab * nodes[:1])
                                for W_i, tab in zip(W, tables))
                acc = None
                for C_i, tab in zip(C, tables):
                    Z = np.fft.fft(forward(tab * nodes[1:]), 2 * K, axis=0)
                    Z *= C_i
                    acc = Z if acc is None else np.add(acc, Z, out=acc)
                    del Z
                out = np.fft.ifft(acc, axis=0, out=acc)[:K]
                out += start
                return inverse(out.real if np.isrealobj(start) else out)

            return history

        G = np.zeros((I, F, K, J), dtype=rates.dtype)
        for _, k0, j0, size in _diagonals(K, J):
            tau = times[k0:] - conv[j0:j0 + size]
            if np.ptp(tau) <= 1e-12 * tau.max():
                tau = tau[:1]
            k, j = np.arange(k0, K), np.arange(j0, j0 + size)
            G[:, :, k, j] = W[:, None, k, j] * np.exp(-np.multiply.outer(rates, tau))

        def history(nodes):
            acc = 0.0
            for G_i, tab in zip(G, tables):
                X = forward(tab * nodes).reshape(J, F, 1).transpose(1, 0, 2)
                # a real G acts on the real and imaginary parts alike
                split = np.isrealobj(G) and np.iscomplexobj(X)
                term = (G_i @ X.view(float)).view(complex) if split else G_i @ X
                del X  # at most two stacks of this size alive at once
                acc += term
                del term
            return inverse(acc.transpose(1, 0, 2).reshape(K, F))

        return history

    return summer


def _fourier_sum(a_mu: np.ndarray, real: bool):
    """The free semigroup's history sums: multipliers e^{-tau a^mu} in hat
    space with every axis of a state transformed; `real` data, potentials
    and symbol take the real transforms on the half spectrum."""
    N, shape = a_mu.ndim, a_mu.shape
    axes = tuple(range(1, N + 1))
    if real:
        a_mu = a_mu[..., : shape[-1] // 2 + 1]
        forward, inverse = np.fft.rfftn, functools.partial(np.fft.irfftn, s=shape)
    else:
        forward, inverse = np.fft.fftn, np.fft.ifftn
    spec = a_mu.shape
    return _spectral_sum(a_mu.ravel(),
                         lambda x: forward(x, axes=axes).reshape(len(x), -1),
                         lambda y: inverse(y.reshape((len(y),) + spec), axes=axes))


# -- trajectories -------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed approximation of the perturbed evolution of one datum."""

    times: np.ndarray
    states: tuple
    gamma: ScaleIndex
    alpha: ScaleIndex
    theta: float
    predicted_ratio: float
    residual_history: tuple
    config: SolverConfig
    potentials: tuple
    dims: ProblemDims
    symbol: SymbolSpec
    mu: float
    u0: GridFunction

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("trajectory times must be strictly increasing with t_1 > 0")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def node_near(self, t: float) -> int | None:
        j = int(np.argmin(np.abs(self.times - t)))
        return j if abs(self.times[j] - t) <= 1e-12 * max(1.0, t) else None


def _resolve_indices(potentials, gamma, dims):
    classes = [V.potential_class(dims) for V in potentials]
    alpha = choose_alpha(gamma, classes) if classes else gamma
    d_gamma = smoothing_distance(alpha, gamma)
    if not 0.0 <= d_gamma < 1.0:
        raise ValueError(f"initial datum too rough for the working index: d={d_gamma}")
    d_list = [cls.kappa for cls in classes]
    return alpha, d_gamma, d_list


def _weighted_residual(alpha, dims, theta, times, d_gamma, base, grid, tol):
    """Per-node residuals in the contraction norm, all K of a sweep from one
    stacked Morrey scan, and the level that stops the sweeps: tol relative
    to the size of the base sweep in that norm, so large data do not stall
    on roundoff."""
    mp = from_index(alpha, dims)
    ladder = RadiusLadder.for_grid(grid)
    t_weight = np.exp(-theta * times) * times**d_gamma

    def residual(change):
        return t_weight * _scan(grid, change, mp.p, mp.ell, ladder)

    return residual, tol * max(1.0, float(np.max(residual(base))))


def picard_solve(u0: GridFunction, potentials, cfg: SolverConfig, gamma: ScaleIndex,
                 dims: ProblemDims, symbol: SymbolSpec, mu: float) -> Trajectory:
    """Fixed point of the Duhamel map on the graded grid.

    With no perturbation the first sweep already returns the base
    evolution.  Raises on NaN/overflow (with the blow-up time) and when
    the weighted residual fails to contract within _MAX_SWEEPS sweeps.
    """
    potentials = tuple(potentials)
    alpha, d_gamma, d_list = _resolve_indices(potentials, gamma, dims)
    times = time_grid(cfg)
    base = apply_semigroup(u0, times, mu, symbol)
    if not potentials:
        return Trajectory(times, tuple(base), gamma, alpha, _THETA_MIN, 0.0, (0.0,),
                          cfg, potentials, dims, symbol, mu, u0)

    norm_bound = max(V.measured_norm(u0.N, u0.n, u0.L) for V in potentials)
    theta, predicted = _theta(cfg, norm_bound, d_list, d_gamma)
    base = np.stack([b.values for b in base])
    residual, stop = _weighted_residual(alpha, dims, theta, times, d_gamma, base, u0,
                                        cfg.picard_tol)
    tables = [V.on_grid(u0.N, u0.n, u0.L).values for V in potentials]
    a_mu = symbol.power(mu)
    real = all(np.isrealobj(x) for x in [u0.values, a_mu, *tables])
    values, history = _sweep(u0.values, base, tables, d_list, d_gamma, times,
                             _fourier_sum(a_mu, real), residual, stop)
    states = tuple(GridFunction(u0.N, u0.n, u0.L, v) for v in values)
    return Trajectory(times, states, gamma, alpha, theta, predicted,
                      tuple(history), cfg, potentials, dims, symbol, mu, u0)


# -- sequential (iterated) perturbations --------------------------------------


def _propagator_matrices(V: PotentialSpec, symbol: SymbolSpec, mu: float):
    """The first stage's eigenbasis (lam, Q), 1D grids only.

    With a real (even) symbol and a real potential the discrete generator
    H = diag(V) - F^{-1} diag(a^mu) F is a real symmetric matrix, and one
    symmetric eigendecomposition H = Q diag(lam) Q^T (of its lower
    triangle) gives the propagator over every lag, S_V(tau) =
    Q e^{tau lam} Q^T: exact to roundoff and well conditioned (Moler &
    Van Loan, SIAM Rev. 45, 2003).  The working set (H, Q, and LAPACK's
    copy of H and its 2 n^2 workspace) is checked before any n x n array
    is built.
    """
    if symbol.N != 1:
        raise ValueError("matrix propagators are only built for 1D grids")
    n = symbol.n
    need = 5 * n * n * 8
    if need > _FIRST_STAGE_MAX_BYTES:
        raise ValueError(f"first-stage propagator at n={n} needs {need} bytes, "
                         f"above the {_FIRST_STAGE_MAX_BYTES}-byte limit")
    a_mu = symbol.power(mu)
    table = V.on_grid(1, n, symbol.L).values
    for name, x in (("symbol", a_mu), ("potential", table)):
        if np.iscomplexobj(x) and np.any(x.imag):
            raise ValueError(f"the first-stage propagator needs a real {name} table")
    H = -np.fft.irfft(a_mu.real[: n // 2 + 1, None] * np.fft.rfft(np.eye(n), axis=0), n, axis=0)
    H[np.diag_indices(n)] += table.real
    return np.linalg.eigh(H)


def sequential_solve(u0: GridFunction, order, cfg: SolverConfig, gamma: ScaleIndex,
                     dims: ProblemDims, symbol: SymbolSpec, mu: float) -> Trajectory:
    """Apply two perturbations one at a time.

    The first potential's evolution becomes the base propagator for the
    second solve, on any time grid: in the first stage's eigenbasis
    e^{tau H} = Q e^{tau Lambda} Q^T serves every lag t_k - s_j, so the
    base is Q e^{t_k Lambda} Q^T u0 and the sweeps take the same history
    sums as the joint solve, with rates -lambda.
    """
    order = tuple(order)
    if len(order) != 2:
        raise ValueError(f"sequential composition takes exactly two perturbations, "
                         f"got {len(order)}")

    V1, V2 = order
    alpha, d_gamma, d_list = _resolve_indices(order, gamma, dims)
    lam, Q = _propagator_matrices(V1, symbol, mu)
    times = time_grid(cfg)
    theta, predicted = _theta(cfg, V2.measured_norm(u0.N, u0.n, u0.L), d_list[1:], d_gamma)

    base = (np.exp(np.multiply.outer(times, lam)) * (u0.values @ Q)) @ Q.T
    residual, stop = _weighted_residual(alpha, dims, theta, times, d_gamma, base, u0,
                                        cfg.picard_tol)
    summer = _spectral_sum(-lam, lambda x: x @ Q, lambda y: y @ Q.T)
    values, history = _sweep(u0.values, base, [V2.on_grid(u0.N, u0.n, u0.L).values], d_list[1:],
                             d_gamma, times, summer, residual, stop)
    states = tuple(GridFunction(u0.N, u0.n, u0.L, v) for v in values)
    return Trajectory(times, states, gamma, alpha, theta, predicted, tuple(history),
                      cfg, order, dims, symbol, mu, u0)


def evaluate(traj: Trajectory, t: float) -> GridFunction:
    """Value of the perturbed evolution at a time t in (0, horizon].

    Node times return the stored state; other times re-solve from the
    preceding node (from the datum before the first one), so the check
    of the semigroup property stays independent of any interpolation.
    """
    T = traj.horizon
    if not 0.0 < t <= T * (1.0 + 1e-12):
        raise ValueError(f"evaluate needs 0 < t <= horizon {T:g}, got t = {t:g}")
    k = traj.node_near(t)
    if k is not None:
        return traj.states[k]
    below = np.flatnonzero(traj.times < t * (1.0 - 1e-12))
    if below.size:
        j = int(below[-1])
        datum, horizon, gamma = traj.states[j], t - float(traj.times[j]), traj.alpha
    else:
        datum, horizon, gamma = traj.u0, t, traj.gamma
    nodes = traj.config.nodes if horizon > 0.5 * T else _SHORT_NODES
    cfg = replace(traj.config, horizon=horizon, nodes=nodes, theta=traj.theta)
    return picard_solve(datum, traj.potentials, cfg, gamma, traj.dims,
                        traj.symbol, traj.mu).states[-1]
