"""Perturbed semigroup via Picard iteration on the Duhamel formula.

The fixed point of

    F(phi)(t) = S(t) u0 + sum_i integral_0^t S(t - s) V_i phi(s) ds

is computed on a graded time grid t_k = T (k/K)^g with the singular
product-integration rule from `quadrature`, contracting in the weighted
norm  sup_t e^{-theta t} t^{d(alpha, gamma)} ||phi(t)||_alpha.  theta is
chosen from the closed-form contraction bound unless fixed by the
caller.  Every solve runs one sweep engine with one node rule on
stacked (K, ...) arrays, one state per node; only the history sum
differs, and one stacked Morrey scan norms all K updates of a sweep.
The joint solve sums Fourier multipliers in hat space, one matrix
product per frequency, with real transforms for real data.
Two-potential evolutions can also be built sequentially, one
perturbation at a time: the first-stage propagator over one time step is
the engine's fixed point with the identity matrix as datum, and the
second stage reaches every lag with powers of it (the semigroup
property).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .grids import GridFunction
from .indices import (
    ScaleIndex,
    ProblemDims,
    choose_alpha,
    from_index,
    smoothing_distance,
)
from .norms import RadiusLadder, _scan, morrey_norm
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

# first-stage sub-steps on [0, t_1], and the most memory its working set
# may take: four stacks of _SUB_NODES + 1 real n x n matrices, base and
# iterate throughout and two more within a sweep (weighted data and their
# half-spectrum hats, the hats and their product with G, or the new
# iterate and its update)
_SUB_NODES = 32
_FIRST_STAGE_MAX_BYTES = 3 * 2**30
# the most memory the history operator of one solve may take
_HISTORY_MAX_BYTES = 2**30
# the doubling ladder of choose_theta, and the nodes of evaluate's short re-solves
_THETA_MIN = 1.0
_THETA_MAX = 2.0**24
_SHORT_NODES = 24


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the Picard solver.

    horizon T, K graded nodes t_k = T (k/K)^g, weight parameter theta
    (None selects it from the contraction bound), stopping tolerance on
    the weighted residual, the sweep budget, and whether to estimate the
    discretisation error against a half-node solve.
    """

    horizon: float
    nodes: int = 64
    grading: float = 2.0
    theta: float | None = None
    picard_tol: float = 1e-8
    max_sweeps: int = 60
    estimate_tolerance: bool = False

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.nodes < 16:
            raise ValueError("need at least 16 time nodes")
        if self.estimate_tolerance and (self.nodes % 2 or self.nodes < 32):
            raise ValueError(f"estimate_tolerance compares with a half-node solve, which "
                             f"needs an even node count of at least 32, got {self.nodes}")
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
        q_hi = q_max
        if d > 0.0:
            q_hi = min(q_hi, 1.0 / d)
        if d_gamma > 0.0:
            q_hi = min(q_hi, 1.0 / d_gamma)
        qs = 1.0 + (q_hi - 1.0) * np.linspace(1e-4, 1.0 - 1e-6, n_q) ** 2
        qp = qs / (qs - 1.0)
        p, r = 1.0 - qs * d, 1.0 - qs * d_gamma
        logs = (
            -np.log(theta) / qp
            + (1.0 / qs - d) * math.log(T)
            - np.log(qp) / qp
            + (gammaln(p) + gammaln(r) - gammaln(p + r)) / qs
        )
        bounds.append(float(np.exp(logs.min())))
    return bounds


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
    which restores second order at the initial layer; P is a semigroup,
    so the weights use top="identity".
    """
    return _weight_table(tuple(d_list), d_gamma, times.tobytes())


@functools.lru_cache(maxsize=4)
def _weight_table(d_list, d_gamma: float, times_bytes: bytes):
    times = np.frombuffer(times_bytes)
    with_zero = d_gamma == 0.0
    conv = np.concatenate([[0.0], times]) if with_zero else times
    W = np.zeros((len(d_list), times.size, conv.size))
    for i, a in enumerate(d_list):
        for k, t in enumerate(times):
            W[i, k, : k + 1 + with_zero] = product_weights(
                conv[: k + 1 + with_zero], t, a, d_gamma, top="identity")
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
           stop: float, max_sweeps: int):
    """Picard sweeps u_k = base_k + sum_i sum_j W_i[k, j] P(t_k - s_j)[V_i u_j]
    on stacked arrays, one state per node along axis 0.

    `summer(tables, W, conv)` builds, once per solve, the history
    `history(nodes)`: it maps the stacked states at the convolution nodes
    (u0 first when s = 0 is one) to the stacked sums over j.  The iterate
    is kept in that stack and updated in place.  `residual(change)` maps
    the stacked update of a sweep to one weighted norm per node.  Returns
    the states and the per-sweep residuals, and raises on blow-up and when
    max_sweeps run out.
    """
    W, conv = _weights(d_list, d_gamma, times)
    history = summer(tables, W, conv)
    nodes = np.empty((conv.size,) + base.shape[1:], dtype=np.result_type(u0, base, *tables))
    nodes[: conv.size - times.size] = u0
    current = nodes[conv.size - times.size:]
    current[...] = base
    residuals = []
    for sweep in range(max_sweeps):
        new = history(nodes)
        new += base
        if not np.isfinite(new).all():
            k = int(np.argmin(np.isfinite(new).reshape(len(new), -1).all(axis=1)))
            raise RuntimeError(f"blow-up at t = {times[k]:.6g} during sweep {sweep}")
        worst = float(np.max(residual(new - current)))
        current[...] = new
        del new  # not alive during the next history sum
        residuals.append(worst)
        if worst <= stop:
            return current, residuals
    raise RuntimeError(f"no contraction: residual {residuals[-1]:.3e} above {stop:.3e} "
                       f"after {max_sweeps} sweeps")


def _fourier_sum(a_mu: np.ndarray, real: bool):
    """History sums in hat space with the multipliers e^{-tau a^mu}.

    The leading a_mu.ndim axes of a state are transformed and any later
    ones are a batch (the first stage's columns); `real` data, potentials
    and symbol take the real transforms.  At frequency f the sum over
    potentials i and nodes j is one product with the matrix
    G_i[f, k, j] = W_i[k, j] e^{-(t_k - s_j) a^mu(f)}, built once per solve
    (bytes checked first) one lag diagonal j = k + off - lag at a time
    (Lubich, Numer. Math. 52, 1988); where the lags along a diagonal
    agree, as on a uniform grid, one row of multipliers serves it.
    """
    N, shape = a_mu.ndim, a_mu.shape
    axes = tuple(range(1, N + 1))
    if real:
        a_mu = a_mu[..., : shape[-1] // 2 + 1]
        forward = functools.partial(np.fft.rfftn, axes=axes)
        inverse = functools.partial(np.fft.irfftn, s=shape, axes=axes)
    else:
        forward = functools.partial(np.fft.fftn, axes=axes)
        inverse = functools.partial(np.fft.ifftn, axes=axes)
    spec = a_mu.shape
    a_mu = a_mu.ravel()

    def summer(tables, W, conv):
        I, K, J = W.shape
        need = I * a_mu.size * K * J * a_mu.itemsize
        if need > _HISTORY_MAX_BYTES:
            raise ValueError(f"history operator for {K} nodes needs {need} bytes, "
                             f"above the {_HISTORY_MAX_BYTES}-byte limit")
        times = conv[J - K:]
        G = np.zeros((I, a_mu.size, K, J), dtype=a_mu.dtype)
        for _, k0, j0, size in _diagonals(K, J):
            tau = times[k0:] - conv[j0:j0 + size]
            if np.ptp(tau) <= 1e-12 * tau.max():
                tau = tau[:1]
            k, j = np.arange(k0, K), np.arange(j0, j0 + size)
            G[:, :, k, j] = W[:, None, k, j] * np.exp(-np.multiply.outer(a_mu, tau))

        def history(nodes):
            batch = nodes.shape[1 + N:]
            acc = 0.0
            for G_i, tab in zip(G, tables):
                X = forward(tab * nodes).reshape(J, a_mu.size, -1).transpose(1, 0, 2)
                # a real G acts on the real and imaginary parts alike
                term = (G_i @ X.view(float)).view(complex) if np.isrealobj(G) else G_i @ X
                del X  # at most two stacks of this size alive at once
                acc += term
                del term
            return inverse(acc.transpose(1, 0, 2).reshape((K,) + spec + batch))

        return history

    return summer


def _power_sum(U1: np.ndarray):
    """History sums on a uniform grid, where every lag t_k - s_j is a whole
    number of steps and P is the matching power of the one-step matrix.

    The stacked data go through U1 once per lag diagonal; only the
    columns a later node still needs are carried forward.
    """

    def summer(tables, W, conv):
        K, J = W.shape[1:]

        def history(nodes):
            Y = [(tab * nodes).T for tab in tables]
            out = np.zeros((K, U1.shape[0]), dtype=np.result_type(U1, *Y))
            for lag, k0, j0, size in _diagonals(K, J):
                if lag:
                    Y = [U1 @ y[:, : J - lag] for y in Y]
                w = np.diagonal(W, j0 - k0, axis1=1, axis2=2)
                for w_i, y in zip(w, Y):
                    out[k0:] += (y[:, j0:j0 + size] * w_i).T
            return out

        return history

    return summer


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
    tolerance_estimate: float | None = None

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

    def export(self, directory) -> None:
        """Write node grids as binaries plus a manifest of the solve."""
        import json
        import os

        os.makedirs(directory, exist_ok=True)
        names = []
        for k, state in enumerate(self.states):
            name = f"state_{k:04d}.grid"
            state.save(os.path.join(directory, name))
            names.append(name)
        manifest = {
            "times": [repr(float(t)) for t in self.times],
            "states": names,
            "gamma": list(self.gamma.as_tuple()),
            "alpha": list(self.alpha.as_tuple()),
            "theta": self.theta,
            "predicted_ratio": self.predicted_ratio,
            "residual_history": list(self.residual_history),
            "tolerance_estimate": self.tolerance_estimate,
            "config": {
                "horizon": self.config.horizon,
                "nodes": self.config.nodes,
                "grading": self.config.grading,
                "picard_tol": self.config.picard_tol,
            },
        }
        with open(os.path.join(directory, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)


def _alpha_norm(alpha: ScaleIndex, dims: ProblemDims, grid: GridFunction):
    """Norm of one state in the working space X^alpha (the half-node error
    estimate), its ladder built once."""
    mp = from_index(alpha, dims)
    return functools.partial(morrey_norm, p=mp.p, ell=mp.ell,
                             ladder=RadiusLadder.for_grid(grid))


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
    the weighted residual fails to contract within max_sweeps.
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
                             _fourier_sum(a_mu, real), residual, stop, cfg.max_sweeps)
    states = tuple(GridFunction(u0.N, u0.n, u0.L, v) for v in values)
    traj = Trajectory(times, states, gamma, alpha, theta, predicted,
                      tuple(history), cfg, potentials, dims, symbol, mu, u0)
    if cfg.estimate_tolerance:
        alpha_norm = _alpha_norm(alpha, dims, u0)
        coarse_cfg = replace(cfg, nodes=cfg.nodes // 2, estimate_tolerance=False)
        coarse = picard_solve(u0, potentials, coarse_cfg, gamma, dims, symbol, mu)
        err = max(
            alpha_norm(traj.states[2 * j + 1] - coarse.states[j])
            for j in range(coarse_cfg.nodes)
        )
        traj = replace(traj, tolerance_estimate=float(err + cfg.picard_tol))
    return traj


# -- sequential (iterated) perturbations --------------------------------------


def _propagator_matrices(V: PotentialSpec, cfg: SolverConfig, dims: ProblemDims,
                         symbol: SymbolSpec, mu: float) -> np.ndarray:
    """S_V(t_1) as a real n x n matrix, 1D grids only.

    The sweep engine runs on _SUB_NODES uniform sub-steps of [0, t_1]
    with the identity as datum, each column a unit spike, so the columns
    are a batch that the transforms along axis 0 leave alone.  The spikes
    are bounded on the grid, so the node rule puts a node at s = 0.  The
    symbol and the potential must be real; everything then stays real.
    """
    if symbol.N != 1:
        raise ValueError("matrix propagators are only built for 1D grids")
    n = symbol.n
    need = 4 * (_SUB_NODES + 1) * n * n * 8
    if need > _FIRST_STAGE_MAX_BYTES:
        raise ValueError(f"first-stage propagator at n={n} needs {need} bytes, "
                         f"above the {_FIRST_STAGE_MAX_BYTES}-byte limit")
    a_mu = symbol.power(mu)
    table = V.on_grid(1, n, symbol.L).values
    for name, x in (("symbol", a_mu), ("potential", table)):
        if np.iscomplexobj(x) and np.any(x.imag):
            raise ValueError(f"the first-stage propagator needs a real {name} table")
    a_mu, table = a_mu.real, table.real
    sub = time_grid(replace(cfg, horizon=float(time_grid(cfg)[0]), nodes=_SUB_NODES))
    eye = np.eye(n)
    decay = np.exp(-np.multiply.outer(sub, a_mu[: n // 2 + 1]))
    base = np.fft.irfft(decay[:, :, None] * np.fft.rfft(eye, axis=0), n, axis=1)
    mats, _ = _sweep(eye, base, [table[:, None]], [V.potential_class(dims).kappa], 0.0, sub,
                     _fourier_sum(a_mu, real=True),
                     lambda change: np.maximum(change.max(axis=(1, 2)), -change.min(axis=(1, 2))),
                     cfg.picard_tol, cfg.max_sweeps)
    return mats[-1].copy()


def sequential_solve(u0: GridFunction, order, cfg: SolverConfig, gamma: ScaleIndex,
                     dims: ProblemDims, symbol: SymbolSpec, mu: float) -> Trajectory:
    """Apply up to two perturbations one at a time.

    The first potential's evolution becomes the base propagator for the
    second solve.  Needs a uniform time grid (grading 1): every lag
    t_k - s_j is then a whole number of steps, and the first-stage
    propagator over one step, raised to that power, realizes it.
    """
    order = tuple(order)
    if len(order) == 1:
        return picard_solve(u0, order, cfg, gamma, dims, symbol, mu)
    if len(order) != 2:
        raise ValueError("sequential composition supports at most two perturbations")
    if cfg.grading != 1.0:
        raise ValueError("sequential composition requires a uniform grid (grading = 1)")

    V1, V2 = order
    alpha, d_gamma, d_list = _resolve_indices(order, gamma, dims)
    U1 = _propagator_matrices(V1, cfg, dims, symbol, mu)
    times = time_grid(cfg)
    theta, predicted = _theta(cfg, V2.measured_norm(u0.N, u0.n, u0.L), d_list[1:], d_gamma)

    base = np.empty((cfg.nodes, u0.n), dtype=np.result_type(U1, u0.values))
    base[0] = U1 @ u0.values
    for k in range(1, cfg.nodes):
        base[k] = U1 @ base[k - 1]
    residual, stop = _weighted_residual(alpha, dims, theta, times, d_gamma, base, u0,
                                        cfg.picard_tol)
    values, history = _sweep(u0.values, base, [V2.on_grid(u0.N, u0.n, u0.L).values], d_list[1:],
                             d_gamma, times, _power_sum(U1), residual, stop, cfg.max_sweeps)
    states = tuple(GridFunction(u0.N, u0.n, u0.L, v) for v in values)
    return Trajectory(times, states, gamma, alpha, theta, predicted, tuple(history),
                      cfg, order, dims, symbol, mu, u0)


def evaluate(traj: Trajectory, t: float) -> GridFunction:
    """Value of the perturbed evolution at an arbitrary positive time.

    Node times return the stored state; off-node times re-solve from the
    preceding node, and times beyond the horizon compose full-horizon
    hops (the semigroup property), so the check of that property stays
    independent of any interpolation.
    """
    if t <= 0.0:
        raise ValueError("evaluate needs t > 0")
    T = traj.horizon

    def short_solve(datum: GridFunction, horizon: float, gamma: ScaleIndex) -> GridFunction:
        nodes = traj.config.nodes if horizon > 0.5 * T else _SHORT_NODES
        cfg = replace(traj.config, horizon=horizon, nodes=nodes,
                      estimate_tolerance=False, theta=traj.theta)
        sub = picard_solve(datum, traj.potentials, cfg, gamma, traj.dims,
                           traj.symbol, traj.mu)
        return sub.states[-1]

    if t <= T * (1.0 + 1e-12):
        k = traj.node_near(t)
        if k is not None:
            return traj.states[k]
        below = np.where(traj.times < t * (1.0 - 1e-12))[0]
        if below.size:
            j = int(below[-1])
            return short_solve(traj.states[j], t - float(traj.times[j]), traj.alpha)
        return short_solve(traj.u0, t, traj.gamma)

    state = traj.states[-1]
    remaining = t - T
    while remaining > T * (1.0 + 1e-12):
        state = short_solve(state, T, traj.alpha)
        remaining -= T
    return short_solve(state, remaining, traj.alpha)
