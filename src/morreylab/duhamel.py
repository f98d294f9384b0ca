"""Perturbed semigroup by marching the Duhamel formula in time.

The solution of

    u(t) = S(t) u0 + sum_i integral_0^t S(t - s) V_i u(s) ds

is computed on a graded time grid t_k = T (k/K)^g with the singular
product-integration rule from `quadrature`.  S(0) = I makes the
discrete system lower-triangular in time, so one pass over the nodes
solves it exactly (Brunner, Collocation Methods for Volterra Integral
and Related Functional Equations, CUP 2004): at each node the history
over earlier nodes is one weighted sum of stored coefficients, and the
node's own term is a pointwise division.  The sum is taken in a basis
where the base propagator over tau multiplies coefficient f by
e^{-tau r(f)}: Fourier modes for the free semigroup (r = a^mu, real
transforms for real data), or, when perturbations are applied one at a
time, the eigenbasis H = Q Lambda Q^T of the first one's symmetric
discrete generator (r = -lambda), which reaches every lag exactly.  Either
way the coefficients of u0 and of each V_i u_j go from node to node by one
factor e^{-(t_k - t_{k-1}) r} (Hochbruck & Ostermann, Acta Numerica 2010).
Only the coefficients of the last ceil(sqrt(K)) nodes take that factor
in place at every node.  Older ones keep their value at a checkpoint
time tau: their weighted sum takes the product of the factors since tau,
and they take it in place once per checkpoint.  So the decays cost
O(K^{3/2} F) multiplies per solve, and each node's history is two real
matrix-vector products, over the recent and over the older nodes (old
history terms are not touched at every step, as in the fast convolution
of Schaedle, Lopez-Fernandez & Lubich, SIAM J. Sci. Comput. 28, 2006).

The paper builds the solution as the fixed point of a map contracting
in the weighted norm sup_t e^{-theta t} t^{d(alpha, gamma)} ||.||_alpha;
`contraction_bound` and `choose_theta` give that factor and its theta
for the contraction check.  The solver needs neither.

The growth bound of the perturbed semigroup, the top of the spectrum of
H = V - A^mu, comes from a matrix-free iteration on the same real
transforms, in any dimension (`growth_bound`).  Only the sequential
solve's first stage builds the dense n x n generator, in 1D, for its
eigendecomposition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import GridFunction, grid_radii
from .indices import ScaleIndex, ProblemDims, choose_alpha, smoothing_distance
from .potentials import PotentialSpec
from .quadrature import product_weights
from .semigroup import SymbolSpec, _fourier_basis, apply_semigroup

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
    "growth_bound",
    "ritz_growth_bound",
]

# the most memory an eigendecomposition of the generator may take: five real
# n x n matrices (the generator, its eigenvectors, LAPACK's copy of the
# generator and its 2 n^2 workspace)
_GENERATOR_MAX_BYTES = 3 * 2**30
# the most memory the march of one solve may take
_HISTORY_MAX_BYTES = 2**30
# the doubling ladder of choose_theta, and the nodes of evaluate's short re-solves
_THETA_MIN = 1.0
_THETA_MAX = 2.0**24
_SHORT_NODES = 24
# ritz_growth_bound: its most Rayleigh-Ritz steps, the Gram eigenvalues
# (over the largest) whose directions it drops, and the rise of theta, in
# eps |theta|, at or below which a step counts as roundoff and it stops
_RITZ_MAX_STEPS = 200
_GRAM_DROP = 1e-14
_RISE_EPS = 4.0


@dataclass(frozen=True)
class SolverConfig:
    """The time grid of a solve: horizon T and K graded nodes t_k = T (k/K)^g."""

    horizon: float
    nodes: int = 64
    grading: float = 2.0

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if self.nodes < 16:
            raise ValueError("need at least 16 time nodes")
        if self.grading < 1.0:
            raise ValueError("grading must be >= 1")


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


def contraction_bound(theta: float, T: float, d_list, d_gamma: float):
    """Closed-form upper bounds on the per-perturbation contraction factors

        c_i(theta) = sup_{t <= T} t^{1-d_i} e^{-theta t}
                     integral_0^1 e^{theta t z} (1-z)^{-d_i} z^{-d_gamma} dz,

    namely min over q in (1, 60] of
    theta^{-1/q'} T^{1/q - d_i} q'^{-1/q'} B(1 - q d_i, 1 - q d_gamma)^{1/q}.
    """
    if not 0.0 <= d_gamma < 1.0:
        raise ValueError(f"d(alpha, gamma) = {d_gamma} must lie in [0, 1)")
    bounds = []
    for d in d_list:
        if not 0.0 <= d < 1.0:
            raise ValueError(f"d(alpha, beta) = {d} must lie in [0, 1)")
        inv_qp, t_power, rest = _q_terms(d, d_gamma)
        logs = -math.log(theta) * inv_qp + t_power * math.log(T) + rest
        bounds.append(float(np.exp(logs.min())))
    return bounds


def _q_terms(d: float, d_gamma: float):
    """The parts of contraction_bound's log on its 96-point q grid that do not
    depend on theta or T: 1/q', 1/q - d, and -log(q')/q' + log B / q, the
    log-Beta row from math.lgamma.  Not cached: a call takes about 0.1 ms."""
    q_hi = min([60.0] + [1.0 / x for x in (d, d_gamma) if x > 0.0])
    qs = 1.0 + (q_hi - 1.0) * np.linspace(1e-4, 1.0 - 1e-6, 96) ** 2
    qp = qs / (qs - 1.0)
    p, r = 1.0 - qs * d, 1.0 - qs * d_gamma
    log_beta = np.array([math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
                         for x, y in zip(p, r)])
    return 1.0 / qp, 1.0 / qs - d, -np.log(qp) / qp + log_beta / qs


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


# -- the march ----------------------------------------------------------------


def _weights(d_list, d_gamma: float, times):
    """Product weights W[i, k, j] of node k over the convolution nodes s_j,
    and those nodes, both read-only and shared by every solve on the same
    exponents and time grid (continuous_dependence's five solves share one).
    W is a view of a node-major (K, J, I) table, the layout of the march's
    stored coefficients.

    Data bounded at s = 0 (d_gamma = 0) get a node there carrying V_i u0,
    which restores second order at the initial layer.
    """
    return _weight_table(tuple(d_list), d_gamma, times.tobytes())


@functools.lru_cache(maxsize=4)
def _weight_table(d_list, d_gamma: float, times_bytes: bytes):
    times = np.frombuffer(times_bytes)
    conv = np.concatenate([[0.0], times]) if d_gamma == 0.0 else times
    W = np.stack([product_weights(conv, a, d_gamma) for a in d_list], axis=-1)
    W.flags.writeable = conv.flags.writeable = False
    return W.transpose(2, 0, 1), conv


def _march(u0, tables, d_list, d_gamma: float, times, basis):
    """The discrete Duhamel system u_k = P(t_k) u0 + sum_i sum_j W_i[k, j]
    P(t_k - s_j)[V_i u_j], solved one node at a time on stacked arrays.

    `basis` is (rates, forward, inverse): `forward` maps (m, ...) stacked
    states to (m, F) coefficients, `inverse` maps them back, and the base
    propagator over tau multiplies coefficient f by e^{-tau rates[f]}.
    The coefficients of u0 (the base) and of every V_i u_j are stored as
    they are made, node-major, so the nodes before s_j form one (j I, F)
    block.  The ones stored since the last checkpoint tau are decayed in
    place by e^{-(t_k - t_{k-1}) rates} at each node; the older ones keep
    their value at tau and take the running product E = e^{-(t_k - tau)
    rates} only through their weighted sum.  Every B = ceil(sqrt(K)) nodes
    E is folded into the old block and tau moves to t_k, so decaying costs
    O(K^{3/2} F) per solve and node k's history is two real matrix-vector
    products (complex rows read as interleaved reals: W is real).
    P(0) = I makes node k's own term pointwise, so u_k = inverse(base_k +
    history_k) / (1 - sum_i W_i[k, k'] V_i).  The bytes are checked first;
    a divisor that is not finite or has real part <= 0, or a state that is
    not finite, raises a blow-up naming t_k.  Returns the states as one
    read-only (K, n, ..., n) array.
    """
    rates, forward, inverse = basis
    K, F = times.size, rates.size
    I, J = len(d_list), K + (d_gamma == 0.0)
    # the coefficients, then the K states: complex when the data or the rates
    # are, as only then do the callers take the complex transforms
    dtype = np.result_type(u0, *tables, rates)
    need = I * J * F * 16 + K * u0.size * dtype.itemsize
    if need > _HISTORY_MAX_BYTES:
        raise ValueError(f"the march over {K} nodes needs {need} bytes, "
                         f"above the {_HISTORY_MAX_BYTES}-byte limit")
    W, _ = _weights(d_list, d_gamma, times)
    Wn = W.transpose(1, 2, 0).reshape(K, J * I)  # Wn[k, j I + i] = W_i[k, j], no copy
    off = J - K
    tables = np.stack(tables)
    X = forward(tables * u0)  # the s = 0 node's data, and the coefficients' type
    coef = np.empty((J, I, F), X.dtype)
    coef[:off] = X
    rows = coef.reshape(J * I, F).view(float)  # complex rows as interleaved reals
    base = forward(u0[None])[0].astype(X.dtype)
    divisors = 1.0 - np.tensordot(np.diagonal(W, off, 1, 2).T, tables, 1)
    positive = (np.isfinite(divisors) & (divisors.real > 0.0)).reshape(K, -1).all(axis=1)
    B, ref, E = math.isqrt(K - 1) + 1, 0, np.ones_like(rates)
    states = np.empty((K,) + u0.shape, dtype)
    for k, step in enumerate(np.diff(times, prepend=0.0)):
        j = k + off
        if not positive[k]:
            raise RuntimeError(f"blow-up at t = {times[k]:.6g}: 1 - sum_i W_i V_i "
                               f"is not positive there")
        decay = np.exp(-step * rates)
        base *= decay
        E *= decay
        coef[ref:j] *= decay
        w, a, b = Wn[k], ref * I, j * I
        history = (w[a:b] @ rows[a:b]).view(X.dtype) + E * (w[:a] @ rows[:a]).view(X.dtype)
        u = inverse((base + history)[None])[0] / divisors[k]
        if not np.isfinite(u).all():
            raise RuntimeError(f"blow-up at t = {times[k]:.6g}: the state is not finite")
        states[k] = u
        coef[j] = forward(tables * u)
        if j + 1 - ref >= B:  # checkpoint: every stored node now at t_k
            coef[:ref] *= E
            ref, E = j + 1, np.ones_like(rates)
    states.flags.writeable = False
    return states


# -- trajectories -------------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed approximation of the perturbed evolution of one datum:
    values is the read-only (K, n, ..., n) array of its states, row k at times[k].
    Each fact is stored once: the node times are time_grid(config), mu is dims.mu."""

    values: np.ndarray
    gamma: ScaleIndex
    alpha: ScaleIndex
    config: SolverConfig
    potentials: tuple
    dims: ProblemDims
    symbol: SymbolSpec
    u0: GridFunction

    # always empty: a march takes no sweeps (kept for readers that count them)
    residual_history = ()

    @functools.cached_property
    def times(self) -> np.ndarray:
        return time_grid(self.config)

    def state(self, k: int) -> GridFunction:
        return GridFunction(self.u0.N, self.u0.n, self.u0.L, self.values[k])

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


def picard_solve(u0: GridFunction, potentials, cfg: SolverConfig, gamma: ScaleIndex,
                 dims: ProblemDims, symbol: SymbolSpec) -> Trajectory:
    """The perturbed evolution under A^mu, mu = dims.mu, on the graded grid,
    marched node by node in the Fourier basis.  With no perturbation it is
    the base evolution.  A symbol off u0's grid or of another (N, m) than
    dims is refused before any transform; a blow-up raises, naming its time.
    """
    symbol.require_agreement(u0, dims)
    potentials = tuple(potentials)
    alpha, d_gamma, d_list = _resolve_indices(potentials, gamma, dims)
    times = time_grid(cfg)
    if potentials:
        tables = [V.on_grid(u0.N, u0.n, u0.L).values for V in potentials]
        real = all(np.isrealobj(x) for x in [u0.values, symbol.table, *tables])
        values = _march(u0.values, tables, d_list, d_gamma, times,
                        _fourier_basis(symbol.table, real, dims.mu))
    else:
        values = np.stack([s.values for s in apply_semigroup(u0, times, dims.mu, symbol)])
        values.flags.writeable = False
    return Trajectory(values, gamma, alpha, cfg, potentials, dims, symbol, u0)


# -- sequential (iterated) perturbations --------------------------------------


def _generator(V: PotentialSpec, symbol: SymbolSpec, mu: float) -> np.ndarray:
    """The 1D discrete generator H = diag(V) - F^{-1} diag(a^mu) F, real
    symmetric for a real (even) symbol and a real potential: the circulant
    -c[(i - j) mod n] of c = irfft(a^mu), plus V on the diagonal.  Its
    bytes are checked before any n x n array is built."""
    if symbol.N != 1:
        raise ValueError("the discrete generator is only built for 1D grids")
    n = symbol.n
    need = 5 * n * n * 8
    if need > _GENERATOR_MAX_BYTES:
        raise ValueError(f"the generator at n={n} needs {need} bytes, "
                         f"above the {_GENERATOR_MAX_BYTES}-byte limit")
    a_mu = _real_table("symbol", symbol.power(mu))
    table = _real_table("potential", V.on_grid(1, n, symbol.L).values)
    c = np.fft.irfft(a_mu[: n // 2 + 1], n)
    H = (-c)[np.subtract.outer(np.arange(n), np.arange(n)) % n]
    H[np.diag_indices(n)] += table
    return H


def growth_bound(V: PotentialSpec, symbol: SymbolSpec, mu: float) -> float:
    """The growth bound of the discrete semigroup e^{tH}, H = V - A^mu, on any
    grid: in finite dimensions, in any norm, the spectral abscissa of H
    (Engel & Nagel, GTM 194, 2000, I.2 and IV.2), so H's largest eigenvalue,
    the Ritz value of `ritz_growth_bound`, exact to roundoff."""
    return ritz_growth_bound(V, symbol, mu)[0]


def ritz_growth_bound(V: PotentialSpec, symbol: SymbolSpec, mu: float):
    """(theta, ||H x - theta x||): the top Ritz pair (theta, x) of the
    symmetric H = V - A^mu, |x| = 1, and its residual, which bounds
    |theta - lambda| for an eigenvalue lambda of H (Parlett, The Symmetric
    Eigenvalue Problem, Thm 4.5.1), with no n^N x n^N matrix.

    Single-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23(2), 2001): H
    acts by one pointwise product and one real-transform multiplier in
    `_fourier_basis`.  From x = e^{-|x|^2}, each step runs Rayleigh-Ritz
    on span{x, w, p}: w is the residual under (a^mu + s)^{-1}, s = max(1,
    |theta|) (Teter, Payne & Allan, Phys. Rev. B 40, 1989), p the last
    update.  The three are scaled to unit length and orthonormalised
    through their Gram matrix, dropping directions below _GRAM_DROP of the
    largest.  Ritz values only rise, so the iteration stops at the first
    step that lifts theta by at most _RISE_EPS eps |theta|, which is
    roundoff; theta is then exact to about eps ||H|| while the residual,
    whose square theta's error follows, levels off near sqrt(eps).
    """
    N, n, L = symbol.N, symbol.n, symbol.L
    table = _real_table("potential", V.on_grid(N, n, L).values)
    rates, forward, inverse = _fourier_basis(_real_table("symbol", symbol.table), True, mu)
    shape = (-1,) + table.shape

    def H(X):  # each row of X a flattened state
        grids = X.reshape(shape)
        return (table * grids - inverse(rates * forward(grids))).reshape(len(X), -1)

    x = np.exp(-grid_radii(N, n, L) ** 2).reshape(1, -1)
    x /= np.linalg.norm(x)
    Hx = H(x)
    theta = float(x[0] @ Hx[0])
    p = Hp = x[:0]
    for _ in range(_RITZ_MAX_STEPS):
        spec = forward((Hx - theta * x).reshape(shape))
        w = inverse(spec / (rates + max(1.0, abs(theta)))).reshape(1, -1)
        S, HS = np.concatenate([x, w, p]), np.concatenate([Hx, H(w), Hp])
        unit = 1.0 / np.linalg.norm(S, axis=1)[:, None]
        S, HS = S * unit, HS * unit
        g, U = np.linalg.eigh(S @ S.T)
        keep = g > _GRAM_DROP * g[-1]
        B = U[:, keep] / np.sqrt(g[keep])
        vals, Y = np.linalg.eigh(B.T @ (S @ HS.T) @ B)
        c = (B @ Y[:, -1])[None]
        x, Hx = c @ S, c @ HS
        p, Hp = c[:, 1:] @ S[1:], c[:, 1:] @ HS[1:]
        rise, theta = float(vals[-1]) - theta, float(vals[-1])
        if rise <= _RISE_EPS * np.finfo(float).eps * abs(theta):
            scale = np.linalg.norm(x)
            return theta, float(np.linalg.norm(Hx - theta * x) / scale)
    raise RuntimeError(f"no growth bound within {_RITZ_MAX_STEPS} Rayleigh-Ritz steps")


def _real_table(name: str, x: np.ndarray) -> np.ndarray:
    """x's real part; a symmetric generator needs a real symbol and potential."""
    if np.iscomplexobj(x) and np.any(x.imag):
        raise ValueError(f"the generator needs a real {name} table")
    return x.real


def _propagator_matrices(V: PotentialSpec, symbol: SymbolSpec, mu: float):
    """The first stage's eigenbasis (lam, Q) of the generator, from its lower
    triangle: S_V(tau) = Q e^{tau lam} Q^T over every lag, exact to roundoff
    and well conditioned (Moler & Van Loan, SIAM Rev. 45, 2003)."""
    return np.linalg.eigh(_generator(V, symbol, mu))


def sequential_solve(u0: GridFunction, order, cfg: SolverConfig, gamma: ScaleIndex,
                     dims: ProblemDims, symbol: SymbolSpec, first_stage=None) -> Trajectory:
    """Apply two perturbations one at a time, under A^mu with mu = dims.mu.

    The first potential's evolution becomes the base propagator for the
    second solve, on any time grid: in the first stage's eigenbasis
    e^{tau H} = Q e^{tau Lambda} Q^T serves every lag, so the march runs
    in that basis with rates -lambda, carrying Q^T u0 and the stored
    coefficients of V2 u_j forward by e^{tau lambda}.  `first_stage` is
    that (lam, Q), `_propagator_matrices` of order[0] on this symbol, for
    a caller that already has it; otherwise it is computed here.  A symbol
    off u0's grid or of another (N, m) than dims is refused before the
    eigendecomposition.
    """
    symbol.require_agreement(u0, dims)
    order = tuple(order)
    if len(order) != 2:
        raise ValueError(f"sequential composition takes exactly two perturbations, "
                         f"got {len(order)}")

    V1, V2 = order
    alpha, d_gamma, d_list = _resolve_indices(order, gamma, dims)
    lam, Q = _propagator_matrices(V1, symbol, dims.mu) if first_stage is None else first_stage
    times = time_grid(cfg)
    values = _march(u0.values, [V2.on_grid(u0.N, u0.n, u0.L).values], d_list[1:],
                    d_gamma, times, (-lam, lambda x: x @ Q, lambda y: y @ Q.T))
    return Trajectory(values, gamma, alpha, cfg, order, dims, symbol, u0)


def evaluate(traj: Trajectory, t: float) -> GridFunction:
    """Value of the perturbed evolution at a time t in (0, horizon].

    Node times return the stored state; other times re-solve from the
    preceding node (from the datum before the first one), so the check
    of the semigroup property stays independent of any interpolation.
    """
    T = traj.config.horizon
    if not 0.0 < t <= T * (1.0 + 1e-12):
        raise ValueError(f"evaluate needs 0 < t <= horizon {T:g}, got t = {t:g}")
    k = traj.node_near(t)
    if k is not None:
        return traj.state(k)
    below = np.flatnonzero(traj.times < t * (1.0 - 1e-12))
    if below.size:
        j = int(below[-1])
        datum, horizon, gamma = traj.state(j), t - float(traj.times[j]), traj.alpha
    else:
        datum, horizon, gamma = traj.u0, t, traj.gamma
    nodes = traj.config.nodes if horizon > 0.5 * T else _SHORT_NODES
    cfg = replace(traj.config, horizon=horizon, nodes=nodes)
    return picard_solve(datum, traj.potentials, cfg, gamma, traj.dims, traj.symbol).state(-1)
