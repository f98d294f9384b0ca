import functools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from morreylab.checks import _half_node_gap, _sup_norm, _two_potentials, _working_norm
from morreylab.duhamel import (
    SolverConfig,
    _HISTORY_MAX_BYTES,
    _diagonals,
    _fourier_sum,
    _propagator_matrices,
    _spectral_sum,
    _sweep,
    _theta,
    _weights,
    contraction_bound,
    choose_theta,
    evaluate,
    multiply,
    picard_solve,
    sequential_solve,
    time_grid,
)
from morreylab.fixtures import gaussian_bump
from morreylab.grids import GridFunction
from morreylab.indices import MorreyParams, ProblemDims, to_index
from morreylab.norms import RadiusLadder, _scan, morrey_norm
from morreylab.potentials import constant_potential, power_law_potential, tabulated_potential
from morreylab.quadrature import product_weights
from morreylab.semigroup import apply_semigroup, laplacian_power_symbol

DIMS = ProblemDims(1, 1, 1.0)
N, L = 256, 8.0


@pytest.fixture(scope="module")
def sym():
    return laplacian_power_symbol(1, N, L, 1)


@pytest.fixture(scope="module")
def bump():
    return gaussian_bump(1, N, L)


def gamma_of(p, ell):
    return to_index(MorreyParams(p, ell), DIMS)


# -- configuration -----------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(horizon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(horizon=1.0, nodes=8)
    with pytest.raises(ValueError):
        SolverConfig(horizon=1.0, grading=0.5)
    with pytest.raises(ValueError):
        SolverConfig(horizon=1.0, picard_tol=0.0)


def test_time_grid():
    cfg = SolverConfig(horizon=1.0, nodes=16, grading=2.0)
    t = time_grid(cfg)
    assert t[0] == pytest.approx((1 / 16) ** 2)
    assert t[-1] == 1.0
    assert np.all(np.diff(t) > 0)


# -- multiplication ------------------------------------------------------------------


def test_multiply(bump):
    zero = constant_potential(0.0)
    assert np.all(multiply(zero, bump).values == 0.0)
    three = constant_potential(3.0)
    assert np.allclose(multiply(three, bump).values, 3.0 * bump.values)
    other = gaussian_bump(1, 2 * N, L)
    with pytest.raises(ValueError):
        multiply(three.on_grid(1, N, L), other)


def test_multiply_operator_norm_proxy(bump):
    """||V phi||_{M^{z,nu}} <= ||phi||_{M^{w,kappa}} ||V||_{M^{p0,ell0}} (1 + 5%)."""
    from morreylab.norms import holder_product_check

    V = power_law_potential(1.0, 0.5, 1.5)
    table = V.on_grid(1, 4096, 1.0)
    phi = gaussian_bump(1, 4096, 1.0, width=0.3)
    res = holder_product_check(phi, table, 3.0, 0.5, 1.5, 0.75)
    assert res.passed


# -- contraction bound ----------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _leggauss(n_z):
    """Gauss-Legendre nodes and weights: scipy's O(n) Newton iteration
    builds the same rule as numpy's leggauss, whose eigenvalue solve takes
    seconds at n = 4000."""
    from scipy.special import roots_legendre

    return roots_legendre(n_z)


def direct_c_i(theta, T, d_i, d_gamma, n_t=60, n_z=4000):
    """Independent quadrature oracle for the contraction factor."""
    zs, wz = _leggauss(n_z)
    zs = 0.5 * (zs + 1.0)
    wz = 0.5 * wz
    best = 0.0
    for t in np.linspace(T / n_t, T, n_t):
        integ = np.sum(wz * np.exp(theta * t * zs) * (1 - zs) ** -d_i * zs**-d_gamma)
        best = max(best, t ** (1 - d_i) * math.exp(-theta * t) * integ)
    return best


@pytest.mark.parametrize("d_i,d_gamma", [(0.0, 0.0), (0.25, 0.1), (0.5, 0.3)])
def test_contraction_bound_dominates_oracle(d_i, d_gamma):
    T = 0.5
    for theta in (1.0, 10.0, 100.0):
        bound = contraction_bound(theta, T, [d_i], d_gamma)[0]
        direct = direct_c_i(theta, T, d_i, d_gamma)
        assert bound >= direct * (1 - 1e-6)
        assert bound < 10 * max(direct, 1e-6) or bound < 1.0


def test_contraction_bound_vanishes_with_theta():
    vals = [contraction_bound(th, 0.5, [0.25], 0.1)[0] for th in (10.0, 100.0, 1000.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.05


def test_contraction_bound_small_T():
    big = contraction_bound(10.0, 0.5, [0.25], 0.0)[0]
    small = contraction_bound(10.0, 1e-4, [0.25], 0.0)[0]
    assert small < 0.05 * big


def test_choose_theta():
    theta, total = choose_theta(0.0, [0.25], 0.0, 0.5)
    assert theta == 1.0 and total == 0.0
    th1, _ = choose_theta(1.0, [0.25], 0.1, 0.5)
    th2, _ = choose_theta(2.0, [0.25], 0.1, 0.5)
    assert th2 >= th1
    t_fixed, tot = choose_theta(5.0, [0.25], 0.1, 0.5)
    assert tot <= 0.5


def test_registry_solves_pick_the_same_theta():
    """Every distinct theta choice of a default `morreylab run` (seed 0), with
    its predicted ratio, as the scipy.special log-Beta values gave them:
    the math.lgamma row picks the same theta and agrees to 1e-14."""
    from pathlib import Path

    rows = json.loads((Path(__file__).parent / "data" / "registry_theta.json").read_text())
    assert len(rows) == 21
    for row in rows:
        cfg = SolverConfig(horizon=row["horizon"], theta=row["fixed"])
        theta, ratio = _theta(cfg, row["norm_bound"], row["d_list"], row["d_gamma"])
        assert theta == row["theta"]
        assert ratio == pytest.approx(row["ratio"], rel=1e-14, abs=0)


def test_choose_theta_gives_up_at_ladder_top():
    with pytest.raises(RuntimeError, match="theta ladder up to 1.67772e\\+07"):
        choose_theta(1e12, [0.25], 0.1, 0.5)


# -- fixed points ---------------------------------------------------------------------


def test_no_potential_is_base_flow(sym, bump):
    cfg = SolverConfig(horizon=0.25, nodes=32)
    traj = picard_solve(bump, [], cfg, gamma_of(2.0, 1.0), DIMS, sym, 1.0)
    for t, state in zip(traj.times, traj.states):
        exact = apply_semigroup(bump, t, 1.0, sym)
        assert np.array_equal(state.values, exact.values)


def test_constant_potential_exponential(sym, bump):
    c, tol = 1.0, 1e-8
    cfg = SolverConfig(horizon=0.25, nodes=256, grading=1.0, picard_tol=tol)
    traj = picard_solve(bump, [constant_potential(c)], cfg, gamma_of(2.0, 1.0),
                        DIMS, sym, 1.0)
    worst = max(
        float(np.max(np.abs(s.values - math.exp(c * t) * apply_semigroup(bump, t, 1.0, sym).values)))
        for t, s in zip(traj.times, traj.states)
    )
    assert worst <= 10 * tol


def test_linearity(sym, bump):
    """Node-wise linearity within 10 x picard_tol, measured in the solver's
    own contraction norm (the stopping metric)."""
    cfg = SolverConfig(horizon=0.25, nodes=48, picard_tol=1e-9)
    V = power_law_potential(1.0, 0.5, 1.5)
    gamma = gamma_of(2.0, 0.7)
    other = GridFunction(1, N, L, np.cos(np.pi * bump.axis() / L) ** 2)
    a, b = 2.0, -0.5
    combo = picard_solve(a * bump + b * other, [V], cfg, gamma, DIMS, sym, 1.0)
    one = picard_solve(bump, [V], cfg, gamma, DIMS, sym, 1.0)
    two = picard_solve(other, [V], cfg, gamma, DIMS, sym, 1.0)
    norm = _working_norm(combo)
    d = gamma.gamma2 - combo.alpha.gamma2
    w = np.exp(-combo.theta * combo.times) * combo.times**d
    worst = max(
        wk * norm(c - a * u - b * v)
        for wk, c, u, v in zip(w, combo.states, one.states, two.states)
    )
    assert worst <= 10 * cfg.picard_tol


def test_consistency_across_gamma(sym, bump):
    """The same datum declared in two admissible spaces evolves identically.

    The two declarations pick different working indices, hence
    different singular-layer exponents in the quadrature, so agreement
    is limited by the two runs' time-discretization errors (about 1e-3
    at this node count), not by the stopping tolerance.
    """
    cfg = SolverConfig(horizon=0.25, nodes=48, picard_tol=1e-10)
    V = power_law_potential(1.0, 0.5, 1.5)
    t1 = picard_solve(bump, [V], cfg, gamma_of(2.0, 0.7), DIMS, sym, 1.0)
    t2 = picard_solve(bump, [V], cfg, gamma_of(4.0, 0.5), DIMS, sym, 1.0)
    worst = max(float(np.max(np.abs(a.values - b.values)))
                for a, b in zip(t1.states, t2.states))
    assert worst <= 2e-3


def test_apriori_weighted_bound(sym, bump):
    """sup_k e^{-theta t} t^d ||u||_alpha <= 2 C ||u0||_gamma with C fitted
    from the base flow."""
    cfg = SolverConfig(horizon=0.25, nodes=48, picard_tol=1e-9)
    V = power_law_potential(1.0, 0.5, 1.5)
    gamma = gamma_of(2.0, 0.7)
    traj = picard_solve(bump, [V], cfg, gamma, DIMS, sym, 1.0)
    norm = _working_norm(traj)
    from morreylab.norms import morrey_norm

    d = gamma.gamma2 - traj.alpha.gamma2
    w = np.exp(-traj.theta * traj.times) * traj.times**d
    u_norm = max(wk * norm(s) for wk, s in zip(w, traj.states))
    base_norm = max(
        wk * norm(apply_semigroup(bump, t, 1.0, sym))
        for wk, t in zip(w, traj.times)
    )
    gamma_norm = morrey_norm(bump, 2.0, 0.7)
    C_fit = base_norm / gamma_norm
    assert u_norm <= 2.0 * C_fit * gamma_norm


def test_residuals_contract_and_history_decreases(sym, bump):
    cfg = SolverConfig(horizon=0.25, nodes=48, picard_tol=1e-9)
    V = power_law_potential(1.0, 0.5, 1.5)
    traj = picard_solve(bump, [V], cfg, gamma_of(2.0, 0.7), DIMS, sym, 1.0)
    hist = traj.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    ratios = [b / a for a, b in zip(hist, hist[1:])]
    assert max(ratios) <= traj.predicted_ratio + 0.1


def test_self_convergence_within_estimate(sym, bump):
    """Doubling the grid moves the answer by less than the half-node estimate
    (plus the stopping tolerance) that the semigroup check budgets for."""
    V = power_law_potential(1.0, 0.5, 1.5)
    gamma = gamma_of(2.0, 0.7)
    cfg = SolverConfig(horizon=0.25, nodes=64, picard_tol=1e-8)
    traj = picard_solve(bump, [V], cfg, gamma, DIMS, sym, 1.0)
    estimate = _half_node_gap(traj, picard_solve, _working_norm(traj)) + cfg.picard_tol
    ref = picard_solve(bump, [V], SolverConfig(horizon=0.25, nodes=128, picard_tol=1e-9),
                       gamma, DIMS, sym, 1.0)
    gap = max(
        float(np.max(np.abs(traj.states[k].values - ref.states[2 * k + 1].values)))
        for k in range(cfg.nodes)
    )
    assert 0.0 < gap <= 5.0 * estimate


def never_called(*args):
    raise AssertionError("the half-node solve ran")


@pytest.mark.parametrize("nodes", [16, 30, 33, 63])
def test_estimate_needs_even_node_count_of_32(sym, bump, nodes):
    """The half-node estimate is refused, before any coarse solve, where
    that solve would fall below 16 nodes or would not share nodes with
    the fine one (odd)."""
    traj = picard_solve(bump, [], SolverConfig(horizon=0.25, nodes=nodes),
                        gamma_of(2.0, 0.7), DIMS, sym, 1.0)
    with pytest.raises(ValueError, match="half-node solve"):
        _half_node_gap(traj, never_called, _sup_norm)


def test_estimate_accepts_even_node_counts_from_32(sym, bump):
    """Node 2j + 1 of the fine grid is node j of the half-node grid: the base
    flow, which has no discretisation error, gives a gap of exactly 0."""
    for nodes in (32, 34, 64):
        traj = picard_solve(bump, [], SolverConfig(horizon=0.25, nodes=nodes),
                            gamma_of(2.0, 0.7), DIMS, sym, 1.0)
        assert _half_node_gap(traj, picard_solve, _sup_norm) == 0.0


def test_weights_built_once_per_grid(monkeypatch):
    """Equal exponents and time grids share one read-only weight table,
    built by one whole-table product_weights call per exponent."""
    from morreylab import duhamel

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return product_weights(*args, **kwargs)

    monkeypatch.setattr(duhamel, "product_weights", counting)
    cfg = SolverConfig(horizon=0.0371, nodes=16, grading=1.0)
    W, conv = _weights([0.25], 0.0, time_grid(cfg))
    assert calls == [0.25] and W.shape == (1, 16, 17)
    again = _weights((0.25,), 0.0, time_grid(cfg).copy())
    assert len(calls) == 1 and again[0] is W and again[1] is conv
    with pytest.raises(ValueError):
        W[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        conv[0] = 1.0
    _weights([0.25], 0.0, time_grid(replace(cfg, horizon=0.0372)))
    assert len(calls) == 2
    _weights([0.15, 0.25], 0.0, time_grid(cfg))
    assert calls[2:] == [0.15, 0.25]


def test_blowup_reported(sym, bump):
    """The iterates grow until their residual norm overflows (at sweep 34):
    that is a blow-up, not a residual of nan sweeping on to the budget."""
    huge = constant_potential(1e6)
    cfg = SolverConfig(horizon=0.25, nodes=16, theta=1.0)
    with pytest.raises(RuntimeError, match="blow-up at t = "), np.errstate(all="ignore"):
        picard_solve(bump, [huge], cfg, gamma_of(2.0, 1.0), DIMS, sym, 1.0)


# -- sequential composition -------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 3])
def test_sequential_needs_two_potentials(sym, bump, count):
    cfg = SolverConfig(horizon=0.25, nodes=32, grading=1.0)
    V = power_law_potential(1.0, 0.5, 1.5)
    with pytest.raises(ValueError, match="exactly two perturbations"):
        sequential_solve(bump, [V] * count, cfg, gamma_of(2.0, 0.7), DIMS, sym, 1.0)


def test_sequential_orders_and_joint_agree(sym, bump):
    cfg = SolverConfig(horizon=0.25, nodes=48, grading=1.0, picard_tol=1e-9)
    V0 = power_law_potential(1.0, 0.3, 2.0)
    V1 = power_law_potential(1.0, 0.5, 1.5)
    gamma = gamma_of(2.0, 0.3)
    joint = picard_solve(bump, [V0, V1], cfg, gamma, DIMS, sym, 1.0)
    s01 = sequential_solve(bump, [V0, V1], cfg, gamma, DIMS, sym, 1.0)
    s10 = sequential_solve(bump, [V1, V0], cfg, gamma, DIMS, sym, 1.0)
    d_orders = max(float(np.max(np.abs(a.values - b.values)))
                   for a, b in zip(s01.states, s10.states))
    d_joint = max(float(np.max(np.abs(a.values - b.values)))
                  for a, b in zip(s01.states, joint.states))
    assert d_orders < 0.05
    assert d_joint < 0.05


@pytest.mark.parametrize("grading", [1.0, 2.0])
def test_sequential_gap_to_joint_shrinks_with_nodes(sym, bump, grading):
    """The sequential composition converges to the joint evolution on
    uniform and graded grids alike: no bias survives refinement."""
    V0, V1 = _two_potentials()
    gamma = gamma_of(2.0, 0.3)
    gaps = []
    for nodes in (32, 64):
        cfg = SolverConfig(horizon=0.25, nodes=nodes, grading=grading, picard_tol=1e-9)
        joint = picard_solve(bump, [V0, V1], cfg, gamma, DIMS, sym, 1.0)
        seq = sequential_solve(bump, [V0, V1], cfg, gamma, DIMS, sym, 1.0)
        gaps.append(max(float(np.max(np.abs(a.values - b.values)))
                        for a, b in zip(seq.states, joint.states)))
    assert gaps[1] <= 0.7 * gaps[0]


def test_sequential_predicted_ratio(sym, bump):
    cfg = SolverConfig(horizon=0.25, nodes=32, grading=1.0, picard_tol=1e-9)
    V0, V1 = _two_potentials()
    for order in ([V0, V1], [V1, V0]):
        traj = sequential_solve(bump, order, cfg, gamma_of(2.0, 0.3), DIMS, sym, 1.0)
        hist = traj.residual_history
        assert traj.predicted_ratio > 0.0
        assert all(b / a <= traj.predicted_ratio + 0.1 for a, b in zip(hist, hist[1:]))


def test_first_stage_memory_bounded_before_allocation():
    """At n = 2^15 the five n x n matrices would take 40 GiB: the guard
    refuses before anything of that size is allocated."""
    V0, _ = _two_potentials()
    n = 2**15
    big = laplacian_power_symbol(1, n, L, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bytes"):
            _propagator_matrices(V0, big, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n


# -- pointwise evaluation ----------------------------------------------------------------


@pytest.fixture(scope="module")
def const_traj(sym, bump):
    cfg = SolverConfig(horizon=0.25, nodes=64, grading=1.0, picard_tol=1e-9)
    return picard_solve(bump, [constant_potential(1.0)], cfg, gamma_of(2.0, 1.0),
                        DIMS, sym, 1.0)


def test_evaluate_at_node(const_traj):
    k = 10
    out = evaluate(const_traj, float(const_traj.times[k]))
    assert np.array_equal(out.values, const_traj.states[k].values)


def test_evaluate_off_node(const_traj, sym, bump):
    t = 0.1303
    out = evaluate(const_traj, t)
    exact = math.exp(t) * apply_semigroup(bump, t, 1.0, sym)
    assert np.max(np.abs(out.values - exact.values)) < 1e-5


@pytest.mark.parametrize("t", [0.0, -0.1, 0.25 * (1.0 + 1e-9), 0.5])
def test_evaluate_only_within_horizon(const_traj, t):
    with pytest.raises(ValueError, match="horizon"):
        evaluate(const_traj, t)
    assert evaluate(const_traj, 0.25) is const_traj.states[-1]


def test_evaluate_small_time_matches_base(const_traj, sym, bump):
    t = 1e-3
    out = evaluate(const_traj, t)
    base = apply_semigroup(bump, t, 1.0, sym)
    assert np.max(np.abs(out.values - base.values)) < 5e-3


def test_2d_constant_potential_spot_check():
    sym2 = laplacian_power_symbol(2, 64, 8.0, 1)
    bump2 = gaussian_bump(2, 64, 8.0)
    dims2 = ProblemDims(2, 1, 1.0)
    cfg = SolverConfig(horizon=0.1, nodes=32, grading=1.0, picard_tol=1e-8)
    gamma = to_index(MorreyParams(2.0, 1.0), dims2)
    traj = picard_solve(bump2, [constant_potential(0.5, N=2)], cfg, gamma, dims2, sym2, 1.0)
    t = traj.times[-1]
    exact = math.exp(0.5 * t) * apply_semigroup(bump2, t, 1.0, sym2)
    assert np.max(np.abs(traj.states[-1].values - exact.values)) < 1e-6


# -- the array-at-a-time engine against per-node references --------------------------


def per_node_sum(a_mu, axes=None):
    """Reference history: one node at a time, one multiplier per distinct lag,
    each term added in Python (the engine's former loop)."""

    def summer(tables, W, conv):
        times = conv[conv.size - W.shape[1]:]
        mults = {}

        def multiplier(tau):
            key = round(float(tau), 15)
            if key not in mults:
                mults[key] = np.exp(-tau * a_mu)
            return mults[key]

        def history(nodes):
            hats = [[np.fft.fftn(tab * u, axes=axes) for u in nodes] for tab in tables]
            out = []
            for k, t in enumerate(times):
                acc = np.zeros_like(hats[0][0])
                for W_i, hats_i in zip(W, hats):
                    for j in np.flatnonzero(W_i[k]):
                        acc += (W_i[k, j] * multiplier(t - conv[j])) * hats_i[j]
                out.append(np.fft.ifftn(acc, axes=axes))
            return np.stack(out)

        return history

    return summer


def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def history_gap(sym, W, conv, real):
    """Relative gap of the engine's history sum to the per-node reference
    on random states and the test potentials (complex ones when not real)."""
    rng = np.random.default_rng(7)
    shape = (conv.size, N)
    stack = rng.standard_normal(shape)
    tables = [V.on_grid(1, N, L).values for V in _two_potentials()][: W.shape[0]]
    if not real:
        stack = stack + 1j * rng.standard_normal(shape)
        tables = [tab * (1.0 + 0.5j) for tab in tables]
    a_mu = sym.power(1.0)
    new = _fourier_sum(a_mu, real)(tables, W, conv)(stack)
    ref = per_node_sum(a_mu)(tables, W, conv)(stack)
    if real:
        assert np.isrealobj(new) and np.max(np.abs(ref.imag)) <= 1e-12 * np.max(np.abs(ref))
        ref = ref.real
    return rel_gap(new, ref)


@pytest.mark.parametrize("grading,d_list,d_gamma", [
    (2.0, [0.3, 0.45], 0.1),   # graded, two potentials, no node at s = 0
    (1.0, [0.3], 0.0),         # uniform, the s = 0 column an endpoint correction
    (1.0, [0.3], 0.1),         # uniform, no node at s = 0: one multiplier row per lag
])
@pytest.mark.parametrize("real", [True, False])
def test_history_matches_per_node_reference(sym, bump, grading, d_list, d_gamma, real):
    times = time_grid(SolverConfig(horizon=0.25, nodes=24, grading=grading))
    W, conv = _weights(d_list, d_gamma, times)
    assert history_gap(sym, W, conv, real) <= 1e-12


def lag_exact(W):
    """A uniform table with a node at s = 0, every entry off that column
    replaced by its lag's weight in column 1 (the row where the lag first
    appears), which is what the time convolution reads."""
    k, j = np.tril_indices(W.shape[1])
    exact = W.copy()
    exact[:, k, j + 1] = W[:, k - j, 1]
    return exact


@pytest.mark.parametrize("nodes,d_list", [
    (24, [0.0]),          # the trapezoid weights of constant_potential
    (24, [0.3, 0.45]),    # two potentials
    (256, [0.3]),         # the node count of the uniform registry solves
])
@pytest.mark.parametrize("real", [True, False])
def test_uniform_history_matches_lag_exact_reference(sym, nodes, d_list, real):
    """The time convolution on uniform grids with a node at s = 0."""
    times = time_grid(SolverConfig(horizon=0.25, nodes=nodes, grading=1.0))
    W, conv = _weights(d_list, 0.0, times)
    assert history_gap(sym, lag_exact(W), conv, real) <= 1e-12


def power_sum(U1):
    """Reference history on a uniform grid, where every lag t_k - s_j is a
    whole number of steps: the stacked data go through the one-step
    matrix U1 once per lag diagonal."""

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


def one_step(V, cfg, symbol):
    """The first-stage propagator over the first time step, Q e^{t_1 lam} Q^T."""
    lam, Q = _propagator_matrices(V, symbol, 1.0)
    return (Q * np.exp(time_grid(cfg)[0] * lam)) @ Q.T


@pytest.mark.parametrize("d_gamma", [0.0, 0.1])  # time convolution, dense
def test_eigenbasis_history_matches_power_reference(sym, d_gamma):
    V0, V1 = _two_potentials()
    cfg = SolverConfig(horizon=0.25, nodes=32, grading=1.0)
    W, conv = _weights([V1.potential_class(DIMS).kappa], d_gamma, time_grid(cfg))
    stack = np.random.default_rng(5).standard_normal((conv.size, N))
    tables = [V1.on_grid(1, N, L).values]
    lam, Q = _propagator_matrices(V0, sym, 1.0)
    new = _spectral_sum(-lam, lambda x: x @ Q, lambda y: y @ Q.T)(tables, W, conv)(stack)
    ref = power_sum(one_step(V0, cfg, sym))(tables, W, conv)(stack)
    assert np.isrealobj(new) and rel_gap(new, ref) <= 1e-12


@pytest.mark.parametrize("d", [0.0, 0.25, 0.6])
def test_uniform_weight_table_is_toeplitz_off_the_s0_column(d):
    """On a uniform grid with a node at s = 0 the weight of node t_k at s_j,
    j >= 1, depends on the lag alone, so the time convolution reads every
    row's weights off column 1 (to roundoff: 6.5e-16 measured); the s = 0
    column does not."""
    times = time_grid(SolverConfig(horizon=0.25, nodes=256, grading=1.0))
    W, _ = _weights([d], 0.0, times)
    by_lag = W[0, :, 1]
    k, j = np.tril_indices(times.size)
    assert rel_gap(W[0, k, j + 1], by_lag[k - j]) <= 1e-15
    assert rel_gap(W[0, :-1, 0], by_lag[1:]) > 0.1


def test_uniform_solve_never_holds_the_dense_operator(sym, bump):
    """The K = 256 uniform constant-potential solve peaks below the
    1 x 129 x 256 x 257 real history operator it once built (68 MB)."""
    cfg = SolverConfig(horizon=0.25, nodes=256, grading=1.0, picard_tol=1e-8)
    tracemalloc.start()
    try:
        picard_solve(bump, [constant_potential(1.0)], cfg, gamma_of(2.0, 1.0), DIMS, sym, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 129 * 256 * 257 * 8


def test_uniform_history_at_large_n_in_bounded_memory():
    """n = 4096, K = 256: the dense operator would need 1.08 GB, above the
    history limit; the time convolution builds and runs a sweep in 64 MB."""
    n = 4096
    a_mu = laplacian_power_symbol(1, n, L, 1).power(1.0)
    times = time_grid(SolverConfig(horizon=0.25, nodes=256, grading=1.0))
    W, conv = _weights([0.0], 0.0, times)
    assert (n // 2 + 1) * 256 * 257 * 8 > _HISTORY_MAX_BYTES
    stack = np.ones((conv.size, n))
    tracemalloc.start()
    try:
        _fourier_sum(a_mu, real=True)([np.ones(n)], W, conv)(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6


@pytest.mark.parametrize("N_dim,n,p", [(1, 128, 2.0), (1, 128, math.inf),
                                       (2, 32, 1.5), (2, 32, math.inf)])
def test_stacked_scan_matches_per_state_norms(N_dim, n, p):
    g = gaussian_bump(N_dim, n, 4.0)
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((5,) + (n,) * N_dim) * g.values
    ladder = RadiusLadder.for_grid(g)
    ell = 0.5 * N_dim
    stacked = _scan(g, stack, p, ell, ladder)
    per_state = [morrey_norm(GridFunction(N_dim, n, 4.0, v), p, ell, ladder) for v in stack]
    assert stacked.shape == (5,)
    assert np.allclose(stacked, per_state, rtol=1e-12, atol=0.0)


def complex_first_stage(V, cfg, symbol, sub_nodes):
    """U1 in complex arithmetic: the Picard fixed point with the identity as
    datum on `sub_nodes` uniform sub-steps of [0, t_1], with the per-node
    history."""
    n = symbol.n
    sub = time_grid(SolverConfig(horizon=float(time_grid(cfg)[0]), nodes=sub_nodes,
                                 grading=cfg.grading))
    a_mu = symbol.power(1.0)[:, None]
    eye = np.eye(n, dtype=complex)
    eye_hat = np.fft.fft(eye, axis=0)
    base = np.stack([np.fft.ifft(np.exp(-s * a_mu) * eye_hat, axis=0) for s in sub])
    table = V.on_grid(1, n, symbol.L).values[:, None]
    mats, _ = _sweep(eye, base, [table], [V.potential_class(DIMS).kappa], 0.0, sub,
                     per_node_sum(a_mu, axes=(0,)),
                     lambda change: np.abs(change).max(axis=(1, 2)), cfg.picard_tol)
    return mats[-1]


def test_first_stage_is_the_limit_of_sub_step_solves():
    """The sub-step Picard solve converges to the eigendecomposition at first
    order: each doubling of the sub-steps cuts its gap to U1 to at most 0.6
    of what it was (about 0.5 measured), so U1 carries no error of its own
    at that level."""
    sym64 = laplacian_power_symbol(1, 64, L, 1)
    V0, _ = _two_potentials()
    cfg = SolverConfig(horizon=0.25, nodes=32, grading=1.0, picard_tol=1e-9)
    U1 = one_step(V0, cfg, sym64)
    assert np.isrealobj(U1)
    gaps = [float(np.max(np.abs(complex_first_stage(V0, cfg, sym64, m) - U1)))
            for m in (16, 32, 64)]
    assert all(fine <= 0.6 * coarse for coarse, fine in zip(gaps, gaps[1:]))


def test_first_stage_constant_potential_closed_form(sym, bump):
    """For V = c the propagator is e^{c t_1} S(t_1)."""
    c = 1.5
    cfg = SolverConfig(horizon=0.25, nodes=32, grading=1.0)
    t1 = float(time_grid(cfg)[0])
    U1 = one_step(constant_potential(c), cfg, sym)
    exact = math.exp(c * t1) * apply_semigroup(bump, t1, 1.0, sym).values
    assert rel_gap(U1 @ bump.values, exact) <= 1e-12


def test_first_stage_rejects_complex_tables(sym):
    V0, _ = _two_potentials()
    skewed = replace(sym, table=sym.table * (1.0 + 0.1j))
    with pytest.raises(ValueError, match="real symbol"):
        _propagator_matrices(V0, skewed, 1.0)
    table = V0.on_grid(1, N, L)
    complex_V = tabulated_potential(GridFunction(1, N, L, table.values * (1.0 + 0.1j)),
                                    V0.p0, V0.ell0)
    with pytest.raises(ValueError, match="real potential"):
        _propagator_matrices(complex_V, sym, 1.0)


def test_history_operator_bytes_guarded_before_allocation():
    """At 2^20 frequencies and 256 nodes the dense operator would take
    512 GiB and the time convolution's working set 32 GiB: both paths
    refuse before allocating anything of that size."""
    times = time_grid(SolverConfig(horizon=0.25, nodes=256, grading=2.0))
    for conv in (times, np.linspace(0.0, 0.25, 257)):  # dense, time convolution
        W = np.zeros((1, times.size, conv.size))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="bytes"):
                _fourier_sum(np.ones(2**20), real=False)([np.ones(2**20)], W, conv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 * 256
