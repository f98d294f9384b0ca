import functools
import json
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from morreylab.checks import (
    CheckContext,
    _half_node_gap,
    _node_norms,
    _two_potentials,
    _weighted_norm,
    check_iterated,
    check_omega_constant,
    check_omega_power,
)
from morreylab.duhamel import (
    SolverConfig,
    _HISTORY_MAX_BYTES,
    _fourier_basis,
    _generator,
    _march,
    _propagator_matrices,
    _weights,
    contraction_bound,
    choose_theta,
    evaluate,
    growth_bound,
    multiply,
    picard_solve,
    ritz_growth_bound,
    sequential_solve,
    time_grid,
)
from morreylab.fixtures import gaussian_bump
from morreylab.grids import GridFunction
from morreylab.indices import (
    MorreyParams,
    ProblemDims,
    ScaleIndex,
    from_index,
    smoothing_distance,
    to_index,
)
from morreylab.norms import RadiusLadder, _scan, morrey_norm
from morreylab.potentials import constant_potential, power_law_potential, tabulated_potential
from morreylab.quadrature import product_weights
from morreylab.semigroup import (
    apply_semigroup,
    laplacian_power_symbol,
    pseudoresolvent,
    subordination_apply,
    symbol_from_coefficients,
)
from morreylab.verify import (
    continuous_dependence_check,
    evolve_norms,
    growth_rate,
    predicted_rate,
    pseudoresolvent_identity,
)

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
    assert [f.name for f in fields(SolverConfig)] == ["horizon", "nodes", "grading"]


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
    phi = GridFunction(1, 4096, 1.0, np.exp(-((table.radii() / 0.3) ** 2)))
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
    """Every distinct theta choice of a default `morreylab run` (seed 0) when
    the solver still weighted its sweeps, with its predicted ratio, as the
    scipy.special log-Beta values gave them: the math.lgamma row picks the
    same theta and agrees to 1e-14 (the fixed-theta row through
    contraction_bound at that theta)."""
    rows = json.loads((Path(__file__).parent / "data" / "registry_theta.json").read_text())
    assert len(rows) == 21
    for row in rows:
        args = row["d_list"], row["d_gamma"]
        if row["fixed"] is None:
            theta, ratio = choose_theta(row["norm_bound"], *args, row["horizon"])
        else:
            theta = row["fixed"]
            ratio = row["norm_bound"] * sum(contraction_bound(theta, row["horizon"], *args))
        assert theta == row["theta"]
        assert ratio == pytest.approx(row["ratio"], rel=1e-14, abs=0)


def test_choose_theta_gives_up_at_ladder_top():
    with pytest.raises(RuntimeError, match="theta ladder up to 1.67772e\\+07"):
        choose_theta(1e12, [0.25], 0.1, 0.5)


# -- fixed points ---------------------------------------------------------------------


def test_no_potential_is_base_flow(sym, bump):
    cfg = SolverConfig(horizon=0.25, nodes=32)
    traj = picard_solve(bump, [], cfg, gamma_of(2.0, 1.0), DIMS, sym)
    for t, state in zip(traj.times, traj.states):
        exact = apply_semigroup(bump, t, 1.0, sym)
        assert np.array_equal(state.values, exact.values)


def test_constant_potential_exponential(sym, bump):
    """The trapezoid rule's error at K = 256 (1.8e-8 measured) within the
    check's 1e-7."""
    c = 1.0
    cfg = SolverConfig(horizon=0.25, nodes=256, grading=1.0)
    traj = picard_solve(bump, [constant_potential(c)], cfg, gamma_of(2.0, 1.0),
                        DIMS, sym)
    worst = max(
        float(np.max(np.abs(s.values - math.exp(c * t) * apply_semigroup(bump, t, 1.0, sym).values)))
        for t, s in zip(traj.times, traj.states)
    )
    assert worst <= 1e-7


def test_linearity(sym, bump):
    """The march is linear in the datum to roundoff at every node."""
    cfg = SolverConfig(horizon=0.25, nodes=48)
    V = power_law_potential(1.0, 0.5, 1.5)
    gamma = gamma_of(2.0, 0.7)
    other = GridFunction(1, N, L, np.cos(np.pi * bump.axis() / L) ** 2)
    a, b = 2.0, -0.5
    combo = picard_solve(a * bump + b * other, [V], cfg, gamma, DIMS, sym)
    one = picard_solve(bump, [V], cfg, gamma, DIMS, sym)
    two = picard_solve(other, [V], cfg, gamma, DIMS, sym)
    for c, u, v in zip(combo.states, one.states, two.states):
        assert rel_gap((a * u + b * v).values, c.values) <= 1e-14


def test_consistency_across_gamma(sym, bump):
    """The same datum declared in two admissible spaces evolves identically.

    The two declarations pick different working indices, hence
    different singular-layer exponents in the quadrature, so agreement
    is limited by the two runs' time-discretization errors (about 1e-3
    at this node count).
    """
    cfg = SolverConfig(horizon=0.25, nodes=48)
    V = power_law_potential(1.0, 0.5, 1.5)
    t1 = picard_solve(bump, [V], cfg, gamma_of(2.0, 0.7), DIMS, sym)
    t2 = picard_solve(bump, [V], cfg, gamma_of(4.0, 0.5), DIMS, sym)
    worst = max(float(np.max(np.abs(a.values - b.values)))
                for a, b in zip(t1.states, t2.states))
    assert worst <= 2e-3


def contraction_theta(traj):
    """check_contraction's theta and predicted factor for a trajectory whose
    last potential is the perturbation."""
    u0, V = traj.u0, traj.potentials[-1]
    return choose_theta(V.measured_norm(u0.N, u0.n, u0.L), [V.potential_class(DIMS).kappa],
                        smoothing_distance(traj.alpha, traj.gamma), traj.config.horizon)


def test_apriori_weighted_bound(sym, bump):
    """sup_k e^{-theta t} t^d ||u||_alpha <= 2 C ||u0||_gamma with C fitted
    from the base flow, at the contraction check's theta."""
    cfg = SolverConfig(horizon=0.25, nodes=48)
    V = power_law_potential(1.0, 0.5, 1.5)
    traj = picard_solve(bump, [V], cfg, gamma_of(2.0, 0.7), DIMS, sym)
    theta, _ = contraction_theta(traj)
    u_norm = _weighted_norm(traj, np.stack([s.values for s in traj.states]), theta)
    base = apply_semigroup(bump, traj.times, 1.0, sym)
    base_norm = _weighted_norm(traj, np.stack([b.values for b in base]), theta)
    gamma_norm = morrey_norm(bump, 2.0, 0.7)
    C_fit = base_norm / gamma_norm
    assert u_norm <= 2.0 * C_fit * gamma_norm


def test_self_convergence_within_estimate(sym, bump):
    """Doubling the grid moves the answer by less than the half-node estimate
    that the semigroup check budgets for."""
    V = power_law_potential(1.0, 0.5, 1.5)
    gamma = gamma_of(2.0, 0.7)
    cfg = SolverConfig(horizon=0.25, nodes=64)
    traj = picard_solve(bump, [V], cfg, gamma, DIMS, sym)
    estimate = _half_node_gap(traj, picard_solve, _node_norms)
    ref = picard_solve(bump, [V], SolverConfig(horizon=0.25, nodes=128),
                       gamma, DIMS, sym)
    gap = max(
        float(np.max(np.abs(traj.states[k].values - ref.states[2 * k + 1].values)))
        for k in range(cfg.nodes)
    )
    assert 0.0 < gap <= 5.0 * estimate


def sup_norms(traj, stack):
    """The sup norm of each state of a stack, as _half_node_gap takes it."""
    return np.abs(stack).max(axis=tuple(range(1, stack.ndim)))


def never_called(*args):
    raise AssertionError("the half-node solve ran")


@pytest.mark.parametrize("nodes", [16, 30, 33, 63])
def test_estimate_needs_even_node_count_of_32(sym, bump, nodes):
    """The half-node estimate is refused, before any coarse solve, where
    that solve would fall below 16 nodes or would not share nodes with
    the fine one (odd)."""
    traj = picard_solve(bump, [], SolverConfig(horizon=0.25, nodes=nodes),
                        gamma_of(2.0, 0.7), DIMS, sym)
    with pytest.raises(ValueError, match="half-node solve"):
        _half_node_gap(traj, never_called, sup_norms)


def test_estimate_accepts_even_node_counts_from_32(sym, bump):
    """Node 2j + 1 of the fine grid is node j of the half-node grid: the base
    flow, which has no discretisation error, gives a gap of exactly 0."""
    for nodes in (32, 34, 64):
        traj = picard_solve(bump, [], SolverConfig(horizon=0.25, nodes=nodes),
                            gamma_of(2.0, 0.7), DIMS, sym)
        assert _half_node_gap(traj, picard_solve, sup_norms) == 0.0


@pytest.mark.parametrize("dims, n", [(DIMS, 256), (ProblemDims(2, 1, 1.0), 32)])
def test_node_norms_match_per_state_norms(dims, n):
    """_node_norms' one stacked scan against one morrey_norm per state of a
    trajectory: bit for bit on the 1D window path, to roundoff on the 2D
    Fourier path."""
    u0 = gaussian_bump(dims.N, n, L)
    traj = picard_solve(u0, [power_law_potential(1.0, 0.5, 1.5)],
                        SolverConfig(horizon=0.25, nodes=16),
                        to_index(MorreyParams(2.0, 0.7), dims), dims,
                        laplacian_power_symbol(dims.N, n, L, 1))
    mp = from_index(traj.alpha, dims)
    ladder = RadiusLadder.for_grid(u0)
    per_state = np.array([morrey_norm(s, mp.p, mp.ell, ladder) for s in traj.states])
    stacked = _node_norms(traj, np.stack([s.values for s in traj.states]))
    if dims.N == 1:
        assert np.array_equal(stacked, per_state)
    else:
        np.testing.assert_allclose(stacked, per_state, rtol=1e-13, atol=0.0)


def test_stacked_gaps_match_per_state_reference(sym, bump):
    """The half-node estimate and the continuous-dependence constants, each
    from stacked scans, equal their per-state morrey_norm references on
    the same solves, bit for bit."""
    V = power_law_potential(1.0, 0.5, 1.5)
    cfg = SolverConfig(horizon=0.25, nodes=32)
    traj = picard_solve(bump, [V], cfg, gamma_of(2.0, 0.7), DIMS, sym)
    coarse = picard_solve(bump, [V], replace(cfg, nodes=16), gamma_of(2.0, 0.7), DIMS, sym)
    mp = from_index(traj.alpha, DIMS)
    ladder = RadiusLadder.for_grid(bump)
    assert _half_node_gap(traj, picard_solve, _node_norms) == max(
        morrey_norm(traj.states[2 * j + 1] - coarse.states[j], mp.p, mp.ell, ladder)
        for j in range(16))

    dst, eps = MorreyParams(2.0, 0.7), (0.05, 0.1, 0.2)
    perturbed = [picard_solve(bump, [power_law_potential(1.0 + e, 0.5, 1.5)], cfg,
                              gamma_of(2.0, 0.7), DIMS, sym) for e in eps]
    gaps = np.array(eps) * V.measured_norm(1, N, L)
    _, consts = continuous_dependence_check(traj, perturbed, gaps, dst, DIMS)
    d = -predicted_rate(from_index(traj.gamma, DIMS), dst, DIMS)
    sups = np.array([float((traj.times**d * np.array([
        morrey_norm(a - b, dst.p, dst.ell, ladder)
        for a, b in zip(p.states, traj.states)])).max()) for p in perturbed])
    assert consts == (sups / gaps).tolist()


def test_one_grid_agreement_rule(sym, bump):
    """A potential table, grid arithmetic and a symbol accept the same box
    half-widths: within 1e-12 L of the datum's, and no further.  So a
    potential the solver accepts is also one the resolvent identity's
    products accept."""
    def table_on(L2):
        return tabulated_potential(power_law_potential(1.0, 0.5, 1.5).on_grid(1, N, L2),
                                   1.5, 0.75)

    for offset, agrees in ((5e-13, True), (1e-11, False)):
        L2 = L * (1.0 + offset)
        V = table_on(L2)
        outcomes = []
        for attempt in (lambda: V.on_grid(1, N, L), lambda: multiply(V, bump),
                        lambda: bump + V.table,
                        lambda: laplacian_power_symbol(1, N, L2, 1).require_agreement(bump)):
            try:
                attempt()
                outcomes.append(True)
            except ValueError:
                outcomes.append(False)
        assert outcomes == [agrees] * 4, (offset, outcomes)
    traj = picard_solve(bump, [table_on(L * (1.0 + 5e-13))], SolverConfig(horizon=0.5, nodes=16),
                        gamma_of(2.0, 0.7), DIMS, sym)
    assert 0.0 <= pseudoresolvent_identity(traj, -4.0) < 1.0


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
    """V = 10^6 outweighs the first node's own weight: 1 - W V is negative
    there, a blow-up at t_1 before any state is divided by it."""
    huge = constant_potential(1e6)
    cfg = SolverConfig(horizon=0.25, nodes=16)
    with pytest.raises(RuntimeError, match="blow-up at t = 0.000976562: 1 - sum_i W_i V_i"):
        picard_solve(bump, [huge], cfg, gamma_of(2.0, 1.0), DIMS, sym)


def test_blowup_on_a_state_that_is_not_finite():
    """A state that is not finite is a blow-up named at its node: a base
    growing as e^{13000 t} is finite at t = 0.046875 (e^609) and overflows
    at the next node."""
    times = time_grid(SolverConfig(horizon=0.25, nodes=16, grading=1.0))
    growth = (np.full(N, -13000.0), lambda x: x, lambda y: y)
    with np.errstate(over="ignore"), pytest.raises(
            RuntimeError, match="blow-up at t = 0.0625: the state is not finite"):
        _march(np.ones(N), [np.zeros(N)], [0.0], 0.0, times, growth)


# -- sequential composition -------------------------------------------------------------


@pytest.mark.parametrize("count", [1, 3])
def test_sequential_needs_two_potentials(sym, bump, count):
    cfg = SolverConfig(horizon=0.25, nodes=32, grading=1.0)
    V = power_law_potential(1.0, 0.5, 1.5)
    with pytest.raises(ValueError, match="exactly two perturbations"):
        sequential_solve(bump, [V] * count, cfg, gamma_of(2.0, 0.7), DIMS, sym)


def test_sequential_orders_and_joint_agree(sym, bump):
    cfg = SolverConfig(horizon=0.25, nodes=48, grading=1.0)
    V0 = power_law_potential(1.0, 0.3, 2.0)
    V1 = power_law_potential(1.0, 0.5, 1.5)
    gamma = gamma_of(2.0, 0.3)
    joint = picard_solve(bump, [V0, V1], cfg, gamma, DIMS, sym)
    s01 = sequential_solve(bump, [V0, V1], cfg, gamma, DIMS, sym)
    s10 = sequential_solve(bump, [V1, V0], cfg, gamma, DIMS, sym)
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
        cfg = SolverConfig(horizon=0.25, nodes=nodes, grading=grading)
        joint = picard_solve(bump, [V0, V1], cfg, gamma, DIMS, sym)
        seq = sequential_solve(bump, [V0, V1], cfg, gamma, DIMS, sym)
        gaps.append(max(float(np.max(np.abs(a.values - b.values)))
                        for a, b in zip(seq.states, joint.states)))
    assert gaps[1] <= 0.7 * gaps[0]


def test_sequential_predicted_ratio(sym, bump):
    """The second stage's linear part, u - S_{V1}(t) u0, over u in the
    weighted norm stays within the factor predicted for the second
    potential at the contraction check's theta."""
    cfg = SolverConfig(horizon=0.25, nodes=32, grading=1.0)
    for V1, V2 in (_two_potentials(), _two_potentials()[::-1]):
        traj = sequential_solve(bump, [V1, V2], cfg, gamma_of(2.0, 0.3), DIMS, sym)
        theta, predicted = contraction_theta(traj)
        lam, Q = _propagator_matrices(V1, sym, 1.0)
        first = (np.exp(np.multiply.outer(traj.times, lam)) * (bump.values @ Q)) @ Q.T
        u = np.stack([s.values for s in traj.states])
        ratio = _weighted_norm(traj, u - first, theta) / _weighted_norm(traj, u, theta)
        assert 0.0 < ratio <= predicted


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


# -- one datum, one symbol, one dims ----------------------------------------------------

# each entry applied to the datum `bump` (n = 256, L = 8) and a symbol under
# DIMS (N = 1, m = 1, mu = 1)
_SYMBOL_ENTRIES = {
    "apply_semigroup": lambda u, s: apply_semigroup(u, 0.1, 1.0, s),
    "pseudoresolvent": lambda u, s: pseudoresolvent(u, -4.0, 1.0, s),
    "subordination_apply": lambda u, s: subordination_apply(u, 0.1, s),
    "picard_solve": lambda u, s: picard_solve(
        u, [power_law_potential(1.0, 0.5, 1.5)], SolverConfig(horizon=0.25, nodes=16),
        gamma_of(2.0, 0.7), DIMS, s),
    "sequential_solve": lambda u, s: sequential_solve(
        u, _two_potentials(), SolverConfig(horizon=0.25, nodes=16),
        gamma_of(2.0, 0.3), DIMS, s),
}
# (N, n, L, m) of symbols that contradict the datum's box or size, or the dims' order
_MISMATCHED = {
    "L4": ((1, N, 4.0, 1), "grid/symbol"),
    "n128": ((1, 128, L, 1), "grid/symbol"),
    "m2": ((1, N, L, 2), "symbol/dims"),
}


@pytest.mark.parametrize("entry,case", [(e, c) for c in ("L4", "n128") for e in _SYMBOL_ENTRIES]
                         + [("picard_solve", "m2"), ("sequential_solve", "m2")])
def test_mismatched_symbol_refused_before_any_transform(bump, monkeypatch, entry, case):
    """A symbol from another box, size or order raises ValueError, and does so
    before any FFT or eigendecomposition runs."""
    grid, message = _MISMATCHED[case]
    symbol = laplacian_power_symbol(*grid)

    def forbidden(*args, **kwargs):
        raise AssertionError("a transform ran before the refusal")

    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, forbidden)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    with pytest.raises(ValueError, match=message):
        _SYMBOL_ENTRIES[entry](bump, symbol)


# -- pointwise evaluation ----------------------------------------------------------------


@pytest.fixture(scope="module")
def const_traj(sym, bump):
    cfg = SolverConfig(horizon=0.25, nodes=64, grading=1.0)
    return picard_solve(bump, [constant_potential(1.0)], cfg, gamma_of(2.0, 1.0),
                        DIMS, sym)


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
    cfg = SolverConfig(horizon=0.1, nodes=32, grading=1.0)
    gamma = to_index(MorreyParams(2.0, 1.0), dims2)
    traj = picard_solve(bump2, [constant_potential(0.5, N=2)], cfg, gamma, dims2, sym2)
    t = traj.times[-1]
    exact = math.exp(0.5 * t) * apply_semigroup(bump2, t, 1.0, sym2)
    assert np.max(np.abs(traj.states[-1].values - exact.values)) < 1e-6


# -- the march against converged references ------------------------------------------


def per_node_sum(a_mu, axes=None):
    """Reference history: one node at a time on the full spectrum, every
    decay e^{-(t_k - s_j) a^mu} computed from its own pair of times, each
    state transformed on its own over `axes`."""

    def summer(tables, W, conv):
        times = conv[conv.size - W.shape[1]:]
        off = conv.size - times.size

        def history(nodes):
            hats = np.stack([[np.fft.fftn(tab * u, axes=axes) for u in nodes] for tab in tables])
            out = []
            for k, t in enumerate(times):
                j = k + off + 1  # s_j <= t_k
                decay = np.exp(-np.multiply.outer(t - conv[:j], a_mu))
                w = W[:, k, :j].reshape((W.shape[0], j) + (1,) * (decay.ndim - 1))
                out.append(np.fft.ifftn((w * decay * hats[:, :j]).sum(axis=(0, 1)), axes=axes))
            return np.stack(out)

        return history

    return summer


def fixed_point(u0, base, history, conv):
    """u = base + history(u) by Picard iteration from the base, until a sweep
    moves u by at most 1e-15 of its size: the march's reference."""
    K = base.shape[0]
    nodes = np.empty((conv.size,) + base.shape[1:], complex)
    nodes[: conv.size - K] = u0
    nodes[conv.size - K:] = base
    for _ in range(200):
        new = base + history(nodes)
        change = np.max(np.abs(new - nodes[conv.size - K:]))
        nodes[conv.size - K:] = new
        if change <= 1e-15 * np.max(np.abs(new)):
            return new
    raise AssertionError(f"no convergence: last change {change:.3g}")


def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def march_gap(symbol, d_list, d_gamma, times, real):
    """Relative gap of the Fourier-basis march to the fixed point of the
    per-node reference history, on random data and the test potentials
    (complex ones when not real); the reference's base is the free
    evolution of the data, one full-spectrum transform pair per node."""
    n = symbol.n
    rng = np.random.default_rng(7)
    u0 = rng.standard_normal(n)
    tables = [V.on_grid(1, n, L).values for V in _two_potentials()][: len(d_list)]
    if not real:
        u0 = u0 + 1j * rng.standard_normal(n)
        tables = [tab * (1.0 + 0.5j) for tab in tables]
    a_mu = symbol.power(1.0)
    base = np.stack([np.fft.ifft(np.exp(-t * a_mu) * np.fft.fft(u0)) for t in times])
    new = np.stack(_march(u0, tables, d_list, d_gamma, times, _fourier_basis(a_mu, real)))
    W, conv = _weights(d_list, d_gamma, times)
    ref = fixed_point(u0, base, per_node_sum(a_mu)(tables, W, conv), conv)
    if real:
        assert np.isrealobj(new) and np.max(np.abs(ref.imag)) <= 1e-12 * np.max(np.abs(ref))
        ref = ref.real
    return rel_gap(new, ref)


@pytest.mark.parametrize("grading,d_list,d_gamma", [
    (2.0, [0.3, 0.45], 0.1),   # graded, two potentials, no node at s = 0
    (1.0, [0.3], 0.0),         # uniform, a node at s = 0
    (1.0, [0.3], 0.1),         # uniform, no node at s = 0
])
@pytest.mark.parametrize("real", [True, False])
def test_history_matches_per_node_reference(sym, grading, d_list, d_gamma, real):
    """The march's history sums, read from coefficients carried node to node
    by one decay factor each, solve the system the per-node reference
    history defines."""
    times = time_grid(SolverConfig(horizon=0.25, nodes=24, grading=grading))
    assert march_gap(sym, d_list, d_gamma, times, real) <= 1e-12


@pytest.mark.parametrize("horizon,nodes,d_list,d_gamma", [
    (0.25, 256, [0.3], 0.0),
    (3.2, 192, [0.25], 7 / 120),   # the grid and exponents of pseudoresolvent_power
])
@pytest.mark.parametrize("real", [True, False])
def test_long_graded_history_matches_per_node_reference(horizon, nodes, d_list, d_gamma, real):
    """On long graded grids each coefficient goes through up to K decay
    factors of different steps; the roundoff those products accumulate
    stays within the per-node reference's bound (a 32-point grid keeps
    K = 256 quick)."""
    times = time_grid(SolverConfig(horizon=horizon, nodes=nodes, grading=2.0))
    small = laplacian_power_symbol(1, 32, L, 1)
    assert march_gap(small, d_list, d_gamma, times, real) <= 1e-12


@pytest.mark.parametrize("nodes,d_list", [
    (24, [0.0]),          # the trapezoid weights of constant_potential
    (24, [0.3, 0.45]),    # two potentials
    (256, [0.3]),         # the node count of the uniform registry solves
])
@pytest.mark.parametrize("real", [True, False])
def test_uniform_history_matches_lag_exact_reference(nodes, d_list, real):
    """On a uniform grid with a node at s = 0 the march reaches the decay
    e^{-l h a^mu} of lag l as l products of the one-step factor; the
    reference takes each from its own pair of times (a 32-point grid keeps
    K = 256 quick)."""
    times = time_grid(SolverConfig(horizon=0.25, nodes=nodes, grading=1.0))
    small = laplacian_power_symbol(1, 32, L, 1)
    assert march_gap(small, d_list, 0.0, times, real) <= 1e-12


@pytest.mark.parametrize("nodes,grading,d_gamma", [
    (24, 2.0, 0.1),    # graded, no node at s = 0
    (256, 2.0, 0.1),   # graded, many checkpoints
    (50, 1.0, 0.0),    # uniform, a node at s = 0
])
def test_complex_symbol_history_matches_per_node_reference(nodes, grading, d_gamma):
    """A complex symbol gives complex rates: each decay factor turns the
    coefficients' phase as well as shrinking them, through the in-place
    decay and the checkpoints' running product alike."""
    times = time_grid(SolverConfig(horizon=0.25, nodes=nodes, grading=grading))
    skew = symbol_from_coefficients(1, 32, L, 1, {2: -(1 + 0.3j)})
    assert np.iscomplexobj(skew.power(1.0))
    assert march_gap(skew, [0.3, 0.45], d_gamma, times, real=False) <= 1e-12


def power_sum(U1):
    """Reference history on a uniform grid, where every lag t_k - s_j is a
    whole number of steps: the stacked data go through the one-step
    matrix U1 once per lag diagonal j = k + off - lag."""

    def summer(tables, W, conv):
        K, J = W.shape[1:]
        off = J - K

        def history(nodes):
            Y = [(tab * nodes).T for tab in tables]
            out = np.zeros((K, U1.shape[0]), dtype=np.result_type(U1, *Y))
            for lag in range(J):
                k0 = max(lag - off, 0)
                j0 = k0 + off - lag
                if lag:
                    Y = [U1 @ y[:, : J - lag] for y in Y]
                w = np.diagonal(W, j0 - k0, axis1=1, axis2=2)
                for w_i, y in zip(w, Y):
                    out[k0:] += (y[:, j0:j0 + K - k0] * w_i).T
            return out

        return history

    return summer


def one_step(V, cfg, symbol):
    """The first-stage propagator over the first time step, Q e^{t_1 lam} Q^T."""
    lam, Q = _propagator_matrices(V, symbol, 1.0)
    return (Q * np.exp(time_grid(cfg)[0] * lam)) @ Q.T


def eigenbasis_gap(symbol, V0, d_gamma, nodes):
    """Relative gap of the march in V0's eigenbasis to the fixed point of
    the one-step-matrix reference history, whose base is the datum through
    the one-step matrix once per node, on a uniform grid."""
    _, V1 = _two_potentials()
    cfg = SolverConfig(horizon=0.25, nodes=nodes, grading=1.0)
    times = time_grid(cfg)
    d_list = [V1.potential_class(DIMS).kappa]
    rng = np.random.default_rng(5)
    u0 = rng.standard_normal(N)
    tables = [V1.on_grid(1, N, L).values]
    lam, Q = _propagator_matrices(V0, symbol, 1.0)
    new = np.stack(_march(u0, tables, d_list, d_gamma, times,
                          (-lam, lambda x: x @ Q, lambda y: y @ Q.T)))
    U1 = one_step(V0, cfg, symbol)
    base = np.stack([np.linalg.matrix_power(U1, k) @ u0 for k in range(1, times.size + 1)])
    W, conv = _weights(d_list, d_gamma, times)
    ref = fixed_point(u0, base, power_sum(U1)(tables, W, conv), conv)
    assert np.isrealobj(new)
    return rel_gap(new, ref.real)


@pytest.mark.parametrize("d_gamma", [0.0, 0.1])  # a node at s = 0, none
def test_eigenbasis_history_matches_power_reference(sym, d_gamma):
    """The march in the first stage's eigenbasis solves the system the
    one-step-matrix reference history defines."""
    assert eigenbasis_gap(sym, _two_potentials()[0], d_gamma, 32) <= 1e-12


def test_eigenbasis_history_under_growth_across_checkpoints(sym):
    """A first stage four times stronger has nine positive eigenvalues, the
    top one 4.88, so the march's rates -lambda are negative there and
    every decay factor of those modes is a growth factor; over K = 64
    nodes the stored coefficients pass eight checkpoints of B = 8 nodes."""
    V0 = power_law_potential(4.0, 0.3, 2.0)
    assert _propagator_matrices(V0, sym, 1.0)[0][-1] > 4.0
    assert eigenbasis_gap(sym, V0, 0.0, 64) <= 1e-12


def exact_shapes():
    """The six solve shapes of tests/data/exact_solves.npz: the registry's
    `iterated` joint and sequential solves, the power-law solve, the A = 4
    step of `omega_power`, `constant_potential`'s solve and
    `pseudoresolvent_power`'s.  The file holds 16 nodes of each, the last
    included, from Picard iteration at theta = 1 run to a weighted residual
    of 1e-14 (the solver before the march)."""
    ctx = CheckContext(DIMS, 4096, L)
    bump, sym = gaussian_bump(1, N, L), ctx.symbol(n=N)
    V0, V1 = _two_potentials()
    power = power_law_potential(1.0, 0.5, 1.5)
    uniform = SolverConfig(horizon=0.25, nodes=64, grading=1.0)
    return {
        "joint": lambda: picard_solve(bump, [V0, V1], uniform, gamma_of(2.0, 0.3), DIMS, sym),
        "sequential": lambda: sequential_solve(bump, [V0, V1], uniform, gamma_of(2.0, 0.3),
                                               DIMS, sym),
        "power_law": lambda: picard_solve(bump, [power], SolverConfig(horizon=0.25, nodes=48),
                                          gamma_of(2.0, 0.7), DIMS, sym),
        "omega_step": lambda: picard_solve(
            GridFunction.constant(1.0, 1, 512, L), [power_law_potential(4.0, 0.5, 1.5)],
            SolverConfig(horizon=0.25, nodes=16, grading=1.0), ScaleIndex(0.0, 0.0),
            DIMS, ctx.symbol(n=512)),
        "constant": lambda: picard_solve(bump, [constant_potential(1.0)],
                                         SolverConfig(horizon=0.25, nodes=256, grading=1.0),
                                         gamma_of(2.0, 1.0), DIMS, sym),
        "pseudoresolvent_power": lambda: picard_solve(bump, [power],
                                                      SolverConfig(horizon=3.2, nodes=192),
                                                      gamma_of(2.0, 0.7), DIMS, sym),
    }


@pytest.mark.parametrize("name", list(exact_shapes()))
def test_march_matches_converged_picard(name):
    """One march gives the discrete system's exact solution: every stored
    node of the converged Picard reference within 1e-13 relative."""
    traj = exact_shapes()[name]()
    with np.load(Path(__file__).parent / "data" / "exact_solves.npz") as exact:
        for k, ref in zip(exact[name + "_nodes"], exact[name]):
            assert rel_gap(traj.states[k].values, ref) <= 1e-13


@pytest.mark.parametrize("d", [0.0, 0.25, 0.6])
def test_uniform_weight_table_is_toeplitz_off_the_s0_column(d):
    """On a uniform grid with a node at s = 0 the weight of node t_k at s_j,
    j >= 1, depends on the lag alone (to roundoff: 6.5e-16 measured); the
    s = 0 column does not."""
    times = time_grid(SolverConfig(horizon=0.25, nodes=256, grading=1.0))
    W, _ = _weights([d], 0.0, times)
    by_lag = W[0, :, 1]
    k, j = np.tril_indices(times.size)
    assert rel_gap(W[0, k, j + 1], by_lag[k - j]) <= 1e-15
    assert rel_gap(W[0, :-1, 0], by_lag[1:]) > 0.1


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_uniform_solve_never_holds_the_dense_operator(sym, bump):
    """The K = 256 uniform constant-potential solve peaks far below the
    1 x 129 x 256 x 257 real history operator a dense history would hold
    (68 MB): 2.3 MB measured, for its states, divisors and coefficients."""
    cfg = SolverConfig(horizon=0.25, nodes=256, grading=1.0)
    peak = peak_bytes(lambda: picard_solve(bump, [constant_potential(1.0)], cfg,
                                           gamma_of(2.0, 1.0), DIMS, sym))
    assert peak < 8e6


def test_uniform_history_at_large_n_in_bounded_memory():
    """n = 4096, K = 256: a dense history operator would need 1.08 GB, above
    the limit.  The march holds three arrays of 8.4 MB each, its
    coefficients, its divisors and its states, and sums each node's
    history by a matrix-vector product with no (I, j, F) temporary; it
    peaks at 26.1 MB (measured), below 30 MB."""
    n = 4096
    a_mu = laplacian_power_symbol(1, n, L, 1).power(1.0)
    times = time_grid(SolverConfig(horizon=0.25, nodes=256, grading=1.0))
    assert (n // 2 + 1) * 256 * 257 * 8 > _HISTORY_MAX_BYTES
    peak = peak_bytes(lambda: _march(np.ones(n), [np.ones(n)], [0.0], 0.0, times,
                                     _fourier_basis(a_mu, real=True)))
    assert peak < 30e6


def test_march_byte_guard_counts_coefficients_and_states(monkeypatch):
    """The limit covers the stored coefficients (J x F complex) and the K
    real states (K x n float64) together: one byte under their sum refuses
    the march before it allocates, and their sum lets it run."""
    n, K = 64, 16
    a_mu = laplacian_power_symbol(1, n, L, 1).power(1.0)
    times = time_grid(SolverConfig(horizon=0.25, nodes=K, grading=1.0))
    coefficients, states = (K + 1) * (n // 2 + 1) * 16, K * n * 8

    def march():
        return _march(np.ones(n), [np.ones(n)], [0.0], 0.0, times,
                      _fourier_basis(a_mu, real=True))

    monkeypatch.setattr("morreylab.duhamel._HISTORY_MAX_BYTES", coefficients + states - 1)
    with pytest.raises(ValueError, match=f"needs {coefficients + states} bytes"):
        march()
    monkeypatch.setattr("morreylab.duhamel._HISTORY_MAX_BYTES", coefficients + states)
    assert len(march()) == K


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
    W, conv = _weights([V.potential_class(DIMS).kappa], 0.0, sub)
    return fixed_point(eye, base, per_node_sum(a_mu, axes=(0,))([table], W, conv), conv)[-1]


def test_first_stage_is_the_limit_of_sub_step_solves():
    """The sub-step Picard solve converges to the eigendecomposition at first
    order: each doubling of the sub-steps cuts its gap to U1 to at most 0.6
    of what it was (about 0.5 measured), so U1 carries no error of its own
    at that level."""
    sym64 = laplacian_power_symbol(1, 64, L, 1)
    V0, _ = _two_potentials()
    cfg = SolverConfig(horizon=0.25, nodes=32, grading=1.0)
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


@pytest.mark.parametrize("m, mu", [(1, 1.0), (1, 0.75), (1, 0.5), (2, 1.0)])
def test_growth_bound_of_a_constant_potential_is_c(m, mu):
    """V = c shifts the generator's spectrum, whose top is c - min a^mu = c.
    growth_bound returns it within the eigensolver's backward error, a
    small multiple of eps ||H|| <= eps (c + max a^mu): about 1e-12 of c at
    m = 1, but 8.5e-10 at m = 2, where max a^mu is 6.4e6 on this grid."""
    symbol = laplacian_power_symbol(1, N, L, m)
    spread = float(np.max(symbol.power(mu)))
    for c in (0.25, 0.5, 1.0, 2.0):
        bound = 1e-12 * c + 16.0 * np.finfo(float).eps * (c + spread)
        assert abs(growth_bound(constant_potential(c), symbol, mu) - c) <= bound


@pytest.mark.parametrize("step", [0.0625, 0.03125])
def test_growth_bound_matches_the_time_domain_rate(step):
    """At A = 16 (n = 512, mu = 1) the late-window rate of restarted solves
    over T = 2 lies within 2.5e-3 of growth_bound, relative: measured
    +1.8e-4 and -1.7e-3 against 40.255.  Below step 0.0625 the restarted
    rate levels off about 1.7e-3 under it, so no convergence order is
    asserted.  The second eigenvalue, 17.63, is far outside the band."""
    symbol = laplacian_power_symbol(1, 512, L, 1)
    V = power_law_potential(16.0, 0.5, 1.5)
    exact = growth_bound(V, symbol, 1.0)
    times, norms = evolve_norms(GridFunction.constant(1.0, 1, 512, L), [V], DIMS, symbol,
                                step=step, n_steps=round(2.0 / step))
    assert abs(growth_rate(times, norms) - exact) <= 2.5e-3 * exact


def test_omega_checks_never_march(monkeypatch):
    """Both 1D omega checks read growth_bound alone: with the march made to
    raise, they still run and pass."""
    from morreylab import duhamel

    def no_march(*args, **kwargs):
        raise AssertionError("the march ran")

    monkeypatch.setattr(duhamel, "_march", no_march)
    ctx = CheckContext(DIMS, 4096, L)
    assert check_omega_constant(ctx).passed and check_omega_power(ctx).passed


# potential, n, m, mu of each comparison with the dense generator
_DENSE_CASES = {
    **{f"omega_power A={A}": (lambda A=A: power_law_potential(A, 0.5, 1.5), 512, 1, 1.0)
       for A in (0.5, 1.0, 2.0, 4.0)},
    **{f"iterated V{i}": (lambda i=i: _two_potentials()[i], 256, 1, 1.0) for i in (0, 1)},
    "m=2 mu=1": (lambda: power_law_potential(1.0, 0.5, 1.5), 128, 2, 1.0),
    "m=1 mu=1/2": (lambda: power_law_potential(1.0, 0.5, 1.5), 256, 1, 0.5),
}


@pytest.mark.parametrize("case", list(_DENSE_CASES))
def test_growth_bound_matches_the_dense_eigenvalue(case):
    """The matrix-free growth bound is the top eigenvalue of the dense
    generator to 1e-11 relative (measured: at most 1.4e-12).  At m = 2 the
    comparison runs at n = 128: at n = 256 max a^mu is 6.4e6, and the dense
    eigensolver's own backward error eps ||H|| = 1.4e-9 exceeds 1e-11."""
    make, n, m, mu = _DENSE_CASES[case]
    V, symbol = make(), laplacian_power_symbol(1, n, L, m)
    dense = np.linalg.eigvalsh(_generator(V, symbol, mu))[-1]
    theta, residual = ritz_growth_bound(V, symbol, mu)
    assert theta == growth_bound(V, symbol, mu)
    assert abs(theta - dense) <= 1e-11 * abs(dense)
    assert 0.0 < residual <= 1e-6


def test_growth_bound_in_2d_matches_a_dense_generator():
    """At N = 2, n = 32, the growth bound is the top eigenvalue of the
    1024 x 1024 generator diag(V) - F^{-1} diag(a) F, built here column by
    column from the 2D transforms of the unit vectors."""
    n = 32
    symbol = laplacian_power_symbol(2, n, L, 1)
    V = power_law_potential(1.0, 0.5, 1.5)
    units = np.eye(n * n).reshape(n * n, n, n)
    A = np.fft.ifft2(symbol.power(1.0) * np.fft.fft2(units)).real.reshape(n * n, n * n)
    H = np.diag(V.on_grid(2, n, L).values.ravel()) - A
    dense = np.linalg.eigvalsh(0.5 * (H + H.T))[-1]
    assert abs(growth_bound(V, symbol, 1.0) - dense) <= 1e-11 * abs(dense)


def _no_large_eigensolve(monkeypatch, limit: int, calls: list | None = None):
    """np.linalg.eigh and eigvalsh raise on a matrix of more than `limit`
    rows; `calls` collects the row counts of the ones that run."""
    for name in ("eigh", "eigvalsh"):
        def guarded(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            if len(a) > limit:
                raise AssertionError(f"{_name} of a {len(a)} x {len(a)} matrix")
            if calls is not None:
                calls.append(len(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)


@pytest.mark.parametrize("N_dim, n, checks", [(1, 4096, (check_omega_constant, check_omega_power)),
                                              (2, 64, (check_omega_constant,))])
def test_omega_checks_never_decompose_the_generator(monkeypatch, N_dim, n, checks):
    """The omega checks pass with every eigendecomposition larger than the
    3 x 3 Rayleigh-Ritz problems of the matrix-free growth bound made to
    raise, at N = 2 too (omega_power, at n = 512, takes about a second
    there), and each rate carries its Ritz residual."""
    _no_large_eigensolve(monkeypatch, 3)
    ctx = CheckContext(ProblemDims(N_dim, 1, 1.0), n, L)
    for check in checks:
        rec = check(ctx)
        assert rec.passed
        assert len(rec.details["residuals"]) == len(rec.details["rates"]) == 4
        assert max(rec.details["residuals"]) <= 1e-6


def test_iterated_decomposes_each_first_stage_once(monkeypatch):
    """check_iterated makes one n x n eigendecomposition per order: the
    first order's is shared by its half-node re-solve, and neither cross-
    check of the first stages against growth_bound adds one."""
    sizes = []
    _no_large_eigensolve(monkeypatch, 64, sizes)
    rec = check_iterated(CheckContext(DIMS, 64, L), n=64, nodes=32)
    assert rec.passed
    assert [s for s in sizes if s == 64] == [64, 64]
    assert all(g <= t for g, t in zip(rec.details["first_stage_gaps"],
                                      rec.details["first_stage_tols"]))


def _scaled_symbol(real):
    """a^mu x 1.01 in the generator: diag(V) - 1.01 C = 1.01 H - 0.01 diag(V)."""
    def mutant(V, symbol, mu):
        H = real(V, symbol, mu)
        return 1.01 * H - 0.01 * np.diag(V.on_grid(1, symbol.n, symbol.L).values)
    return mutant


def _half_potential(real):
    """H[diag] += 0.5 V in place of V."""
    def mutant(V, symbol, mu):
        return real(V, symbol, mu) - 0.5 * np.diag(V.on_grid(1, symbol.n, symbol.L).values)
    return mutant


@pytest.mark.parametrize("mutate", [_scaled_symbol, _half_potential])
def test_iterated_fails_on_a_wrong_generator(monkeypatch, mutate):
    """A generator with a^mu scaled by 1.01, or with half of V on its
    diagonal, moves the first stage's top eigenvalue off the matrix-free
    growth bound by far more than the cross-check's roundoff bound
    (measured at n = 256: 1.5e-3 and 0.55 against 9e-12), so the check
    fails, although the order and joint discrepancies stay within tol."""
    from morreylab import duhamel

    monkeypatch.setattr(duhamel, "_generator", mutate(duhamel._generator))
    rec = check_iterated(CheckContext(DIMS, 64, L), n=64, nodes=32)
    assert not rec.passed
    tol = rec.details["tol"]
    assert max(rec.details["order_discrepancy"], rec.details["joint_discrepancy"]) <= tol
    assert all(g > 1e3 * t for g, t in zip(rec.details["first_stage_gaps"],
                                           rec.details["first_stage_tols"]))


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
    """At 2^20 frequencies and 256 nodes the march's coefficients would take
    I J F 16 = 4 GiB and its complex states K n 16 = 4 GiB more: graded and
    uniform grids alike refuse before allocating anything of that size."""
    zero = np.zeros(2**20, complex)
    basis = _fourier_basis(np.ones(2**20), real=False)
    for grading, d_gamma, J in ((2.0, 0.1, 256), (1.0, 0.0, 257)):
        times = time_grid(SolverConfig(horizon=0.25, nodes=256, grading=grading))

        def refused():
            with pytest.raises(ValueError, match=f"needs {(J + 256) * 2**20 * 16} bytes"):
                _march(zero, [zero], [0.25], d_gamma, times, basis)

        assert peak_bytes(refused) < 2**20 * 256
