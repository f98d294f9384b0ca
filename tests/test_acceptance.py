"""Acceptance gate: one test per contract criterion, at pinned tolerances.

The default config runs once, as `morreylab run` runs it (shared across
criteria); each test prints its own PASS/FAIL line so the gate reads as
a checklist.
"""

import pytest

from morreylab.checks import CheckContext, check_contraction, check_regions, run_checks
from morreylab.config import DEFAULT_CONFIG, validate_config
from morreylab.indices import ProblemDims
from morreylab.report import build_report, report_hash

CFG = validate_config(DEFAULT_CONFIG)


@pytest.fixture(scope="module")
def records():
    return {r.name: r for r in run_checks(CFG.context(), CFG.checks)}


def _criterion(num, label, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {label}: {tag} {detail}")
    assert passed, f"criterion {num} ({label}) failed: {detail}"


def test_c01_kernel_correctness(records):
    g = records["kernel_gaussian"]
    p = records["kernel_poisson"]
    _criterion(1, "kernel correctness", g.passed and p.passed,
               f"gauss {g.details['rel_sup_error']:.2e} <= 1e-6, "
               f"poisson {p.details['rel_sup_error']:.2e} <= 1e-4")
    assert g.details["tol"] == 1e-6 and p.details["tol"] == 1e-4


def test_c02_kernel_structure(records):
    m = records["kernel_mass"]
    pos = records["kernel_positivity"]
    c1 = records["selfsimilar_collapse_m1"]
    c2 = records["selfsimilar_collapse_m2"]
    spot = records["kernel_2d"]
    ok = all(r.passed for r in (m, pos, c1, c2, spot))
    _criterion(2, "kernel structure", ok,
               f"mass dev {m.details['worst']:.2e} <= 1e-8, "
               f"positivity {pos.details['worst']:.2e} >= -1e-9, "
               f"collapse m1 {c1.details['residual']:.2e} <= 1e-3, "
               f"m2 {c2.details['residual']:.2e} <= 1e-2, 2D spot ok")
    assert m.details["tol"] == 1e-8
    assert set(m.details["masses"]) == {"0.5", "0.75", "1.0"}
    assert c1.details["ts"] == [0.01, 0.04] and c2.details["ts"] == [0.01, 0.04]


def test_c03_subordination(records):
    s = records["subordination"]
    _criterion(3, "subordination cross-check", s.passed,
               f"rel L1 {s.details['rel_l1']:.2e} <= 1e-3")


def test_c04_smoothing_rates(records):
    d = records["smoothing_dirac"]
    mo = records["smoothing_morrey"]
    worst = max(v["rel_dev"] for v in mo.details["fits"].values())
    _criterion(4, "smoothing rates", d.passed and mo.passed,
               f"dirac dev {d.details['rel_dev']:.2%} <= 3%, "
               f"morrey worst dev {worst:.2%} <= 10% over {len(mo.details['fits'])} pairs")
    assert d.details["tol"] == 0.03 and mo.details["tol"] == 0.10
    assert len(mo.details["fits"]) == 3


def test_c05_constant_potential(records):
    c = records["constant_potential"]
    _criterion(5, "perturbed flow, constant potential", c.passed,
               f"sup error {c.details['sup_error']:.2e} <= {c.details['tol']:.0e}")
    assert c.details["tol"] == 1e-7  # check_constant_potential's default tol


def test_c06_picard_contraction(records):
    c = records["contraction"]
    fixtures = c.details["fixtures"]
    _criterion(6, "picard contraction", c.passed,
               "; ".join(f"{k} ratio {v['ratio']:.3f} <= {v['bound']:.3f} at theta {v['theta']:g}"
                         for k, v in fixtures.items()))
    assert all(v["ratio"] <= v["bound"] for v in fixtures.values())


@pytest.mark.parametrize("N,m,mu", [(1, 1, 1.0), (1, 1, 0.75), (1, 1, 0.5), (1, 2, 1.0),
                                    (1, 2, 0.75)])
def test_contraction_holds_at_each_1d_dims(N, m, mu):
    """The measured ratios stay within their predicted factors at every
    one-dimensional operator of the roadmap's table (constant fixture
    0.185-0.186 against 0.228)."""
    rec = check_contraction(CheckContext(ProblemDims(N, m, mu), 4096, 8.0))
    assert rec.passed
    assert all(0.0 < v["ratio"] <= v["bound"] for v in rec.details["fixtures"].values())


def test_contraction_fails_on_a_halved_bound(monkeypatch):
    """Halving contraction_bound (so choose_theta and the predicted factor
    both see half) puts the constant fixture's 0.186 above its 0.114."""
    from morreylab import duhamel

    bound = duhamel.contraction_bound
    monkeypatch.setattr(duhamel, "contraction_bound",
                        lambda *a, **k: [0.5 * c for c in bound(*a, **k)])
    rec = check_contraction(CheckContext(ProblemDims(1, 1, 1.0), 4096, 8.0))
    assert not rec.passed
    const = rec.details["fixtures"]["constant"]
    assert const["ratio"] > const["bound"]


def test_c07_semigroup_and_iteration(records):
    sg = records["semigroup_property"]
    it = records["iterated"]
    _criterion(7, "semigroup and iterated identities", sg.passed and it.passed,
               f"semigroup disc {sg.details['discrepancy']:.2e} <= {sg.details['tol']:.1e}; "
               f"order disc {it.details['order_discrepancy']:.2e} and joint "
               f"{it.details['joint_discrepancy']:.2e} <= {it.details['tol']:.1e}")


def test_c08_continuous_dependence(records):
    cd = records["continuous_dependence"]
    consts = cd.details["constants"]
    _criterion(8, "continuous dependence", cd.passed,
               f"slope {cd.details['slope']:.3f} = 1 +- 10%; weighted constants "
               f"within {max(consts) / min(consts):.2f}x")


def test_c09_omega_scaling(records):
    pw = records["omega_power"]
    ct = records["omega_constant"]
    _criterion(9, "growth-rate scaling", pw.passed and ct.passed,
               f"kappa=1/4 exponent {pw.details['exponent']:.3f} vs 4/3 (15%), "
               f"constant exponent {ct.details['exponent']:.4f} vs 1 (2%)")
    assert pw.details["tol"] == 0.15 and ct.details["tol"] == 0.02


def test_c10_region_calculus(records):
    rg = records["regions"]
    tg = records["tangent"]
    _criterion(10, "region calculus", rg.passed and tg.passed,
               f"{rg.details['queries']} queries, {rg.details['disagreements']} "
               f"disagreements; tangent err {tg.details['error']:.1e} <= 1e-12")
    assert rg.details["queries"] == 1000
    assert rg.details["disagreements"] == 0


@pytest.mark.parametrize("N,m,mu", [(1, 1, 0.75), (1, 2, 1.0), (2, 1, 0.5), (3, 2, 0.75)])
def test_regions_agree_at_each_dims(N, m, mu):
    """The exact oracle and the closed form agree on every query away from
    the default dims too, slope caps 1/3 to 2 (no sampling, no allowance)."""
    rec = check_regions(CheckContext(ProblemDims(N, m, mu), 64, 8.0), count=1000)
    assert rec.passed and rec.details == {"queries": 1000, "disagreements": 0}


def test_c11_pseudoresolvent(records):
    c = records["pseudoresolvent_constant"]
    p = records["pseudoresolvent_power"]
    _criterion(11, "pseudoresolvent identity", c.passed and p.passed,
               f"constant {max(c.details['residuals'].values()):.2e} <= 1e-3, "
               f"power {max(p.details['residuals'].values()):.2e} <= 5e-2")
    assert len(c.details["residuals"]) == 2 and len(p.details["residuals"]) == 2


def test_c12_determinism(records):
    first = build_report(
        [records[n] for n in sorted(records)], CFG.echo(), 0)
    again = run_checks(CFG.context(), CFG.checks)
    second = build_report(
        [{r.name: r for r in again}[n] for n in sorted(records)], CFG.echo(), 0)
    same = report_hash(first) == report_hash(second)
    _criterion(12, "determinism", same,
               f"hash {report_hash(first)[:12]} reproduced")
