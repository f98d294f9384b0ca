import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import morreylab
from morreylab.checks import CheckRecord
from morreylab.cli import main
from morreylab.config import ConfigError, load_config, validate_config
from morreylab.report import (
    build_report,
    report_from_json,
    report_hash,
    report_to_json,
    write_csv,
)

TINY = {
    "version": 1,
    "seed": 7,
    "dims": {"N": 1, "m": 1, "mu": 1.0},
    "grid": {"n": 512, "L": 8.0},
    "checks": [{"name": "tangent"}, {"name": "regions", "count": 40, "density": 60}],
}


# -- config validation ------------------------------------------------------------


def test_config_defaults_and_echo():
    cfg = validate_config(TINY)
    assert cfg.seed == 7 and cfg.n == 512
    echo = cfg.echo()
    assert echo["checks"][1]["count"] == 40


def test_config_unknown_key_paths():
    bad = dict(TINY)
    bad["grdi"] = {}
    with pytest.raises(ConfigError, match="config.grdi"):
        validate_config(bad)
    bad = {**TINY, "dims": {"N": 1, "mm": 2}}
    with pytest.raises(ConfigError, match="config.dims.mm"):
        validate_config(bad)


def test_config_unknown_check():
    bad = {**TINY, "checks": [{"name": "not_a_check"}]}
    with pytest.raises(ConfigError, match="unknown check"):
        validate_config(bad)


def test_config_type_errors(tmp_path, capsys):
    with pytest.raises(ConfigError, match="config.seed"):
        validate_config({**TINY, "seed": "zero"})
    with pytest.raises(ConfigError, match="version"):
        validate_config({**TINY, "version": 99})
    with pytest.raises(ConfigError, match="mu"):
        validate_config({**TINY, "dims": {"mu": 1.5}})
    # the settable check values are typed and ranged when the config loads
    for entry in ({"name": "regions", "count": -5},
                  {"name": "regions", "density": 0},
                  {"name": "omega_constant", "n": "big"},
                  {"name": "iterated", "n": 100},
                  {"name": "iterated", "nodes": 30},
                  {"name": "iterated", "nodes": 34.0},
                  {"name": "iterated", "nodes": 33},
                  {"name": "selfsimilar_collapse", "m": 0},
                  {"name": "selfsimilar_collapse", "tol": 0.0},
                  {"name": "selfsimilar_collapse", "tol": math.inf}):
        key = next(k for k in entry if k != "name")
        bad = {**TINY, "checks": [entry]}
        with pytest.raises(ConfigError, match=rf"config\.checks\[0\]\.{key}: "):
            validate_config(bad)
        assert main(["run", "--config", write_cfg(tmp_path, bad)]) == 2
        err = capsys.readouterr().err
        assert f"config.checks[0].{key}" in err and "[PASS]" not in err


def test_collapse_tolerance_pinned_per_order(tmp_path, capsys):
    """The collapse tolerance is pinned per order (1e-3 at m = 1, 1e-2 at
    m = 2): a config may tighten it, but a looser tol, or any tol or order
    without a pinned value, is a config error naming its path (exit 2), and
    the check itself refuses the same values."""
    from morreylab.checks import CheckContext, check_selfsimilar_collapse
    from morreylab.config import DEFAULT_CONFIG

    for entry, key in (({"name": "selfsimilar_collapse", "tol": 1.0}, "tol"),
                       ({"name": "selfsimilar_collapse", "tol": 2e-3}, "tol"),
                       ({"name": "selfsimilar_collapse", "m": 2, "tol": 0.05}, "tol"),
                       ({"name": "selfsimilar_collapse", "m": 3, "tol": 1e-3}, "tol"),
                       ({"name": "selfsimilar_collapse", "m": 3}, "m")):
        bad = {**TINY, "checks": [entry]}
        with pytest.raises(ConfigError, match=rf"config\.checks\[0\]\.{key}: "):
            validate_config(bad)
        assert main(["run", "--config", write_cfg(tmp_path, bad)]) == 2
        err = capsys.readouterr().err
        assert f"config.checks[0].{key}" in err and "[PASS]" not in err
    ok = {**TINY, "checks": [{"name": "selfsimilar_collapse", "tol": 1e-4},
                             {"name": "selfsimilar_collapse", "m": 2, "tol": 1e-2}]}
    assert [params for _, params in validate_config(ok).checks] == [
        {"tol": 1e-4}, {"m": 2, "tol": 1e-2}]
    assert validate_config(DEFAULT_CONFIG).checks[-1] == (
        "selfsimilar_collapse", {"m": 2, "tol": 1e-2})
    ctx = validate_config(TINY).context()
    for params in ({"tol": 1.0}, {"m": 3}):
        with pytest.raises(ValueError, match="collapse tolerance"):
            check_selfsimilar_collapse(ctx, **params)


def test_config_settable_values_are_the_check_parameters():
    """The config's table of settable check values names exactly the
    parameters of the registered checks, all but the context."""
    import inspect

    from morreylab.checks import CHECKS
    from morreylab.config import _CHECK_VALUES

    params = {(name, p) for name, fn in CHECKS.items()
              for p in list(inspect.signature(fn).parameters)[1:]}
    assert set(_CHECK_VALUES) == params


def test_config_rejects_solver_block(tmp_path):
    """The solver block is not part of the schema: each check pins its own
    solver settings, so the block could only be echoed, never read."""
    bad = {**TINY, "solver": {"horizon": 9.0, "nodes": 16, "max_sweeps": 1}}
    with pytest.raises(ConfigError, match=r"config\.solver"):
        validate_config(bad)
    assert main(["run", "--config", write_cfg(tmp_path, bad)]) == 2


def test_config_rejects_duplicate_record(tmp_path, capsys):
    """Two entries producing one record name are a config error, raised
    before any check runs; selfsimilar_collapse entries differ by m."""
    dup = {**TINY, "checks": [{"name": "tangent"}, {"name": "tangent"}]}
    with pytest.raises(ConfigError, match=r"config\.checks\[1\]: .* already produces record"):
        validate_config(dup)
    assert main(["run", "--config", write_cfg(tmp_path, dup)]) == 2
    err = capsys.readouterr().err
    assert "checks[1]" in err and "already produces record" in err and "[PASS]" not in err
    same_m = {**TINY, "checks": [{"name": "selfsimilar_collapse"},
                                 {"name": "selfsimilar_collapse", "m": 1, "tol": 1e-2}]}
    with pytest.raises(ConfigError, match=r"config\.checks\[1\]"):
        validate_config(same_m)
    both_m = {**TINY, "checks": [{"name": "selfsimilar_collapse"},
                                 {"name": "selfsimilar_collapse", "m": 2}]}
    assert len(validate_config(both_m).checks) == 2


def test_config_rejects_unknown_check_parameter(tmp_path, capsys):
    """A check entry's keys are its check's parameters: a misspelt one is a
    config error naming its path (exit 2), raised before any check runs."""
    for checks, path in (
        ([{"name": "tangent", "tolx": 0.5}], r"config\.checks\[0\]\.tolx"),
        ([{"name": "tangent"}, {"name": "regions", "densty": 60}], r"config\.checks\[1\]\.densty"),
        ([{"name": "tangent", "ctx": None}], r"config\.checks\[0\]\.ctx"),
    ):
        bad = {**TINY, "checks": checks}
        with pytest.raises(ConfigError, match=path):
            validate_config(bad)
        assert main(["run", "--config", write_cfg(tmp_path, bad)]) == 2
        err = capsys.readouterr().err
        assert "unknown parameter" in err and "[PASS]" not in err and "[FAIL]" not in err
    ok = {**TINY, "checks": [{"name": "regions", "count": 5, "density": 60}]}
    assert validate_config(ok).checks == (("regions", {"count": 5, "density": 60}),)


def test_config_cannot_override_a_pinned_tolerance(tmp_path, capsys):
    """A check's tolerances and solver settings are constants of the check,
    not parameters, so a config that sets one is refused (exit 2)."""
    for entry in ({"name": "omega_power", "tol": 1.0},
                  {"name": "iterated", "tol_factor": 1e6},
                  {"name": "iterated", "horizon": 0.01}):
        key = next(k for k in entry if k != "name")
        bad = {**TINY, "checks": [entry]}
        with pytest.raises(ConfigError, match=rf"config\.checks\[0\]\.{key}: unknown parameter"):
            validate_config(bad)
        assert main(["run", "--config", write_cfg(tmp_path, bad)]) == 2
        err = capsys.readouterr().err
        assert f"config.checks[0].{key}" in err and "[PASS]" not in err


def test_config_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


# -- report plumbing ---------------------------------------------------------------


def fake_records():
    return [
        CheckRecord("alpha", True, {"value": 1.2345, "sub": {"x": 2}}, 0.01),
        CheckRecord("beta", False, {"items": [1.0, 2.0]}, 0.02),
    ]


def test_report_roundtrip_and_hash():
    rep = build_report(fake_records(), {"seed": 0}, 0)
    text = report_to_json(rep)
    back = report_from_json(text)
    assert back == rep
    assert not rep["all_passed"]
    h1 = report_hash(rep)
    rep2 = dict(rep)
    rep2["timestamp"] = "someday"
    assert report_hash(rep2) == h1  # timestamp excluded


def test_report_hash_ignores_environment():
    """Two reports that differ only in the environment fingerprint (a new
    kernel, interpreter or library version) hash equal; a number still moves it."""
    rep = build_report(fake_records(), {"seed": 0}, 0)
    moved = {**rep, "environment": {**rep["environment"], "platform": "Linux-9.9.9-other"}}
    assert report_hash(moved) == report_hash(rep)
    assert report_hash({**rep, "environment": {}}) == report_hash(rep)
    nudged = {**rep, "checks": [{**rep["checks"][0], "details": {"value": 1.2346}},
                                *rep["checks"][1:]]}
    assert report_hash(nudged) != report_hash(rep)


def test_report_rejects_duplicates():
    rec = fake_records()[0]
    with pytest.raises(ValueError):
        build_report([rec, rec], {}, 0)


def test_csv_export(tmp_path):
    rep = build_report(fake_records(), {}, 0)
    path = tmp_path / "out.csv"
    write_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "check,passed,key,value"
    assert any("1.2344999999999999" in ln or "1.2345" in ln for ln in lines)


# -- CLI surface --------------------------------------------------------------------


def write_cfg(tmp_path, cfg=TINY):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_run_pass(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", write_cfg(tmp_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["tangent", "regions"]
    assert (out / "summary.csv").exists()


def test_cli_check_filter(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", write_cfg(tmp_path), "--check", "tangent",
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["name"] for c in report["checks"]] == ["tangent"]


def test_cli_check_not_in_the_config_is_a_config_error(tmp_path, capsys):
    """--check names each entry the config (or the group) does not list,
    exit 2 before any check runs and with no report written."""
    cfg = write_cfg(tmp_path, {**TINY, "checks": [{"name": "tangent"}]})
    out = tmp_path / "out"
    for argv, named in (
            (["run", "--check", "regions", "--check", "tangent", "--check", "not_a_check"],
             "['regions', 'not_a_check'] not listed by the config"),
            (["kernel", "--check", "tangent"], "['tangent'] not listed by the kernel group")):
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "[PASS]" not in err and "[FAIL]" not in err
        assert not out.exists()


def test_cli_run_with_no_checks_is_a_config_error(tmp_path, capsys):
    """A config that lists no checks gives a zero-record run: refused,
    exit 2, with no report written."""
    out = tmp_path / "out"
    code = main(["run", "--config", write_cfg(tmp_path, {**TINY, "checks": []}),
                 "--out", str(out)])
    assert code == 2
    assert "no check to run" in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**TINY, "bogus": 1}))
    assert main(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize("exc", [RuntimeError("Picard iteration blew up"),
                                 ValueError("bad inside the check")])
def test_cli_raising_check_is_a_fail_record(tmp_path, monkeypatch, capsys, exc):
    """A check that raises becomes a FAIL record; the report is still
    written, the other checks still run, and the exit code is 1, not 2."""
    from morreylab.checks import CHECKS

    def boom(ctx):
        raise exc

    monkeypatch.setitem(CHECKS, "boom", boom)
    cfg = {**TINY, "checks": [{"name": "boom"}, {"name": "tangent"}]}
    out = tmp_path / "out"
    code = main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    failed, tangent = report["checks"]
    assert failed["name"] == "boom" and not failed["passed"]
    assert failed["details"]["error_type"] == type(exc).__name__
    assert failed["details"]["error"] == str(exc)
    assert tangent["name"] == "tangent" and tangent["passed"]
    assert "[FAIL] boom" in capsys.readouterr().err


def test_cli_raising_selfsimilar_entries_are_distinct_fail_records(tmp_path, monkeypatch):
    """Both selfsimilar_collapse entries raising give two FAIL records,
    named by their order m, in a report that is still written."""
    from morreylab.checks import CHECKS

    def boom(ctx, **params):
        raise RuntimeError("kernel under-resolved")

    monkeypatch.setitem(CHECKS, "selfsimilar_collapse", boom)
    cfg = {**TINY, "checks": [{"name": "selfsimilar_collapse"},
                              {"name": "selfsimilar_collapse", "m": 2, "tol": 1e-2}]}
    out = tmp_path / "out"
    code = main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("selfsimilar_collapse_m1", False), ("selfsimilar_collapse_m2", False)]
    assert set(report["timings"]) == {"selfsimilar_collapse_m1", "selfsimilar_collapse_m2"}


def test_run_checks_times_each_check(monkeypatch):
    """run_checks measures each check's duration; checks do not time themselves."""
    import time

    from morreylab.checks import CHECKS, run_checks

    def slow(ctx):
        time.sleep(0.05)
        return CheckRecord("slow", True, {})

    monkeypatch.setitem(CHECKS, "slow", slow)
    (rec,) = run_checks(validate_config(TINY).context(), [("slow", {})])
    assert rec.passed and rec.duration >= 0.05


def test_default_run_never_loads_scipy_special(tmp_path):
    """A default `morreylab run` builds its weight tables and contraction
    bounds without scipy.special, and scipy is a test-only dependency:
    neither module is loaded at the end, so no check's timer and no run
    pays its import."""
    code = textwrap.dedent(f"""
        import sys
        from morreylab.cli import main
        status = main(["run", "--out", {str(tmp_path)!r}])
        print(status, "scipy" in sys.modules or "scipy.special" in sys.modules)
    """)
    src = str(Path(morreylab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]
    assert (tmp_path / "report.json").exists()


def test_cli_regions_group(tmp_path):
    code = main(["regions", "--config", write_cfg(tmp_path), "--out",
                 str(tmp_path / "o")])
    assert code == 0


def test_cli_regions_protocol(tmp_path, capsys):
    queries = tmp_path / "queries.txt"
    queries.write_text(
        "# p ell p0 ell0 [p1 ell1]\n"
        "2 0.5 1.5 0.6\n"
        "2 0.9 1.5 0.6\n"
        "2 0.5 2.0 0.6 1.5 0.75\n"
        "inf 1.0 1.5 0.6\n"
    )
    code = main(["regions", "--config", write_cfg(tmp_path), "--queries", str(queries)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0].startswith("IN")
    assert out[1].startswith("OUT")
    assert out[2].startswith("IN")
    assert out[3].startswith("IN")


def test_cli_regions_protocol_survives_bad_lines(monkeypatch, capsys):
    """A line that cannot be answered gets ERR and the stream goes on."""
    import io

    lines = ["2 0.5 2 1", "foo 0.5 2 1", "2 0.5 2 1", "2 1.5 2 1", "0.5 0.5 2 1",
             "nan 0.5 2 1", "2 0.5 2 inf 1", "2 0.5 2", "2 0.9 1.5 0.6", "2 1e-13 2 1"]
    # every spelling float() reads as infinity, in any field
    lines += ["Infinity 0.5 2 1", "2 0.5 +inf 1", "1.5 0.5 2 1 INF 0.5", "2 Infinity 2 1",
              "-inf 0.5 2 1", "2 0.5 2 1 +Infinity 0.5", "2 0.5 2 -INF"]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["regions", "--queries", "-"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "IN admissible",
        "ERR could not convert string to float: 'foo'",
        "IN admissible",
        "ERR ell=1.5 exceeds dimension N=1",
        "ERR p must be >= 1, got 0.5",
        "ERR p must be >= 1, got nan",
        "ERR expected 'p ell p0 ell0 [p1 ell1]', got 5 fields",
        "ERR expected 'p ell p0 ell0 [p1 ell1]', got 3 fields",
        "OUT slope exceeds potential-class slope (ell > ell0)",
        "OUT outside the index triangle",
        "IN admissible",
        "IN admissible",
        "OUT outside the two-potential star region",
        "ERR ell=inf exceeds dimension N=1",
        "ERR p must be >= 1, got -inf",
        "IN admissible",
        "ERR ell must be positive, got -inf",
    ]


def test_cli_regions_protocol_answers_across_blocks(tmp_path, monkeypatch, capsys):
    """Answers do not depend on where the block edges fall: a stream of
    many blocks, with comments, blank lines, every ERR kind, kappa >= 1
    classes and 4- and 6-field queries at every offset from an edge,
    answers as it does one query line per block."""
    from morreylab import cli

    pattern = ["# comment", "2 0.5 2 1", "", "foo 0.5 2 1", "1.5 0.5 2 1 1 0.9",
               "2 0.5 2", "2 0.5 2 1 1", "0.5 0.5 2 1", "2 -1 2 1", "2 1.5 2 1",
               "2 0.5 0.5 1", "2 0.5 2 0", "2 0.5 2 1.5", "2 0.5 2 1 nan 1",
               "2 0.5 2 1 1 2", "   ", "1 1 1 1", "2 0.5 1 1 1 1", "inf 1 2 1 +inf 0.5",
               "1.2 0.9 2 0.8", "2 1.5 0.5 1", "2 0.5 2 1.5 1 2"]
    queries = tmp_path / "q.txt"
    queries.write_text("\n".join(pattern * 7) + "\n")
    cfg = write_cfg(tmp_path, {"version": 1, "dims": {"N": 1, "m": 1, "mu": 0.5}})
    answers = []
    for block in (5, 1):
        monkeypatch.setattr(cli, "BLOCK", block)
        assert main(["regions", "--config", cfg, "--queries", str(queries)]) == 0
        answers.append(capsys.readouterr().out)
    assert answers[0] == answers[1]
    kinds = {line.split(" ", 1)[0] for line in answers[0].splitlines()}
    assert kinds == {"IN", "OUT", "ERR"} and "kappa(" in answers[0]
    assert answers[0].count("\n") == 19 * 7


def test_cli_regions_protocol_replays_a_bad_block_line_by_line(tmp_path, monkeypatch, capsys):
    """Lines whose bad token is not the first, among clean 4- and 6-field
    lines of one block: each answer is the one its line gets alone, and
    each ERR names its token as float() does."""
    from morreylab import cli

    lines = ["2 0.5 2 1", "2 0.5 foo 1", "1.5 0.5 2 1 1 0.9", "2 0.5 2 1 x 0.5",
             "2 0.9 1.5 0.6", "1 2 3 4 # note", "2 0.5 2 1 1 0.9", "2 1.5 2 1",
             "2 0.5 2 1 1 0.4", "2 0.5 2 1"]
    queries = tmp_path / "q.txt"
    queries.write_text("\n".join(lines) + "\n")
    answers = []
    for block in (cli.BLOCK, 1):
        monkeypatch.setattr(cli, "BLOCK", block)
        assert main(["regions", "--queries", str(queries)]) == 0
        answers.append(capsys.readouterr().out.splitlines())
    assert answers[0] == answers[1]
    for at, token in ((1, "foo"), (3, "x"), (5, "#")):
        with pytest.raises(ValueError) as exc:
            float(token)
        assert answers[0][at] == f"ERR {exc.value}"
    assert [a.split(" ", 1)[0] for a in answers[0]] == [
        "IN", "ERR", "IN", "ERR", "OUT", "ERR", "IN", "ERR", "OUT", "IN"]


def test_cli_regions_protocol_array_parse_reads_what_float_reads(monkeypatch, capsys):
    """Tabs, runs of spaces, CRLF line ends and the spellings 1_0, .5,
    +1e0 and -INF are answered on the array parse, with no replay, as
    the same lines written in single-space canonical form."""
    import io

    from morreylab import cli

    lines = ["2\t0.5\t2\t1", "2   0.5  2     1 \t", "1_0 0.5 2 1", "2 .5 2 1",
             "+1e0 0.5 2 1 1.5 .5", "2 0.5 2 -INF", "\t1.5  0.5 +1e0 .5 2 1"]
    canonical = [" ".join(repr(float(t)) for t in line.split()) for line in lines]
    monkeypatch.setattr(cli, "_replay", _no_replay)
    answers = []
    for text in ("\r\n".join(lines) + "\r\n", "\n".join(canonical) + "\n"):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["regions", "--queries", "-"]) == 0
        answers.append(capsys.readouterr().out)
    assert answers[0] == answers[1]
    assert answers[0].count("\n") == len(lines) and "ERR ell must be positive" in answers[0]


def _no_replay(lines):
    raise AssertionError(f"a block of {len(lines)} lines was replayed line by line")


def test_cli_regions_protocol_rejects_unread_flags(tmp_path, capsys):
    """--out and --check do nothing in the protocol, so they are config
    errors there; --seed is accepted."""
    queries = tmp_path / "q.txt"
    queries.write_text("2 0.5 2 1\n")
    out = tmp_path / "never"
    for flag in (["--out", str(out)], ["--check", "tangent"]):
        assert main(["regions", "--queries", str(queries), *flag]) == 2
        captured = capsys.readouterr()
        assert flag[0] in captured.err and captured.out == ""
    assert not out.exists()
    assert main(["regions", "--queries", str(queries), "--seed", "3"]) == 0
    assert capsys.readouterr().out == "IN admissible\n"


def test_cli_regions_protocol_refuses_jobs(tmp_path, capsys):
    """The protocol runs no checks, so an explicit --jobs is a config
    error there (exit 2, no answers)."""
    queries = tmp_path / "q.txt"
    queries.write_text("2 0.5 2 1\n")
    for jobs in ("4", "1"):
        assert main(["regions", "--queries", str(queries), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert "config error: --jobs" in captured.err and captured.out == ""


def test_cli_run_accepts_only_one_job(tmp_path, capsys):
    """Checks run one at a time: `run --jobs 2` is a config error naming
    --jobs (exit 2, no report), and `run --jobs 1`, the benchmark's argv,
    runs."""
    cfg, out = write_cfg(tmp_path), tmp_path / "o"
    assert main(["run", "--config", cfg, "--jobs", "2", "--out", str(out)]) == 2
    assert "config error: --jobs" in capsys.readouterr().err
    assert not out.exists()
    assert main(["run", "--config", cfg, "--jobs", "1", "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_cli_report_export(tmp_path):
    out = tmp_path / "out"
    main(["run", "--config", write_cfg(tmp_path), "--out", str(out)])
    csv_path = tmp_path / "again.csv"
    code = main(["report", str(out / "report.json"), "--csv", str(csv_path)])
    assert code == 0
    assert csv_path.exists()


def test_cli_report_rejects_run_flags(tmp_path, capsys):
    """`report` takes only the report path and --csv."""
    for flag in (["--jobs", "7"], ["--seed", "3"], ["--check", "tangent"],
                 ["--config", "c.json"], ["--out", str(tmp_path)]):
        with pytest.raises(SystemExit) as exc:
            main(["report", "r.json", "--csv", str(tmp_path / "x.csv"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(out1)])
    main(["run", "--config", cfg, "--out", str(out2)])
    r1 = report_from_json((out1 / "report.json").read_text())
    r2 = report_from_json((out2 / "report.json").read_text())
    assert report_hash(r1) == report_hash(r2)


def test_cli_kernel_group(tmp_path):
    cfg = {**TINY, "grid": {"n": 1024, "L": 8.0}}
    out = tmp_path / "kout"
    code = main(["kernel", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert "kernel_mass" in names and "subordination" in names
    mass_rec = next(c for c in report["checks"] if c["name"] == "kernel_mass")
    assert mass_rec["details"]["worst"] <= 1e-8


def test_cli_kernel_group_keeps_every_entry(tmp_path, capsys):
    """The default config lists selfsimilar_collapse at m=1 and m=2; the
    kernel group runs both, as `run` does."""
    out = tmp_path / "kout"
    assert main(["kernel", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == ["kernel_mass", "kernel_positivity", "kernel_gaussian", "kernel_poisson",
                     "kernel_2d", "selfsimilar_collapse_m1", "selfsimilar_collapse_m2",
                     "subordination"]


def test_empty_report_csv(tmp_path):
    rep = build_report([], {}, 0)
    path = tmp_path / "empty.csv"
    write_csv(rep, path)
    assert path.read_text().strip() == "check,passed,key,value"


def test_golden_fixture_csv(tmp_path):
    """First-blessed golden roll-up for the tiny deterministic fixture."""
    from pathlib import Path

    from morreylab.checks import run_checks

    cfg = validate_config(TINY)
    records = run_checks(cfg.context(), list(cfg.checks))
    report = build_report(records, cfg.echo(), cfg.seed)
    fresh = tmp_path / "fresh.csv"
    write_csv(report, fresh)
    golden = Path(__file__).parent / "data" / "golden_tiny.csv"
    assert fresh.read_bytes() == golden.read_bytes()


# -- region protocol golden output ---------------------------------------------------

PROTOCOL_DIMS = ({"N": 1, "m": 1, "mu": 1.0}, {"N": 2, "m": 1, "mu": 0.5},
                 {"N": 1, "m": 2, "mu": 0.75})


def _protocol_stream(seed, dims, count):
    """Seeded query lines over the index triangle: one or two classes with
    p0 in [1, 6] and ell0 in [0.05, N], some p or p0 set to inf (the
    bounded cases); at mu = 1/2 some classes have kappa >= 1, and the
    fourth line has two."""
    rng = np.random.default_rng(seed)
    N, order = dims["N"], 2.0 * dims["m"] * dims["mu"]
    cap = N / order
    lines = ["# p ell p0 ell0 [p1 ell1]", "", "1 2 3", f"1 1 1 {N} 1 {N}"]
    while len(lines) < count:
        g1, g2 = rng.uniform(0.0, 1.0), rng.uniform(0.0, cap)
        if g2 > cap * g1 or g1 < 1e-3 or g2 < 1e-3:
            continue
        fields = [1.0 / g1, min(order * g2 / g1, float(N))]
        for _ in range(1 if rng.uniform() < 0.5 else 2):
            fields += [rng.uniform(1.0, 6.0), rng.uniform(0.05, N)]
        if rng.uniform() < 0.03:
            fields[0] = math.inf
        if rng.uniform() < 0.03:
            fields[2] = math.inf
        lines.append(" ".join(repr(float(v)) for v in fields))
    return lines


def test_cli_regions_protocol_golden(tmp_path, capsys):
    """The protocol's answers on a seeded stream, byte for byte."""
    from pathlib import Path

    out = []
    for seed, dims in enumerate(PROTOCOL_DIMS, start=11):
        queries = tmp_path / f"q{seed}.txt"
        queries.write_text("\n".join(_protocol_stream(seed, dims, 1000)) + "\n")
        cfg = write_cfg(tmp_path, {"version": 1, "dims": dims})
        assert main(["regions", "--config", cfg, "--queries", str(queries)]) == 0
        out.append(capsys.readouterr().out)
    fresh = "".join(out).encode()
    golden = (Path(__file__).parent / "data" / "protocol_golden.txt").read_bytes()
    if fresh != golden:
        pairs = zip(fresh.splitlines(), golden.splitlines())
        first = next((i for i, (a, b) in enumerate(pairs, 1) if a != b), None)
        pytest.fail(f"protocol output differs from the golden file (first at line {first})")


def test_cli_regions_protocol_clean_blocks_skip_the_replay(tmp_path, monkeypatch, capsys):
    """Clean traffic never pays the line-by-line replay: more than BLOCK
    clean query lines are answered with the replay raising."""
    from morreylab import cli

    dims = PROTOCOL_DIMS[1]
    lines = [line for line in _protocol_stream(11, dims, cli.BLOCK + 200) if line != "1 2 3"]
    queries = tmp_path / "q.txt"
    queries.write_text("\n".join(lines) + "\n")
    cfg = write_cfg(tmp_path, {"version": 1, "dims": dims})
    monkeypatch.setattr(cli, "_replay", _no_replay)
    assert main(["regions", "--config", cfg, "--queries", str(queries)]) == 0
    answers = capsys.readouterr().out.splitlines()
    assert len(answers) == len(lines) - 2 > cli.BLOCK
    assert {a.split(" ", 1)[0] for a in answers} == {"IN", "OUT"}


@pytest.mark.parametrize("bad", ["2 0.5 2", "2 0.5 2 1 1 x"])
def test_cli_regions_protocol_bad_line_reaches_the_replay(tmp_path, monkeypatch, capsys, bad):
    """A block holding one malformed line, by field count or by token, is
    the one that is replayed."""
    from morreylab import cli

    replayed = []

    def spy(lines):
        replayed.append(list(lines))
        return replay(lines)

    replay = cli._replay
    monkeypatch.setattr(cli, "_replay", spy)
    lines = ["2 0.5 2 1", "2 0.5 2 1 1 0.9", bad, "2 0.9 1.5 0.6"]
    queries = tmp_path / "q.txt"
    queries.write_text("\n".join(lines) + "\n")
    assert main(["regions", "--queries", str(queries)]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("ERR ")
    assert replayed == [lines]


# -- surface hygiene ------------------------------------------------------------------


def test_jobs_ignores_environment(tmp_path, monkeypatch):
    """--jobs has a constant default: no environment variable is read, so
    a malformed one cannot break argument parsing."""
    monkeypatch.setenv("MORREYLAB_JOBS", "abc")
    cfg = {**TINY, "checks": [{"name": "tangent"}]}
    assert main(["run", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0


def test_config_rejects_grid_size_no_grid_takes(tmp_path, capsys):
    """grid.n follows the GridFunction size rule (a power of two >= 8), so a
    size no check could use is a config error, not a FAIL per check."""
    for n in (100, 4):
        bad = {**TINY, "grid": {"n": n, "L": 8.0}}
        with pytest.raises(ConfigError, match=r"config\.grid\.n"):
            validate_config(bad)
        assert main(["run", "--config", write_cfg(tmp_path, bad)]) == 2
        err = capsys.readouterr().err
        assert "config.grid.n" in err and "[FAIL]" not in err


def test_config_rejects_box_below_unit_ball(tmp_path, capsys):
    """The locally uniform norm needs a unit ball inside the box, so a
    half-width grid.L below 1 is a config error, not a FAIL per check."""
    bad = {**TINY, "grid": {"n": 512, "L": 0.5}}
    with pytest.raises(ConfigError, match=r"config\.grid\.L"):
        validate_config(bad)
    assert main(["run", "--config", write_cfg(tmp_path, bad)]) == 2
    err = capsys.readouterr().err
    assert "config.grid.L" in err and "[FAIL]" not in err
    assert validate_config({**TINY, "grid": {"n": 512, "L": 1.0}}).L == 1.0


# Public names no src/ code reads, each kept for a stated reason.
KEEPERS = {
    "cd2_region_contains": "the (p, ell) reference the star-region test checks against",
    "symbol_from_coefficients": "the only route to elliptic symbols beyond the presets",
    "lp_ball_norm": "the benchmark tracer wraps it by name",
    "report_hash": "the determinism hash the benchmark compares across runs",
    "tabulated_potential": "the route to the first stage's real-potential guard",
    "evolve_norms": "the time-domain reference growth_bound is tested against, "
                    "and the benchmark tracer wraps it by name",
    "growth_rate": "the time-domain reference growth_bound is tested against, "
                   "and the benchmark tracer wraps it by name",
}


def _bench_tracer():
    """The benchmark tracer, loaded from bench/tracer.py (bench is no package)."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    """Every (module, attribute) the benchmark tracer wraps by name exists
    in morreylab, so deleting one fails here, not only in a traced run."""
    import importlib

    tracer = _bench_tracer()
    missing = []
    for modname, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"morreylab.{modname}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr}")
    assert tracer.TARGETS and missing == []


def test_traced_solvers_record_spans_and_no_sweeps():
    """The tracer's solver spans read each solve's residual_history, which
    only a traced benchmark run reaches otherwise: one tiny solve of each
    solver under its span records that span and counts no sweep."""
    from morreylab import duhamel
    from morreylab.fixtures import gaussian_bump
    from morreylab.indices import MorreyParams, ProblemDims, to_index
    from morreylab.potentials import power_law_potential
    from morreylab.semigroup import laplacian_power_symbol

    tracer = _bench_tracer()
    tr = tracer.Tracer()
    picard, sequential = (tr.wrap(getattr(duhamel, name.rpartition(".")[2]), name)
                          for name in tracer.SOLVERS)
    dims, n, L = ProblemDims(1, 1, 1.0), 64, 8.0
    args = (duhamel.SolverConfig(0.25, 32), to_index(MorreyParams(2.0, 0.3), dims), dims,
            laplacian_power_symbol(1, n, L, 1))
    pair = [power_law_potential(1.0, 0.3, 2.0), power_law_potential(1.0, 0.5, 1.5)]
    picard(gaussian_bump(1, n, L), pair, *args)
    sequential(gaussian_bump(1, n, L), pair, *args)
    assert [tr.names[span[0]] for span in tr.spans] == list(tracer.SOLVERS)
    assert tr.sweeps == 0


def test_every_all_entry_is_defined():
    """Every name in the __all__ of morreylab and of each of its modules is
    defined there, so a stale entry fails here, not only a star import."""
    import importlib

    # the glob skips __init__ (the package itself) and __main__, which runs the CLI
    modules = [morreylab] + [importlib.import_module(f"morreylab.{path.stem}")
                             for path in sorted(Path(morreylab.__file__).parent.glob("[!_]*.py"))]
    missing = [f"{m.__name__}.{x}" for m in modules for x in m.__all__ if not hasattr(m, x)]
    assert len(modules) > 1 and missing == []


def test_every_public_name_has_a_src_caller():
    """Every public top-level function or class of src/ (and every public
    method of such a class) is read somewhere in src/, or is a keeper."""
    import ast
    from pathlib import Path

    import morreylab

    used, public = set(), {}
    for path in sorted(Path(morreylab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
        defs = (ast.FunctionDef, ast.ClassDef)
        for node in tree.body:
            if isinstance(node, defs) and not node.name.startswith("_"):
                public[node.name] = path.stem
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        public[sub.name] = f"{path.stem}.{node.name}"
    unread = {name: where for name, where in public.items() if name not in used}
    assert {n: w for n, w in unread.items() if n not in KEEPERS} == {}
    assert set(KEEPERS) == set(unread), "a keeper is gone or now has a src caller"


# Defaulted parameters no src/ call passes, each kept for a stated reason.
DEFAULT_KEEPERS = {
    "cli.main.argv": "the benchmark and the tests pass the argument list",
}

# Check parameters no entry of DEFAULT_CONFIG sets: only the benchmark's
# generated configs do, so its next change can take them out.
CHECK_KEEPERS = {
    "checks.check_regions.count": "bench/workloads.py: the regions workload sets 2000",
    "checks.check_regions.density": "bench/workloads.py sets it, though nothing reads it",
    "checks.check_iterated.n": "bench/workloads.py: the tiny registry sets 64",
    "checks.check_iterated.nodes": "bench/workloads.py: the tiny registry sets 32",
    "checks.check_omega_constant.n": "bench/workloads.py: the tiny registry sets 64",
}


def test_every_default_is_set_by_a_src_caller():
    """Every defaulted parameter of a function or method in src/ is passed,
    by keyword or by position, by some src/ call to that name, or is a
    keeper.  A parameter of a function in checks.CHECKS also counts as
    set when an entry of DEFAULT_CONFIG sets it."""
    import ast
    from pathlib import Path

    from morreylab.checks import CHECKS
    from morreylab.config import DEFAULT_CONFIG

    check_of = {fn.__name__: name for name, fn in CHECKS.items()}
    configured = {(entry["name"], k) for entry in DEFAULT_CONFIG["checks"] for k in entry}
    calls, defaults = {}, {}  # name -> [(positional count, keywords)]; key -> (name, arg, index)

    def collect(body, where, method):
        for node in body:
            if isinstance(node, ast.ClassDef):
                collect(node.body, f"{where}.{node.name}", True)
            elif isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args
                shift = method and not any(getattr(d, "id", None) == "staticmethod"
                                           for d in node.decorator_list)
                first = len(args) - len(node.args.defaults)
                for i, arg in enumerate(args[first:], first):
                    defaults[f"{where}.{node.name}.{arg.arg}"] = (node.name, arg.arg, i - shift)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    if default is not None:
                        defaults[f"{where}.{node.name}.{arg.arg}"] = (node.name, arg.arg, math.inf)
                collect(node.body, f"{where}.{node.name}", False)

    for path in sorted(Path(morreylab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        collect(tree.body, path.stem, False)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (math.inf if starred else len(node.args), {k.arg for k in node.keywords}))
    # a keyword of None is a **mapping, which may pass anything
    unset = {key for key, (name, arg, index) in defaults.items()
             if (check_of.get(name), arg) not in configured
             and not any(arg in kws or None in kws or count > index
                         for count, kws in calls.get(name, []))}
    keepers = set(DEFAULT_KEEPERS) | set(CHECK_KEEPERS)
    assert unset - keepers == set()
    assert keepers == unset, "a keeper is gone or now has a src caller"


def test_no_function_takes_both_dims_and_mu():
    """dims carries mu, so a function of src/ that takes dims reads mu from
    it: no parameter list names both, and no second mu can contradict it."""
    import ast

    both = []
    for path in sorted(Path(morreylab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
                if {"dims", "mu"} <= names:
                    both.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert both == []
