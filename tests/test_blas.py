import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morreylab
from morreylab import blas
from morreylab.checks import CHECKS, CheckContext, CheckRecord, run_checks
from morreylab.cli import main
from morreylab.indices import ProblemDims
from morreylab.report import report_hash

SRC = str(Path(morreylab.__file__).resolve().parents[1])


def _seed0_hash(tmp_path, threads: str) -> str:
    out = tmp_path / f"threads{threads}"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "morreylab", "run", "--check", "iterated",
                           "--check", "omega_power", "--check", "pseudoresolvent_constant",
                           "--seed", "0", "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return report_hash(json.loads((out / "report.json").read_text()))


def test_report_hash_does_not_follow_the_blas_thread_count(tmp_path):
    """The checks run on one BLAS thread whatever OpenBLAS starts with, so
    the eigendecomposition behind `iterated`, the least-squares fits and
    the march's per-node matrix-vector products (the longest, K = 256 at
    T = 3.2, in `pseudoresolvent_constant`) give the same digits, and the
    same hash, under one thread and under two."""
    assert _seed0_hash(tmp_path, "1") == _seed0_hash(tmp_path, "2")


def test_run_checks_restores_the_callers_thread_count(monkeypatch):
    """Inside run_checks the count is 1; after it, the caller's count is back."""
    control = blas._thread_control()
    if isinstance(control, str):
        pytest.skip(f"no OpenBLAS thread control here: {control}")
    get, set_, _ = control
    seen = []

    def probe(ctx):
        seen.append(get())
        return CheckRecord("probe", True, {})

    monkeypatch.setitem(CHECKS, "probe", probe)
    before = get()
    set_(2)
    try:
        run_checks(CheckContext(ProblemDims(1, 1, 1.0), 64, 8.0), [("probe", {})])
        assert seen == [1] and get() == 2
    finally:
        set_(before)


def test_a_missing_thread_setter_falls_back_and_says_so(monkeypatch, tmp_path):
    """With no thread setter the checks run on numpy's default threads, the
    report is still written, and its environment names the fallback."""
    monkeypatch.setattr(blas, "_thread_control", lambda: "no thread setter for this test")
    status = main(["run", "--check", "tangent", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert status == 0 and report["all_passed"]
    assert report["environment"]["blas_threads"] == (
        "numpy's default threads (fallback: no thread setter for this test)")
