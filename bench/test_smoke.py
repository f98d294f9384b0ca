"""Smoke test of the benchmark at tiny sizes.

    python -m pytest bench/test_smoke.py

Every end-to-end metric (--trace 0) and every per-layer metric
(--trace 1) named in BENCHMARK.json must be emitted with its unit, on
every workload, and the benchmark must refuse to run where the program
is missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_unit(workload, trace):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr + out.stdout[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == named
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "registry", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_times_count_recursion_once():
    # outer solve [0, 10] holds a nested solve [2, 6] holding a norm [3, 4]
    trace = {"names": ["solve", "norm"],
             "spans": [[0, 0.0, 10.0, -1], [0, 2.0, 6.0, 0], [1, 3.0, 4.0, 1]]}
    rows = self_times(trace)
    assert rows["solve"] == {"calls": 2, "total_s": 10.0, "self_s": 9.0}
    assert rows["norm"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
