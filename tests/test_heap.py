import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morreylab
from morreylab import heap
from morreylab.cli import main

SRC = str(Path(morreylab.__file__).resolve().parents[1])

# Run in a fresh interpreter: glibc raises its own thresholds as mapped
# blocks are freed, so a process that has already run other tests could
# keep the pages with or without the setting.
CHILD = """
import json, resource, sys
import numpy as np
from morreylab import heap

reason = heap.keep_freed_pages()
if reason is not None:
    print(json.dumps({"fallback": reason}))
    sys.exit(0)


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def rss():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize()


spec = np.zeros(2**17 + 1, dtype=complex)
np.fft.irfft(spec)
before = faults()
for _ in range(20):
    np.fft.irfft(spec)
faulted = faults() - before
base = rss()
big = np.ones((64 << 20) // 8)
held = rss()
del big
print(json.dumps({"faults": faulted, "held": held - base, "freed": rss() - base}))
"""


def test_freed_pages_are_reused_and_big_arrays_go_back():
    """With the setting, 20 inverse transforms at n = 2^18 fault in almost
    no pages (about 19,840 without it), and a freed 64 MiB array, above
    the mmap threshold, still gives its memory back to the kernel."""
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("no /proc/self/statm to read the resident set from")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    if "fallback" in out:
        pytest.skip(f"the heap keeps its defaults here: {out['fallback']}")
    assert out["faults"] < 2000
    assert out["held"] > 32 << 20 and abs(out["freed"]) < 1 << 20


def test_a_missing_mallopt_falls_back_and_says_so(monkeypatch, tmp_path):
    """Where the thresholds cannot be set the checks run on the default
    heap, the report is still written, and its environment names the
    fallback."""
    monkeypatch.setattr(heap, "keep_freed_pages", lambda: "no mallopt for this test")
    status = main(["run", "--check", "tangent", "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert status == 0 and report["all_passed"]
    assert report["environment"]["heap"] == (
        "C library defaults (fallback: no mallopt for this test)")
