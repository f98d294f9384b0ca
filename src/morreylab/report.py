"""Experiment reports: structured-text documents plus CSV roll-ups.

Reports are deterministic given the config and seed; the content hash
excludes the wall-clock fields and the environment fingerprint.  Numbers
are written with 17 significant digits so round-trips are exact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import sys
import time

import numpy as np

from . import blas, heap

__all__ = ["build_report", "report_to_json", "report_from_json", "write_csv", "report_hash"]


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def environment_fingerprint() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": blas.status(),
        "heap": heap.status(),
    }


def build_report(records, config_echo: dict, seed: int) -> dict:
    """Assemble the structured report; every configured check appears once.

    Wall-clock data (timestamp, durations) lives in fields excluded from
    the content hash, so re-runs with one seed hash identically.
    """
    names = [r.name for r in records]
    if len(names) != len(set(names)):
        raise ValueError("duplicate check records in one report")
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "timings": {r.name: round(r.duration, 6) for r in records},
        "seed": seed,
        "environment": environment_fingerprint(),
        "config": _sanitize(config_echo),
        "checks": [
            {
                "name": r.name,
                "passed": bool(r.passed),
                "details": _sanitize(r.details),
            }
            for r in records
        ],
        "all_passed": all(r.passed for r in records),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True)


def report_from_json(text: str) -> dict:
    return json.loads(text)


def report_hash(report: dict) -> str:
    """Content hash of the numbers: it ignores the wall-clock fields
    (timestamp, timings) and the environment fingerprint."""
    body = {k: v for k, v in report.items() if k not in ("timestamp", "timings", "environment")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _flatten(details: dict, prefix: str = ""):
    """(key, value) rows: a nested dict's fields, and a list of dicts' items
    by position, become dotted keys (`first.0.gamma`)."""
    for k, v in sorted(details.items()):
        key = f"{prefix}{k}"
        if isinstance(v, (list, tuple)) and any(isinstance(x, dict) for x in v):
            v = dict(enumerate(v))
        if isinstance(v, dict):
            yield from _flatten(v, key + ".")
        else:
            yield key, _num17(v)


def _num17(x):
    """A value as CSV text: lists, nested ones too, joined in order with
    `;`, floats at 17 significant digits, booleans as true/false."""
    if isinstance(x, (list, tuple)):
        return ";".join(_num17(y) for y in x)
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(report: dict, path) -> None:
    """Roll-up table: one row per check, stable column order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "passed", "key", "value"])
        for rec in report["checks"]:
            writer.writerow([rec["name"], str(rec["passed"]).lower(), "", ""])
            for key, value in _flatten(rec["details"]):
                writer.writerow([rec["name"], "", key, value])

