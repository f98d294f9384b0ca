"""One benchmark sample of morreylab in a fresh interpreter.

    python3 bench/child.py SPEC.json LAUNCH_TIME

SPEC.json names the `cli.main` calls of the sample, where their stdout
goes, whether to trace, and where to write the result.  LAUNCH_TIME is
the parent's `time.monotonic()` just before it started this process
(CLOCK_MONOTONIC is shared by all processes on Linux), so set-up time
covers interpreter start, the imports and the config load.

With `"probe": true` the child only imports the program and writes an
environment record; with `"setup_only": true` it stops where the first
call would start, which gives a set-up sample.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _blas_info(np) -> dict:
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints
        return {}
    deps = cfg.get("Build Dependencies", {})
    return {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")
                if f in deps[k]} for k in ("blas", "lapack") if k in deps}


def _probe(spec: dict) -> None:
    import numpy as np
    from morreylab.report import environment_fingerprint

    record = {
        "fingerprint": environment_fingerprint(),
        "cpu_count": os.cpu_count(),
        "blas": _blas_info(np),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }
    with open(spec["result"], "w") as fh:
        json.dump(record, fh, indent=1)


def _expected_records(call_argv, cfg, check_groups) -> int:
    """Records the call should produce: the configured checks or the group's."""
    if call_argv[0] == "run":
        return len(cfg.checks)
    return len(check_groups[call_argv[0]])


def _read_report(out_dir: str, report_hash) -> dict:
    path = os.path.join(out_dir, "report.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        report = json.load(fh)
    return {
        "hash": report_hash(report),
        "records": [[c["name"], bool(c["passed"])] for c in report["checks"]],
        "timings": report.get("timings", {}),
        "grid_n": report.get("config", {}).get("grid", {}).get("n"),
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    launched = float(sys.argv[2])
    if spec.get("probe"):
        _probe(spec)
        return 0

    t_import = time.monotonic()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import morreylab.cli
    from morreylab.checks import CHECK_GROUPS
    from morreylab.config import DEFAULT_CONFIG, load_config, validate_config
    from morreylab.report import report_hash

    t_config = time.monotonic()
    expected = []
    for call in spec["calls"]:
        argv = call["argv"]
        path = argv[argv.index("--config") + 1] if "--config" in argv else None
        cfg = load_config(path) if path else validate_config(DEFAULT_CONFIG)
        expected.append(None if call["protocol"] else
                        _expected_records(argv, cfg, CHECK_GROUPS))
    t_ready = time.monotonic()
    setup = {
        "interpreter_s": T_START - launched,
        "import_s": t_config - t_import,
        "config_s": t_ready - t_config,
        "setup_s": t_ready - launched,
    }
    if spec.get("setup_only"):
        with open(spec["result"], "w") as fh:
            json.dump(setup, fh)
        return 0

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    install_s = time.monotonic() - t_ready

    result = {**setup, "install_s": install_s, "calls": []}
    main_fn = morreylab.cli.main
    for call, n_expected in zip(spec["calls"], expected):
        entry = {"expected": n_expected, "rc": None, "error": None}
        with open(call["stdout"], "w") as out, contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                entry["rc"] = main_fn(call["argv"])
            except (Exception, SystemExit):
                entry["error"] = traceback.format_exc()
            entry["wall_s"] = time.perf_counter() - t0
        if call["report"]:
            entry["report"] = _read_report(call["argv"][call["argv"].index("--out") + 1],
                                           report_hash)
        result["calls"].append(entry)

    if tracer is not None:
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
