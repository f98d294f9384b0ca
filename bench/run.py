"""morreylab benchmark: end-to-end metrics, or per-layer spans with --trace 1.

    python3 bench/run.py --workload registry --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program is imported from
`src/` and nothing is installed.  Every sample is a fresh interpreter
(`bench/child.py`), because every `morreylab` command starts cold: the
norm and Duhamel caches and numpy's FFT plans start empty, and peak
memory is per sample.  Children run one at a time with numpy's default
BLAS threading.

With --trace 0 the run starts full samples while the --seconds budget
lasts (at least one), then enough children that stop where the first
`cli.main` call would begin to give SETUP_SAMPLES set-up times in all.
With --trace 1 it runs pairs of one untraced and one traced sample
instead of single samples; the traced child wraps each layer from
outside the program (`bench/tracer.py`), and the difference of the two
wall times is the tracing overhead.

Every sample is checked: each report must pass every check, each
protocol answer must be an IN/OUT line, and report hashes and protocol
digests must agree across the samples of the run.  A failed or
disagreeing operation counts against the attempted ones.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  A
full record (environment, sizes, hashes, digests, verdict mix, and the
self-time table of a traced run) goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0  # a run must end within 180 s
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"

# setup_s: child launch to the first `cli.main` call (interpreter start,
#   imports, config load), median over the set-up and full samples.
# wall_s: wall time of the sample's `cli.main` calls; cpu_s and
#   peak_rss_mb: user+sys CPU and ru_maxrss of the whole child.  Medians.
# ok_frac: 1 - failed/attempted.  An operation is a check record or a
#   protocol query; a crash fails every operation it did not finish.  It
#   is reported as the share that succeeded so that it is never 0.
# queries_per_s: protocol queries answered per second of the protocol
#   calls on `regions`; the other workloads answer no protocol queries, so
#   there it is check records completed per second of wall_s.  Totals over
#   the run's samples, not a median of per-sample rates.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "queries_per_s": "1/s",
}

# Spans reported as per-layer metrics (calls, total_s, self_s each); the
# self-time table lists every span.
REPORTED_SPANS = [
    "duhamel.first_stage",
    "duhamel.picard_solve",
    "duhamel.sequential_solve",
    "duhamel.residual_norm",
    "duhamel.evaluate",
    "norms.morrey_norm",
    "semigroup.apply_semigroup",
    "semigroup.kernel",
    "semigroup.subordination_apply",
    "semigroup.pseudoresolvent",
    "quadrature.product_weights",
    "verify.region_oracle",
    "verify.compare_region_predicates",
    "verify.evolve_norms",
    "potentials.measured_norm",
    "indices.region_report",
    "cli.main",
]
# Innermost spans whose FFT work is reported on its own; the rest is "other".
FFT_SPANS = [
    "duhamel.first_stage",
    "duhamel.picard_solve",
    "duhamel.sequential_solve",
    "duhamel.residual_norm",
    "norms.morrey_norm",
    "semigroup.apply_semigroup",
    "semigroup.kernel",
    "semigroup.subordination_apply",
    "semigroup.pseudoresolvent",
]
# Records of the default registry; the other workloads' records are a subset.
RECORDS = [
    "kernel_mass", "kernel_positivity", "kernel_gaussian", "kernel_poisson", "kernel_2d",
    "selfsimilar_collapse_m1", "subordination", "norm_fixtures", "smoothing_dirac",
    "smoothing_morrey", "trace", "constant_potential", "contraction",
    "semigroup_property", "iterated", "continuous_dependence", "omega_constant",
    "omega_power", "regions", "tangent", "pseudoresolvent_constant",
    "pseudoresolvent_power", "selfsimilar_collapse_m2",
]


def per_layer_units() -> dict:
    units = {}
    for name in REPORTED_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["duhamel.sweeps"] = "count"
    for rec in RECORDS:
        units[f"checks.{rec}.s"] = "s"
    units["setup.import_s"] = "s"
    units["setup.config_s"] = "s"
    units["fft.calls"] = "count"
    units["fft.points"] = "count"
    units["fft.ops_computed"] = "flop"
    units["fft.bytes_computed"] = "B"
    for name in FFT_SPANS + ["other"]:
        units[f"fft.{name}.calls"] = "count"
        units[f"fft.{name}.points"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.outside_main_s"] = "s"
    units["trace.spans"] = "count"
    return units


# -- children ------------------------------------------------------------------


class Runner:
    """Starts children one at a time and reaps each with its resource usage."""

    def __init__(self, root: str, workdir: str, started: float):
        self.root, self.workdir, self.started = root, workdir, started
        self.count = 0
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def run(self, spec: dict) -> dict:
        """Run one child; returns its result plus exit status, CPU, RSS, elapsed."""
        self.count += 1
        tag = os.path.join(self.workdir, f"child{self.count:03d}")
        spec = dict(spec, result=tag + ".result.json", spans=tag + ".spans.json")
        with open(tag + ".spec.json", "w") as fh:
            json.dump(spec, fh)
        timeout = self.remaining()
        out = {"ok": False, "log": tag + ".log"}
        if timeout <= 0:
            out["error"] = "no time left in the run"
            return out
        with open(tag + ".log", "w") as log:
            launched = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), tag + ".spec.json",
                 repr(launched)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log)
            try:
                usage = _reap(proc, launched + timeout)
            finally:
                if proc.returncode is None:  # timed out, or the run was interrupted
                    proc.kill()
                    usage = _reap(proc, math.inf)
                    out["error"] = f"killed after {timeout:.0f} s"
        out["elapsed_s"] = time.monotonic() - launched
        out["exit"] = proc.returncode
        out["cpu_s"] = usage.ru_utime + usage.ru_stime
        out["rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        if proc.returncode == 0 and os.path.exists(spec["result"]):
            with open(spec["result"]) as fh:
                out["result"] = json.load(fh)
            out["ok"] = True
        if spec.get("trace") and os.path.exists(spec["spans"]):
            with open(spec["spans"]) as fh:
                out["trace"] = json.load(fh)
        return out


def _reap(proc, deadline: float):
    """Wait for the child until `deadline`; its resource usage, or None."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            return None
        time.sleep(0.01)


def _log_tail(path: str, lines: int = 15) -> str:
    try:
        with open(path) as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""


# -- checking a sample ---------------------------------------------------------


def _sample_calls(plan: dict, sample_dir: str) -> list:
    calls = []
    for i, call in enumerate(plan["calls"]):
        argv = list(call["argv"])
        if call["report"]:
            argv += ["--out", os.path.join(sample_dir, f"call{i}")]
        calls.append(dict(call, argv=argv, stdout=os.path.join(sample_dir, f"call{i}.out")))
    return calls


def _score(child: dict, calls: list, plan: dict, fallback_records: int) -> dict:
    """Operations attempted and failed in one sample, with its fingerprints."""
    entries = child.get("result", {}).get("calls", [])
    attempted = failed = 0
    fingerprints, verdicts, records, sizes = [], Counter(), {}, []
    for i, call in enumerate(calls):
        entry = entries[i] if i < len(entries) else {}
        if call["protocol"]:
            expected = plan["queries"]
            try:
                with open(call["stdout"], "rb") as fh:
                    raw = fh.read()
            except OSError:
                raw = b""
            lines = raw.decode("utf-8", "replace").splitlines()
            for line in lines:
                verdicts[line.split(" ", 1)[0]] += 1
            good = verdicts["IN"] + verdicts["OUT"]
            attempted += expected
            failed += expected - min(good, expected)
            fingerprints.append("protocol:" + hashlib.sha256(raw).hexdigest())
        else:
            expected = entry.get("expected") or fallback_records
            report = entry.get("report", {})
            passed = sum(1 for _, ok in report.get("records", []) if ok)
            attempted += expected
            failed += expected - min(passed, expected)
            fingerprints.append("report:" + str(report.get("hash")))
            records.update(report.get("timings", {}))
            sizes.append({"records": len(report.get("records", [])),
                          "grid.n": report.get("grid_n")})
    return {"attempted": attempted, "failed": failed, "fingerprint": tuple(fingerprints),
            "verdicts": dict(verdicts), "timings": records, "reports": sizes,
            "errors": [e["error"] for e in entries if e.get("error")]}


def _expected_records(children: list) -> int:
    seen = [e.get("expected") for c in children for e in c.get("result", {}).get("calls", [])
            if e.get("expected")]
    return max(seen) if seen else 1


# -- aggregation ---------------------------------------------------------------


def _median(values, default=0.0):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def end_to_end(samples: list, setups: list, plan: dict, attempted: int, failed: int) -> dict:
    good = [s for s in samples if s["ok"]]
    walls = [sum(e["wall_s"] for e in s["result"]["calls"]) for s in good]
    if plan["queries"]:
        answered = sum(s["score"]["verdicts"].get(v, 0) for s in good for v in ("IN", "OUT"))
        busy = sum(e["wall_s"] for s in good
                   for e, c in zip(s["result"]["calls"], s["calls"]) if c["protocol"])
    else:
        answered = sum(s["score"]["attempted"] - s["score"]["failed"] for s in good)
        busy = sum(walls)
    values = {
        "setup_s": _median([c["result"]["setup_s"] for c in setups + good if c["ok"]]),
        "wall_s": _median(walls),
        "cpu_s": _median([s["cpu_s"] for s in good]),
        "peak_rss_mb": _median([s["rss_mb"] for s in good]),
        "ok_frac": 1.0 - failed / attempted,
        "queries_per_s": answered / busy if busy else 0.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _median_wall(children: list) -> float:
    return _median([sum(e["wall_s"] for e in c["result"]["calls"]) for c in children])


def per_layer(traced: list, untraced: list, setups: list) -> tuple[dict, str]:
    units = per_layer_units()
    values = {k: 0 if unit == "count" else 0.0 for k, unit in units.items()}
    first = traced[0]["trace"]
    rows = [self_times(t["trace"]) for t in traced]
    for name in REPORTED_SPANS:
        if name in rows[0]:
            values[f"{name}.calls"] = rows[0][name]["calls"]
            values[f"{name}.total_s"] = _median([r[name]["total_s"] for r in rows])
            values[f"{name}.self_s"] = _median([r[name]["self_s"] for r in rows])
    values["duhamel.sweeps"] = first["sweeps"]
    for rec in RECORDS:
        values[f"checks.{rec}.s"] = _median([s["score"]["timings"].get(rec) for s in untraced])
    children = [c for c in setups + untraced + traced if c["ok"]]
    values["setup.import_s"] = _median([c["result"]["import_s"] for c in children])
    values["setup.config_s"] = _median([c["result"]["config_s"] for c in children])
    fft_total = [0, 0, 0.0]
    for span, (calls, points, ops) in first["fft"].items():
        key = span if span in FFT_SPANS else "other"
        values[f"fft.{key}.calls"] += calls
        values[f"fft.{key}.points"] += points
        fft_total = [fft_total[0] + calls, fft_total[1] + points, fft_total[2] + ops]
    values["fft.calls"], values["fft.points"] = fft_total[0], fft_total[1]
    values["fft.ops_computed"] = fft_total[2]
    values["fft.bytes_computed"] = 16 * fft_total[1]
    values["trace.overhead_s"] = _median_wall(traced) - _median_wall(untraced)
    main_s = [r["cli.main"]["total_s"] for r in rows if "cli.main" in r]
    values["trace.outside_main_s"] = _median([t["elapsed_s"] for t in traced]) - _median(main_s)
    values["trace.spans"] = len(first["spans"])
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    table = _self_time_table(rows[0], traced[0], first)
    counts = [({k: r["calls"] for k, r in row.items()}, t["trace"]["sweeps"], t["trace"]["fft"])
              for row, t in zip(rows, traced)]
    if any(c != counts[0] for c in counts):
        table += "\nWARNING: call, sweep or FFT counts differ between traced samples"
    return metrics, table


def _self_time_table(row: dict, child: dict, trace: dict) -> str:
    elapsed = child["elapsed_s"]
    main_total = row.get("cli.main", {}).get("total_s", 0.0)
    lines = [f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'self%':>7s}"]
    for name, r in sorted(row.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:40s} {r['calls']:8d} {r['total_s']:10.4f} {r['self_s']:10.4f} "
                     f"{100.0 * r['self_s'] / elapsed:6.2f}%")
    covered = sum(r["self_s"] for r in row.values())
    lines.append(f"{'(not covered by any span below cli.main)':40s} {'':8s} {'':10s} "
                 f"{row.get('cli.main', {}).get('self_s', 0.0):10.4f}  = cli.main self")
    lines.append(f"{'(outside cli.main: start, imports, exit)':40s} {'':8s} {'':10s} "
                 f"{elapsed - main_total:10.4f} "
                 f"{100.0 * (elapsed - main_total) / elapsed:6.2f}%")
    lines.append(f"traced child elapsed {elapsed:.4f} s; spans cover {covered:.4f} s; "
                 f"{len(trace['spans'])} spans")
    fft = trace["fft"]
    if fft:
        lines.append("FFT work by innermost span (ops = 5 N log2 N and bytes = 16 B per "
                     "point are computed, not measured):")
        for span, (calls, points, ops) in sorted(fft.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"  {span:38s} calls {calls:8d} points {points:12d} "
                         f"ops {ops:12.4g} bytes {16 * points:12.4g}")
    return "\n".join(lines)


# -- environment ---------------------------------------------------------------


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "morreylab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_rev(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=20, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc.__class__.__name__})"
    return out.stdout.strip() or "unavailable"


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the smoke test only")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "morreylab", "cli.py")):
        print("error: run from a morreylab source checkout (src/morreylab not found)",
              file=sys.stderr)
        return 2
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(root, WORK_DIR, f"{run_id}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, root, workdir, run_id, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, root: str, workdir: str, run_id: str, started: float) -> int:
    plan = prepare(args.workload, args.seed, args.size, os.path.join(workdir, "inputs"))
    runner = Runner(root, workdir, started)

    probe = runner.run({"probe": True})
    if not probe["ok"]:
        print("error: the program could not be imported:\n" + _log_tail(probe["log"]),
              file=sys.stderr)
        return 1
    env = {"git_rev": _git_rev(root), "source_sha256": _source_digest(root),
           **probe["result"], "sizes": plan["sizes"]}

    deadline = time.monotonic() + args.seconds
    samples, durations = [], []
    while runner.remaining() > 0:
        t0 = time.monotonic()
        for trace in ((False, True) if args.trace else (False,)):
            sample_dir = os.path.join(workdir, f"sample{len(samples):03d}")
            os.makedirs(sample_dir)
            calls = _sample_calls(plan, sample_dir)
            child = runner.run({"calls": calls, "trace": trace})
            child["calls"], child["traced"] = calls, trace
            samples.append(child)
        durations.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(durations) > deadline:
            break
    # every full sample gives a set-up time; set-up-only children add the rest
    setup_spec = {"calls": _sample_calls(plan, workdir), "setup_only": True}
    setups = [runner.run(setup_spec) for _ in range(SETUP_SAMPLES - len(samples))]

    fallback = _expected_records(samples)
    attempted = failed = 0
    for s in samples:
        s["score"] = _score(s, s["calls"], plan, fallback)
    # a sample whose outputs differ from the rest of the run counts as failed
    majority = Counter(s["score"]["fingerprint"] for s in samples).most_common(1)[0][0]
    for s in samples:
        sc = s["score"]
        attempted += sc["attempted"]
        lost = sc["attempted"] if sc["fingerprint"] != majority or not s["ok"] else sc["failed"]
        failed += lost
    correct = failed == 0 and all(s["ok"] for s in samples + setups)
    env["sizes"]["reports"] = samples[0]["score"]["reports"]

    untraced = [s for s in samples if not s["traced"] and s["ok"]]
    traced = [s for s in samples if s["traced"] and s["ok"] and "trace" in s]
    table = ""
    if args.trace:
        if not traced or not untraced:
            print("error: no traced sample completed", file=sys.stderr)
            metrics = {}
        else:
            metrics, table = per_layer(traced, untraced, setups)
    else:
        metrics = end_to_end(samples, setups, plan, attempted, failed)

    record = {
        "run": run_id, "environment": env,
        "samples": [{"traced": s["traced"], "exit": s.get("exit"),
                     "elapsed_s": s.get("elapsed_s"), "cpu_s": s.get("cpu_s"),
                     "rss_mb": s.get("rss_mb"),
                     "wall_s": [e["wall_s"] for e in s.get("result", {}).get("calls", [])],
                     "attempted": s["score"]["attempted"], "failed": s["score"]["failed"],
                     "fingerprint": s["score"]["fingerprint"],
                     "verdicts": s["score"]["verdicts"], "errors": s["score"]["errors"]}
                    for s in samples],
        "setup_s": [c["result"]["setup_s"] for c in setups if c["ok"]],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    with open(os.path.join(root, OUT_DIR, run_id + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if table:
        with open(os.path.join(root, OUT_DIR, run_id + ".selftime.txt"), "w") as fh:
            fh.write(table + "\n")

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    for i, s in enumerate(samples):
        sc = s["score"]
        print(f"# sample {i} traced={int(s['traced'])} exit={s.get('exit')} "
              f"wall_s={record['samples'][i]['wall_s']} failed={sc['failed']}/{sc['attempted']} "
              f"verdicts={sc['verdicts']} outputs={sc['fingerprint']}")
        for err in sc["errors"]:
            print("#   " + err.strip().replace("\n", "\n#   "))
        if not s["ok"] or sc["failed"]:
            print("#   child log:\n#   " + _log_tail(s["log"]).replace("\n", "\n#   "))
    if table:
        print("# " + table.replace("\n", "\n# "))
    if not metrics:
        return 1
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
