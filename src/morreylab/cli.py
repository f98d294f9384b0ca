"""Command-line surface: experiment orchestration and data export.

Subcommands
-----------
run        execute the checks named in a config file (or all by default)
kernel     kernel-structure checks (mass, positivity, closed forms, ...)
norms      norm-estimator checks
smoothing  smoothing-rate fits
perturb    perturbed-evolution checks
regions    region-calculus checks, or a line-oriented query protocol
report     re-export a stored report as CSV

Exit status: 0 all checks passed, 1 any check failed, 2 config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import sys

import numpy as np

from .checks import CHECK_GROUPS, run_checks
from .config import ConfigError, DEFAULT_CONFIG, ExperimentConfig, load_config, validate_config
from .indices import MorreyParams, region_report, to_index
from .report import build_report, report_from_json, report_to_json, write_csv

__all__ = ["main"]


def _emit(report: dict, out_dir: str | None) -> None:
    text = report_to_json(report)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text)
        write_csv(report, os.path.join(out_dir, "summary.csv"))
    else:
        print(text)


def _run_entries(cfg: ExperimentConfig, entries, out_dir: str | None) -> int:
    records = run_checks(cfg.context(), entries)
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        raised = rec.details.get("error_type")
        suffix = f": {raised}: {rec.details['error']}" if raised else ""
        print(f"[{status}] {rec.name} ({rec.duration:.2f}s){suffix}", file=sys.stderr)
    report = build_report(records, cfg.echo(), cfg.seed)
    _emit(report, out_dir or cfg.output_dir)
    return 0 if report["all_passed"] else 1


def _load(args) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = validate_config(DEFAULT_CONFIG)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _group_entries(cfg: ExperimentConfig, group: str):
    """Every configured entry of each check in the group, in config order;
    a check the config does not list runs with its defaults."""
    entries = []
    for name in CHECK_GROUPS[group]:
        entries += [e for e in cfg.checks if e[0] == name] or [(name, {})]
    return entries


# Query lines answered per numpy pass; bounds the protocol's working set.
BLOCK = 4096


def _bad_exponents(rows, counts, dims) -> dict:
    """ERR answers, keyed by row, of the rows whose exponents MorreyParams
    or validate_for reject.  One array pass clears a block with no bad
    row; otherwise each row replays the scalar constructors, so each
    message and their order (p >= 1, then ell > 0, for the query, class 0
    and class 1; then ell <= N for each) come from them alone."""
    two = counts == 6
    try:
        for p, ell in ((rows[:, 0], rows[:, 1]), (rows[:, 2], rows[:, 3]),
                       (rows[two, 4], rows[two, 5])):
            MorreyParams(p, ell).validate_for(dims)
        return {}
    except ValueError:
        pass
    errors = {}
    for k, (fields, count) in enumerate(zip(rows.tolist(), counts.tolist())):
        try:
            params = [MorreyParams(fields[j], fields[j + 1]) for j in range(0, count, 2)]
            for mp in params:
                mp.validate_for(dims)
        except ValueError as exc:
            errors[k] = f"ERR {exc}"
    return errors


def _answer_block(lines, dims) -> str:
    """Answers to query lines 'p ell p0 ell0 [p1 ell1]', one line each:
    'IN admissible', 'OUT reason', or 'ERR message' for a line that
    cannot be answered."""
    answers, rows, counts, at = [None] * len(lines), [], [], []
    for i, line in enumerate(lines):
        try:
            fields = list(map(float, line.split()))
        except ValueError as exc:
            answers[i] = f"ERR {exc}"
            continue
        if len(fields) not in (4, 6):
            answers[i] = f"ERR expected 'p ell p0 ell0 [p1 ell1]', got {len(fields)} fields"
            continue
        counts.append(len(fields))
        rows.append(fields + [math.nan] * (6 - len(fields)))
        at.append(i)
    rows, counts = np.array(rows).reshape(-1, 6), np.array(counts, dtype=int)
    errors = _bad_exponents(rows, counts, dims)
    keep = [k for k in range(len(at)) if k not in errors]
    q = rows[keep]
    reasons = region_report(to_index(MorreyParams(q[:, 0], q[:, 1]), dims), q[:, 2:], dims)
    for k, reason in zip(keep, reasons):
        answers[at[k]] = "IN admissible" if reason is None else f"OUT {reason}"
    for k, err in errors.items():
        answers[at[k]] = err
    return "".join(a + "\n" for a in answers)


def _regions_protocol(args, cfg: ExperimentConfig) -> int:
    """Line protocol: one answer line per query line, written a block of
    BLOCK query lines at a time; a line that cannot be answered gets
    'ERR message' and the stream goes on."""
    stream = open(args.queries) if args.queries != "-" else sys.stdin
    try:
        queries = (line for line in map(str.strip, stream)
                   if line and not line.startswith("#"))
        while block := list(itertools.islice(queries, BLOCK)):
            sys.stdout.write(_answer_block(block, cfg.dims))
    finally:
        if stream is not sys.stdin:
            stream.close()
    return 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON experiment config")
    common.add_argument("--out", help="output directory for report artifacts")
    common.add_argument("--jobs", type=int, default=None,
                        help="accepted only as 1: checks run one at a time")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--check", action="append", default=None,
                        help="restrict to named checks (repeatable)")

    parser = argparse.ArgumentParser(prog="morreylab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", help="run the configured check list", parents=[common])
    for group in CHECK_GROUPS:
        sub.add_parser(group, help=f"run the {group} checks", parents=[common])
    regions = sub.choices["regions"]
    regions.add_argument("--queries", help="query file for the line protocol ('-' for stdin)")

    rep = sub.add_parser("report", help="export a stored report as CSV")
    rep.add_argument("report_path")
    rep.add_argument("--csv", required=True)

    args = parser.parse_args(argv)

    try:
        if args.command == "report":
            with open(args.report_path) as fh:
                report = report_from_json(fh.read())
            write_csv(report, args.csv)
            return 0 if report.get("all_passed", False) else 1

        protocol = args.command == "regions" and args.queries is not None
        if protocol:
            for flag, value in (("--out", args.out), ("--jobs", args.jobs), ("--check", args.check)):
                if value is not None:
                    raise ConfigError(f"{flag} is not read by the --queries protocol")
        elif args.jobs not in (None, 1):
            raise ConfigError(f"--jobs {args.jobs}: checks run one at a time, so only 1 is accepted")
        cfg = _load(args)
        if protocol:
            return _regions_protocol(args, cfg)

        run = args.command == "run"
        entries = list(cfg.checks) if run else _group_entries(cfg, args.command)
        if args.check:
            listed = {name for name, _ in entries}
            unlisted = [c for c in args.check if c not in listed]
            if unlisted:
                where = "the config" if run else f"the {args.command} group"
                raise ConfigError(f"--check: {unlisted} not listed by {where}")
            entries = [e for e in entries if e[0] in args.check]
        if not entries:
            raise ConfigError("no check to run: the config lists none")
        return _run_entries(cfg, entries, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
