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
import math
import os
import sys

from .checks import CHECK_GROUPS, CHECKS, run_checks
from .config import ConfigError, DEFAULT_CONFIG, ExperimentConfig, load_config, validate_config
from .indices import MorreyParams, PotentialClass, region_report
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


def _run_entries(cfg: ExperimentConfig, entries, jobs: int, out_dir: str | None) -> int:
    records = run_checks(cfg.context(), entries, jobs=jobs)
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


def _group_entries(cfg: ExperimentConfig, group: str, selected):
    """Every configured entry of each check in the group, in config order;
    a check the config does not list runs with its defaults."""
    entries = []
    for name in CHECK_GROUPS[group]:
        if not selected or name in selected:
            entries += [e for e in cfg.checks if e[0] == name] or [(name, {})]
    return entries


def _answer(line: str, dims) -> str:
    """'p ell p0 ell0 [p1 ell1]' -> 'IN|OUT reason'; raises ValueError on a bad line."""
    parts = [math.inf if tok.lower() in ("inf", "infinity") else float(tok)
             for tok in line.split()]
    if len(parts) not in (4, 6):
        raise ValueError(f"expected 'p ell p0 ell0 [p1 ell1]', got {len(parts)} fields")
    mp = MorreyParams(parts[0], parts[1])
    classes = [PotentialClass.from_exponents(p0, ell0, dims)
               for p0, ell0 in zip(parts[2::2], parts[3::2])]
    return region_report(mp, classes, dims).line()


def _regions_protocol(args, cfg: ExperimentConfig) -> int:
    """Line protocol: one answer line per query line; a line that cannot be
    answered gets 'ERR message' and the stream goes on."""
    stream = open(args.queries) if args.queries != "-" else sys.stdin
    try:
        for line in stream:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                print(_answer(line, cfg.dims))
            except ValueError as exc:
                print(f"ERR {exc}")
    finally:
        if stream is not sys.stdin:
            stream.close()
    return 0


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON experiment config")
    common.add_argument("--out", help="output directory for report artifacts")
    common.add_argument("--jobs", type=int, default=1, help="parallel check workers")
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

        cfg = _load(args)
        if args.command == "regions" and args.queries is not None:
            return _regions_protocol(args, cfg)

        if args.command == "run":
            entries = list(cfg.checks)
            if args.check:
                unknown = [c for c in args.check if c not in CHECKS]
                if unknown:
                    raise ConfigError(f"--check: unknown checks {unknown}")
                entries = [(n, p) for n, p in entries if n in set(args.check)]
        else:
            entries = _group_entries(cfg, args.command, args.check)
        return _run_entries(cfg, entries, args.jobs, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
