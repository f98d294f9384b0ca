"""Experiment configuration: versioned JSON schema with strict validation.

Unknown keys are errors (naming the offending field path), so tolerance
names cannot drift silently, and a check's pinned tolerances, which are
not parameters of the check, cannot be set at all; the few check values
a config may set are typed and ranged when it loads.  A validated config
is deterministic given its seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .checks import (CHECKS, CheckContext, _collapse_tolerance, _half_node_count,
                     record_name)
from .grids import _check_points
from .indices import ProblemDims

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "validate_config", "DEFAULT_CONFIG"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _require_keys(obj: dict, allowed: dict, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a mapping")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key")
    out = {}
    for key, (required, check) in allowed.items():
        if key in obj:
            out[key] = check(obj[key], f"{path}.{key}")
        elif required:
            raise ConfigError(f"{path}.{key}: required key missing")
    return out


def _number(lo=None, hi=None):
    def check(v, path):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {v!r}")
        if lo is not None and v < lo:
            raise ConfigError(f"{path}: {v} below minimum {lo}")
        if hi is not None and v > hi:
            raise ConfigError(f"{path}: {v} above maximum {hi}")
        return float(v)

    return check


def _integer(lo=None):
    def check(v, path):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{path}: expected an integer, got {v!r}")
        if lo is not None and v < lo:
            raise ConfigError(f"{path}: {v} below minimum {lo}")
        return v

    return check


def _string(v, path):
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string")
    return v


def _ruled(rule):
    """An integer checked by the rule of the code that reads it, whose
    ValueError becomes a ConfigError naming the path."""
    def check(v, path):
        k = _integer()(v, path)
        try:
            rule(k)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return k

    return check


_grid_points = _ruled(_check_points)  # points per grid axis, as every GridFunction takes


def _optional_string(v, path):
    if v is None:
        return None
    return _string(v, path)


def _positive(v, path):
    x = _number()(v, path)
    if not 0.0 < x < math.inf:
        raise ConfigError(f"{path}: expected a finite number > 0, got {v!r}")
    return x


# The check values a config may set, with their checks: every other key of
# a check entry is refused, pinned tolerances and solver settings included.
_CHECK_VALUES = {
    ("regions", "count"): _integer(1),
    ("regions", "density"): _integer(1),
    ("iterated", "n"): _grid_points,
    ("iterated", "nodes"): _ruled(_half_node_count),
    ("omega_constant", "n"): _grid_points,
    ("selfsimilar_collapse", "m"): _integer(1),
    ("selfsimilar_collapse", "tol"): _positive,
}


@dataclass(frozen=True)
class ExperimentConfig:
    version: int
    seed: int
    dims: ProblemDims
    n: int
    L: float
    checks: tuple = field(default_factory=tuple)  # ((name, params), ...)
    output_dir: str | None = None

    def echo(self) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "dims": {"N": self.dims.N, "m": self.dims.m, "mu": self.dims.mu},
            "grid": {"n": self.n, "L": self.L},
            "checks": [{"name": name, **params} for name, params in self.checks],
            "output_dir": self.output_dir,
        }

    def context(self) -> CheckContext:
        """The context every check of this config runs in."""
        return CheckContext(dims=self.dims, n=self.n, L=self.L, seed=self.seed)


DEFAULT_CONFIG = {
    "version": SCHEMA_VERSION,
    "seed": 0,
    "dims": {"N": 1, "m": 1, "mu": 1.0},
    "grid": {"n": 4096, "L": 8.0},
    "checks": [{"name": name} for name in CHECKS]
    + [{"name": "selfsimilar_collapse", "m": 2, "tol": 1e-2}],
    "output_dir": None,
}


def validate_config(raw: dict) -> ExperimentConfig:
    top = _require_keys(raw, {
        "version": (True, _integer(1)),
        "seed": (False, _integer(0)),
        "dims": (False, lambda v, p: _require_keys(v, {
            "N": (False, _integer(1)),
            "m": (False, _integer(1)),
            "mu": (False, _number(1e-9, 1.0)),
        }, p)),
        "grid": (False, lambda v, p: _require_keys(v, {
            "n": (False, _grid_points),
            "L": (False, _number(1.0)),  # the locally uniform norm needs a unit ball
        }, p)),
        "checks": (False, _check_list),
        "output_dir": (False, _optional_string),
    }, "config")
    if top["version"] != SCHEMA_VERSION:
        raise ConfigError(f"config.version: schema version {top['version']} unsupported "
                          f"(expected {SCHEMA_VERSION})")
    # an omitted key takes DEFAULT_CONFIG's value; omitted checks run each check once
    dims = {**DEFAULT_CONFIG["dims"], **top.get("dims", {})}
    grid = {**DEFAULT_CONFIG["grid"], **top.get("grid", {})}
    return ExperimentConfig(
        version=top["version"],
        seed=top.get("seed", DEFAULT_CONFIG["seed"]),
        dims=ProblemDims(dims["N"], dims["m"], dims["mu"]),
        n=grid["n"],
        L=grid["L"],
        checks=tuple(top.get("checks", ((name, {}) for name in CHECKS))),
        output_dir=top.get("output_dir"),
    )


def _check_list(v, path):
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list of check entries")
    out, records = [], set()
    for i, entry in enumerate(v):
        p = f"{path}[{i}]"
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(f"{p}: expected a mapping with a 'name' key")
        name = entry["name"]
        if name not in CHECKS:
            raise ConfigError(f"{p}.name: unknown check {name!r}")
        params = {}
        for k, val in entry.items():
            if k == "name":
                continue
            if (name, k) not in _CHECK_VALUES:
                raise ConfigError(f"{p}.{k}: unknown parameter of check {name!r}")
            params[k] = _CHECK_VALUES[name, k](val, f"{p}.{k}")
        if name == "selfsimilar_collapse":
            try:
                _collapse_tolerance(params.get("m", 1), params.get("tol"))
            except ValueError as exc:
                raise ConfigError(f"{p}.{'tol' if 'tol' in params else 'm'}: {exc}") from None
        record = record_name(name, params)
        if record in records:
            raise ConfigError(f"{p}: an earlier entry already produces record {record!r}")
        records.add(record)
        out.append((name, params))
    return tuple(out)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return validate_config(raw)
