"""Benchmark workloads: the generated inputs and the `morreylab` calls of one sample.

Every workload is a closed loop with one caller who waits for the
answer: one child interpreter runs the workload's calls to
`morreylab.cli.main` in order, and no two children run at once.  The
inputs are made here from the benchmark seed before any child starts;
the program receives only the generated config files, query lines and
command-line flags.

Why these workloads:

- `registry`: `morreylab run` on the built-in default config, the product
  users run and the end-to-end number of the roadmap.  The Duhamel
  solvers (`picard_solve`, the first-stage propagator matrices, the
  per-sweep residual norms) do almost all of its work.
- `spectral_fine`: the kernel, norms and smoothing checks on a 2^18-point
  grid.  `grid.n` is the only user-facing size knob that reaches these
  checks; here the Morrey scan and the multiplier path work on single
  large arrays and the Duhamel layer does nothing.
- `regions`: the region-calculus check with a raised oracle count, then
  the `IN`/`OUT` line protocol over a seeded query stream.  Nothing else
  stresses the brute-force oracle or the protocol.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

WORKLOADS = ("registry", "spectral_fine", "regions")

# The checks of the kernel, norms and smoothing groups plus the m=2
# self-similar collapse: 12 report records.
SPECTRAL_CHECKS = [
    {"name": "kernel_mass"},
    {"name": "kernel_positivity"},
    {"name": "kernel_gaussian"},
    {"name": "kernel_poisson"},
    {"name": "kernel_2d"},
    {"name": "selfsimilar_collapse"},
    {"name": "subordination"},
    {"name": "norm_fixtures"},
    {"name": "trace"},
    {"name": "smoothing_dirac"},
    {"name": "smoothing_morrey"},
    {"name": "selfsimilar_collapse", "m": 2, "tol": 1e-2},
]

# `tiny` exists only for the smoke test: it exercises every code path
# of the harness in seconds.  Its registry is a short check list that
# still reaches the first-stage propagator and the Picard solver.
SIZES = {
    "full": {
        "spectral_n": 2**18,
        "regions_count": 2000,
        "regions_density": 200,
        "stream_length": 60000,
        "registry_checks": None,  # the program's own default config
    },
    "tiny": {
        "spectral_n": 2**12,
        "regions_count": 40,
        "regions_density": 60,
        "stream_length": 400,
        "registry_checks": [
            {"name": "kernel_mass"},
            {"name": "omega_constant", "n": 64},
            {"name": "iterated", "n": 64, "nodes": 32},
            {"name": "regions", "count": 40, "density": 60},
            {"name": "tangent"},
        ],
    },
}

# Dimensions of every generated config (the program's defaults).
N_DIM, M_ORDER, MU = 1, 1, 1.0


def query_stream(seed: int, count: int) -> list[str]:
    """Protocol lines 'p ell p0 ell0 [p1 ell1]' from the seeded stream.

    Same distribution as the program's own region check: gamma uniform
    over the index triangle, then one or two admissible potential
    classes with p0 in [1, 6] and ell0 in [0.05, N].
    """
    rng = np.random.default_rng(seed)
    order = 2.0 * M_ORDER * MU
    cap = N_DIM / order
    lines = []
    while len(lines) < count:
        g1 = rng.uniform(0.0, 1.0)
        g2 = rng.uniform(0.0, cap)
        if g2 > cap * g1 or g1 < 1e-3 or g2 < 1e-3:
            continue
        p, ell = 1.0 / g1, min(order * g2 / g1, float(N_DIM))
        n_cls = 1 if rng.uniform() < 0.5 else 2
        fields = [p, ell]
        while len(fields) < 2 + 2 * n_cls:
            p0 = rng.uniform(1.0, 6.0)
            ell0 = rng.uniform(0.05, N_DIM)
            if ell0 / (order * p0) < 1.0 - 1e-12:  # admissible: kappa < 1
                fields += [p0, ell0]
        lines.append(" ".join(repr(float(v)) for v in fields))
    return lines


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def prepare(workload: str, seed: int, size: str, workdir: str) -> dict:
    """Write the workload's input files under `workdir` and describe one sample.

    Returns {"calls": [...], "sizes": {...}, "queries": int}: each call
    has the argv for `cli.main`, whether it writes a report (the caller
    adds `--out`) and whether its stdout is protocol output.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    sz = SIZES[size]
    os.makedirs(workdir, exist_ok=True)
    common = ["--jobs", "1", "--seed", str(seed)]
    if workload == "registry":
        argv = ["run", *common]
        sizes = {"config": "built-in default"}
        if sz["registry_checks"] is not None:
            cfg = _write_json(os.path.join(workdir, "registry.json"),
                              {"version": 1, "checks": sz["registry_checks"]})
            argv += ["--config", cfg]
            sizes = {"checks": [c["name"] for c in sz["registry_checks"]]}
        return {"calls": [{"argv": argv, "report": True, "protocol": False}],
                "sizes": sizes, "queries": 0}
    if workload == "spectral_fine":
        n = sz["spectral_n"]
        cfg = _write_json(os.path.join(workdir, "spectral_fine.json"),
                          {"version": 1, "grid": {"n": n, "L": 8.0},
                           "checks": SPECTRAL_CHECKS})
        return {"calls": [{"argv": ["run", "--config", cfg, *common],
                           "report": True, "protocol": False}],
                "sizes": {"grid.n": n, "log2_n": int(math.log2(n)),
                          "checks": len(SPECTRAL_CHECKS)},
                "queries": 0}
    count, density, length = sz["regions_count"], sz["regions_density"], sz["stream_length"]
    cfg = _write_json(os.path.join(workdir, "regions.json"),
                      {"version": 1, "checks": [
                          {"name": "regions", "count": count, "density": density}]})
    stream = os.path.join(workdir, "queries.txt")
    with open(stream, "w") as fh:
        fh.write("\n".join(query_stream(seed, length)) + "\n")
    return {"calls": [
                {"argv": ["regions", "--config", cfg, *common],
                 "report": True, "protocol": False},
                {"argv": ["regions", "--config", cfg, "--seed", str(seed),
                          "--queries", stream],
                 "report": False, "protocol": True}],
            "sizes": {"regions.count": count, "regions.density": density,
                      "stream_length": length},
            "queries": length}
