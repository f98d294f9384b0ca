"""Spans around the calls into each morreylab layer, installed from outside.

The tracer wraps the public functions of each layer and installs every
wrapper at each binding site: modules that did `from .norms import
morrey_norm` hold their own reference, so replacing the attribute of
the defining module alone would miss their calls.  The binding of
`morrey_norm` inside `duhamel` gets its own span name,
`duhamel.residual_norm`, because it is exactly the per-sweep residual
norm.  Spans are kept in memory (name, start, end, parent) and written
out by `dump`.

The `numpy.fft` transforms are wrapped as counters, not spans: each
call adds its call count and point count to the innermost open span.

One thread only: the span stack is shared, so traced runs use --jobs 1.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# (module, attribute, span name).  `module.attribute` may name a class
# method as "Class.method".  The first-stage propagator is private but is
# the largest single cost of the registry, so it is wrapped by name.
TARGETS = [
    ("semigroup", "apply_semigroup", "semigroup.apply_semigroup"),
    ("semigroup", "kernel", "semigroup.kernel"),
    ("semigroup", "selfsimilar_collapse", "semigroup.selfsimilar_collapse"),
    ("semigroup", "subordination_apply", "semigroup.subordination_apply"),
    ("semigroup", "pseudoresolvent", "semigroup.pseudoresolvent"),
    ("semigroup", "laplacian_power_symbol", "semigroup.laplacian_power_symbol"),
    ("norms", "morrey_norm", "norms.morrey_norm"),
    ("norms", "uniform_norm", "norms.uniform_norm"),
    ("norms", "lp_ball_norm", "norms.lp_ball_norm"),
    ("norms", "holder_product_check", "norms.holder_product_check"),
    ("quadrature", "product_weights", "quadrature.product_weights"),
    ("duhamel", "picard_solve", "duhamel.picard_solve"),
    ("duhamel", "sequential_solve", "duhamel.sequential_solve"),
    ("duhamel", "evaluate", "duhamel.evaluate"),
    ("duhamel", "_propagator_matrices", "duhamel.first_stage"),
    ("verify", "fit_decay", "verify.fit_decay"),
    ("verify", "trace_check", "verify.trace_check"),
    ("verify", "evolve_norms", "verify.evolve_norms"),
    ("verify", "growth_rate", "verify.growth_rate"),
    ("verify", "omega_scaling", "verify.omega_scaling"),
    ("verify", "continuous_dependence_check", "verify.continuous_dependence_check"),
    ("verify", "region_oracle", "verify.region_oracle"),
    ("verify", "compare_region_predicates", "verify.compare_region_predicates"),
    ("verify", "pseudoresolvent_identity", "verify.pseudoresolvent_identity"),
    ("indices", "region_report", "indices.region_report"),
    ("indices", "choose_alpha", "indices.choose_alpha"),
    ("indices", "exterior_tangent", "indices.exterior_tangent"),
    ("potentials", "PotentialSpec.measured_norm", "potentials.measured_norm"),
    ("potentials", "PotentialSpec.on_grid", "potentials.on_grid"),
    ("checks", "run_checks", "checks.run_checks"),
    ("cli", "main", "cli.main"),
]

# A binding whose calls get another span name than the defining module's.
SITE_NAMES = {("duhamel", "morrey_norm"): "duhamel.residual_norm"}

# Trajectory-returning solvers: their residual histories give the sweep count.
SOLVERS = ("duhamel.picard_solve", "duhamel.sequential_solve")

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
             "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")
NO_SPAN = "(no span)"


def _transform_length(name: str, a, args, kwargs) -> int:
    """Points in one transform of the call: the product of the transformed axes."""
    shape = getattr(a, "shape", ())
    if not shape:
        return 1
    if name.endswith("n") or name.endswith("2"):
        s = kwargs.get("s", args[0] if args else None)
        axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
        if s is not None:
            return int(math.prod(s))
        if axes is None:
            axes = range(len(shape)) if name.endswith("n") else (-2, -1)
        return int(math.prod(shape[ax] for ax in axes))
    n = kwargs.get("n", args[0] if args else None)
    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
    return int(n) if n is not None else int(shape[axis])


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self.stack: list[int] = []
        self.sweeps = 0
        self.fft: dict[str, list] = {}  # innermost span -> [calls, points, ops]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        nid = self._name_id(name)
        count_sweeps = name in SOLVERS

        @functools.wraps(fn)
        def span(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count_sweeps:
                self.sweeps += len(out.residual_history)
            return out

        return span

    def _wrap_fft(self, fn, name: str):
        names, spans, stack, fft = self.names, self.spans, self.stack, self.fft

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            inner = names[spans[stack[-1]][0]] if stack else NO_SPAN
            slot = fft.setdefault(inner, [0, 0, 0.0])
            points = int(getattr(a, "size", 1))
            length = _transform_length(name, a, args, kwargs)
            slot[0] += 1
            slot[1] += points
            slot[2] += 5.0 * points * math.log2(length) if length > 1 else 0.0
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Replace every binding of each target and the numpy.fft transforms."""
        import numpy.fft

        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "morreylab" or name.startswith("morreylab."))}
        for modname, attr, span_name in TARGETS:
            owner = mods[f"morreylab.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(getattr(cls, meth), span_name))
                continue
            fn = getattr(owner, attr)
            wrappers: dict[str, object] = {}
            for mname, mod in mods.items():
                short = mname.rpartition(".")[2]
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        site_name = SITE_NAMES.get((short, key), span_name)
                        if site_name not in wrappers:
                            wrappers[site_name] = self.wrap(fn, site_name)
                        setattr(mod, key, wrappers[site_name])
        checks = mods["morreylab.checks"]
        for key, fn in list(checks.CHECKS.items()):
            wrapped = self.wrap(fn, f"checks.{fn.__name__}")
            checks.CHECKS[key] = wrapped
            for mod in mods.values():
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, name, wrapped)
        for name in FFT_FUNCS:
            setattr(numpy.fft, name, self._wrap_fft(getattr(numpy.fft, name), name))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "sweeps": self.sweeps, "fft": self.fft}, fh)


def self_times(trace: dict) -> dict:
    """Per span name: calls, inclusive total_s and self_s.

    total_s counts a span nested in another span of the same name once
    (recursive solves), so it is the time spent inside that name.
    self_s subtracts the time covered by child spans.
    """
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i, (nid, start, end, parent) in enumerate(spans):
        row = out[names[nid]]
        row["calls"] += 1
        row["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != nid:
            p = spans[p][3]
        if p < 0:
            row["total_s"] += end - start
    return out
