"""In-memory span tracing of sphfit layers, installed from outside the package.

Each traced function is replaced by a wrapper in every module namespace
that holds it (``from .x import y`` copies a binding into the importing
module, so ``solver``, ``data`` and ``harness`` each hold their own
``predict``).  A span records its layer name, start, end, parent span and
the trace id of the operation it ran under, plus an optional computed
count (matrix entries, m^3, Legendre pair terms).  Spans stay in memory
until :func:`write_jsonl`.

Self time is a span's duration minus the part of its interval covered by
its child spans; summed over every span and added to the time no span
covers, it gives back the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the parent span in the same span list
    trace_id: int
    count: float = 0.0      # computed work count, not a measurement


def _zonal_entries(spec, dot, *args, **kwargs):
    return float(getattr(dot, "size", 1))


def _predict_entries(model, points, *args, **kwargs):
    return float(len(points)) * len(model.centers)


def _eigh_m3(a, *args, **kwargs):
    return float(a.shape[-1]) ** 3


def _verify_pair_terms(point_set, t_max, *args, **kwargs):
    return float(len(point_set)) ** 2 * t_max


# (layer, defining module, attribute, computed count or None).  Several
# functions may feed one layer.
TARGETS = (
    ("kernels.zonal_value", "sphfit.kernels", "zonal_value", _zonal_entries),
    ("kernels.cross_matrix", "sphfit.kernels", "cross_matrix", None),
    ("kernels.gram", "sphfit.kernels", "gram", None),
    ("solver.fit", "sphfit.solver", "fit_sketched_multi", None),
    ("solver.fit", "sphfit.solver", "fit_sketched", None),
    ("solver.fit", "sphfit.solver", "fit_full", None),
    ("solver.eigh", "numpy.linalg", "eigh", _eigh_m3),
    ("solver.eigh", "scipy.linalg", "eigh", _eigh_m3),
    ("solver.cho_factor", "scipy.linalg", "cho_factor", None),
    ("solver.predict", "sphfit.solver", "predict", _predict_entries),
    ("solver.save_model", "sphfit.solver", "save_model", None),
    ("legendre.verify_design", "sphfit.legendre", "verify_design", _verify_pair_terms),
    ("harness.grid_search", "sphfit.harness", "grid_search", None),
    ("data.rmse", "sphfit.data", "rmse", None),
    ("data.make_dataset", "sphfit.data", "make_dataset", None),
    ("data.dataset_io", "sphfit.data", "save_dataset", None),
    ("data.dataset_io", "sphfit.data", "load_dataset", None),
    ("designs.load_design", "sphfit.designs", "load_design", None),
    ("points.load_point_file", "sphfit.points", "load_point_file", None),
    ("points.generate_spiral", "sphfit.points", "generate_spiral", None),
    ("cli.main", "sphfit.cli", "main", None),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))

# Reported per-layer metrics as (name, layer, kind).  ``calls`` counts the
# spans not nested in a span of the same layer; ``count`` and ``rate`` come
# from the computed counts above, so they are computed, not measured.
METRICS = (
    ("kernels.zonal_value.calls", "kernels.zonal_value", "calls"),
    ("kernels.zonal_value.self_s", "kernels.zonal_value", "self_s"),
    ("kernels.zonal_value.entries", "kernels.zonal_value", "count"),
    ("kernels.zonal_value.entries_per_s", "kernels.zonal_value", "rate"),
    ("kernels.cross_matrix.self_s", "kernels.cross_matrix", "self_s"),
    ("kernels.gram.self_s", "kernels.gram", "self_s"),
    ("solver.predict.calls", "solver.predict", "calls"),
    ("solver.predict.self_s", "solver.predict", "self_s"),
    ("solver.predict.entries", "solver.predict", "count"),
    ("solver.eigh.calls", "solver.eigh", "calls"),
    ("solver.eigh.self_s", "solver.eigh", "self_s"),
    ("solver.eigh.m3", "solver.eigh", "count"),
    ("solver.fit.calls", "solver.fit", "calls"),
    ("solver.fit.self_s", "solver.fit", "self_s"),
    ("solver.cho_factor.self_s", "solver.cho_factor", "self_s"),
    ("legendre.verify_design.self_s", "legendre.verify_design", "self_s"),
    ("legendre.pair_terms", "legendre.verify_design", "count"),
    ("legendre.pair_terms_per_s", "legendre.verify_design", "rate"),
    ("harness.grid_search.calls", "harness.grid_search", "calls"),
    ("harness.grid_search.self_s", "harness.grid_search", "self_s"),
    ("data.rmse.calls", "data.rmse", "calls"),
    ("data.make_dataset.self_s", "data.make_dataset", "self_s"),
    ("data.dataset_io.self_s", "data.dataset_io", "self_s"),
    ("solver.save_model.self_s", "solver.save_model", "self_s"),
    ("designs.load_design.self_s", "designs.load_design", "self_s"),
    ("points.load_point_file.self_s", "points.load_point_file", "self_s"),
    ("points.generate_spiral.self_s", "points.generate_spiral", "self_s"),
    ("cli.main.self_s", "cli.main", "self_s"),
)
KIND_UNITS = {"calls": "count", "self_s": "s", "count": "count", "rate": "1/s"}
COMPUTED = tuple(name for name, _, kind in METRICS if kind in ("count", "rate"))


class Tracer:
    """Collects spans while ``active``; wrappers only pass through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.trace_id = 0
        self.calls: dict[str, int] = {}      # wrapper ("module.attr") -> calls
        self._stack: list[int] = []

    @contextlib.contextmanager
    def operation(self):
        """Run one benchmark operation under a fresh trace id."""
        self.trace_id += 1
        yield self.trace_id

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, layer: str, key: str, fn, count=None):
        self.calls.setdefault(key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[key] += 1
            parent = self._stack[-1] if self._stack else None
            span = Span(layer, time.perf_counter(), 0.0, parent, self.trace_id,
                        count(*args, **kwargs) if count else 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
        return traced


@dataclass
class Installation:
    """Where the wrappers went, and how to put the originals back."""

    bindings: dict[str, list[str]]        # wrapper key -> ["module.name", ...]
    missing: list[str]                    # targets that no longer exist
    _undo: list[tuple[object, str, object]]

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def install(tracer: Tracer, targets=TARGETS) -> Installation:
    """Wrap every target in its defining module and in every ``sphfit``
    module that bound the same function object."""
    importlib.import_module("sphfit.cli")           # imports every submodule
    bindings: dict[str, list[str]] = {}
    missing, undo = [], []
    for layer, module_name, attr, count in targets:
        key = f"{module_name}.{attr}"
        home = importlib.import_module(module_name)
        original = getattr(home, attr, None)
        if original is None:
            missing.append(key)
            continue
        wrapper = tracer.wrap(layer, key, original, count)
        holders = [home] + [mod for name, mod in sorted(sys.modules.items())
                            if (name == "sphfit" or name.startswith("sphfit."))
                            and mod is not home]
        bindings[key] = []
        for mod in holders:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapper)
                    bindings[key].append(f"{mod.__name__}.{name}")
    return Installation(bindings, missing, undo)


def _union_length(intervals) -> float:
    total, lo_cur, hi_cur = 0.0, None, None
    for lo, hi in sorted(intervals):
        if hi_cur is not None and lo <= hi_cur:
            hi_cur = max(hi_cur, hi)
            continue
        if hi_cur is not None:
            total += hi_cur - lo_cur
        lo_cur, hi_cur = lo, hi
    if hi_cur is not None:
        total += hi_cur - lo_cur
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [(s.end - s.start) - _union_length(children.get(i, ()))
            for i, s in enumerate(spans)]


def uncovered_time(spans: list[Span], start: float, end: float) -> float:
    """Part of [start, end] that no root span covers."""
    roots = [(max(s.start, start), min(s.end, end)) for s in spans if s.parent is None]
    return (end - start) - _union_length([iv for iv in roots if iv[1] > iv[0]])


def summarize(spans: list[Span], start: float, end: float) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced pass over [start, end]."""
    selfs = self_times(spans)
    agg = {layer: {"calls": 0, "self_s": 0.0, "count": 0.0} for layer in LAYERS}
    for s, own in zip(spans, selfs):
        a = agg[s.name]
        a["self_s"] += own
        a["count"] += s.count
        if s.parent is None or spans[s.parent].name != s.name:
            a["calls"] += 1
    out = {}
    for name, layer, kind in METRICS:
        a = agg[layer]
        if kind == "rate":
            out[name] = a["count"] / a["self_s"] if a["self_s"] > 0 else 0.0
        else:
            out[name] = a[kind]
    out["trace.wall_s"] = end - start
    out["trace.uncovered_s"] = uncovered_time(spans, start, end)
    out["trace.self_sum_s"] = sum(selfs)
    out["trace.spans"] = len(spans)
    return out


def write_jsonl(path, passes: list[list[Span]]) -> None:
    """Write the spans of every pass, one JSON object per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for i, s in enumerate(spans):
                fh.write(json.dumps({
                    "pass": k, "id": i, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "trace_id": s.trace_id,
                    "count": s.count}) + "\n")
