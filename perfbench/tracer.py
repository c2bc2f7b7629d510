"""Spans around the package's public functions, patched from outside.

Each wrapped name is patched where its caller looks it up: ``hash_to_bins``
on ``setquery.query``, ``fft_raw`` on ``setquery.bins`` and on
``setquery.filters`` (two callers, two spans), ``read_many`` on the
``Signal`` class.  A span records its name, the query it belongs to (-1 in
set-up), its parent span, start and end, and counts taken at the boundary.
Spans stay in memory until the run writes them out.

A name that no longer exists is recorded as absent, and every metric that
needs it is left out; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np


# (span name, module, attribute path, counts(args, kwargs, result) or None)
TARGETS = (
    ("harness.generate_signal", "setquery.harness", "generate_signal", None),
    ("harness.build_query_set", "setquery.harness", "build_query_set", None),
    ("query.set_query", "setquery.query", "set_query",
     lambda a, kw, r: {"samples": r.samples_used}),
    ("query.compute_schedule", "setquery.query", "compute_schedule", None),
    ("query.estimate_values", "setquery.query", "estimate_values",
     lambda a, kw, r: {"active": len(a[2]), "resolved": int(r[1].size)}),
    ("permutation.random_params", "setquery.query", "random_params", None),
    ("permutation.bucket_index", "setquery.query", "bucket_index", None),
    ("permutation.bucket_offset", "setquery.query", "bucket_offset", None),
    ("filters.cache.get", "setquery.filters", "FilterCache.get",
     lambda a, kw, r: {"taps": r.support_size}),
    ("filters.build_filter", "setquery.filters", "build_filter", None),
    ("filters.target_fft", "setquery.filters", "fft_raw", None),
    ("filters.dense_check", "setquery.filters", "dft_oracle", None),
    ("bins.hash_to_bins", "setquery.query", "hash_to_bins",
     lambda a, kw, r: {"z_support": 0 if a[1] is None else len(a[1])}),
    ("permutation.permute_time_many", "setquery.bins", "permute_time_many", None),
    ("bins.fft", "setquery.bins", "fft_raw", lambda a, kw, r: {"points": len(a[0])}),
    ("core.read_many", "setquery.core", "Signal.read_many",
     lambda a, kw, r: {"indices": int(np.size(a[1]))}),
)
# Spans whose wrapper also records peak traced memory.
MEMORY_SPANS = {"filters.build_filter"}


@dataclass
class Span:
    name: str
    query: int
    parent: int  # index into Tracer.spans, -1 at the top
    start: int
    end: int = 0
    counts: dict | None = None


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted path, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self.query = -1
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for name, module, path, counts in self.targets:
            found = _resolve(module, path)
            if found is None:
                self.absent.add(name)
                continue
            owner, attr = found
            self._originals.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self._wrap(name, getattr(owner, attr), counts))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            if original is None:  # was inherited, not set on the owner
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.query, stack[-1] if stack else -1, 0)
            stack.append(len(spans))
            spans.append(span)
            if memory:
                tracemalloc.start()
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if memory:
                    span.counts = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover (ns)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


@dataclass
class Totals:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0
    counts: dict = field(default_factory=dict)


def totals(spans: list[Span], selfs: list[int], keep) -> dict[str, Totals]:
    """Calls, time, self time and summed counts per span name, for kept spans."""
    out: dict[str, Totals] = {}
    for i, (s, own) in enumerate(zip(spans, selfs)):
        if not keep(i, s):
            continue
        t = out.setdefault(s.name, Totals())
        t.calls += 1
        t.ns += s.end - s.start
        t.self_ns += own
        for key, value in (s.counts or {}).items():
            t.counts[key] = t.counts.get(key, 0) + value
    return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span], queries: int, absent: set[str]) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Query-path figures are per traced query.  Filter-build figures are per
    build, set-up builds included, and harness figures per call, since those
    layers work mostly in set-up.  ``peak_mb`` is the largest build's.  A
    metric that needs an absent span is left out.
    """
    selfs = self_times(spans)
    builds = {i for i, s in enumerate(spans) if s.name == "filters.build_filter"}
    in_query = totals(spans, selfs, lambda i, s: s.query >= 0)
    in_setup = totals(spans, selfs, lambda i, s: s.query < 0)
    in_build = totals(spans, selfs, lambda i, s: s.parent in builds)
    build = totals(spans, selfs, lambda i, s: i in builds).get("filters.build_filter", Totals())
    misses = len({spans[i].parent for i in builds if spans[i].query >= 0})
    q = max(queries, 1)

    def t(name: str) -> Totals:
        return in_query.get(name, Totals())

    def ms(*names: str, own: bool = False) -> float:
        return sum(t(n).self_ns if own else t(n).ns for n in names) / 1e6 / q

    def count(name: str, key: str) -> float:
        return t(name).counts.get(key, 0) / q

    def per_build(ns: int) -> float:
        return _div(ns / 1e6, build.calls)

    def per_call(name: str) -> float:
        h = in_setup.get(name, Totals())
        return _div(h.ns / 1e6, h.calls)

    rm, ev, get = "core.read_many", "query.estimate_values", "filters.cache.get"
    # name: (spans it needs, value, unit)
    defs = {
        "core.read_many.self_ms": ([rm], ms(rm, own=True), "ms"),
        "core.read_many.indices": ([rm], count(rm, "indices"), "count"),
        "core.read_many.distinct_ratio": (
            [rm, "query.set_query"],
            _div(count("query.set_query", "samples"), count(rm, "indices")),
            "ratio",
        ),
        "permutation.permute_time_many.self_ms": (
            ["permutation.permute_time_many"], ms("permutation.permute_time_many", own=True), "ms"
        ),
        "permutation.random_params.ms": (["permutation.random_params"], ms("permutation.random_params"), "ms"),
        "permutation.bucket.ms": (
            ["permutation.bucket_index", "permutation.bucket_offset"],
            ms("permutation.bucket_index", "permutation.bucket_offset"),
            "ms",
        ),
        "filters.cache.hits": ([get, "filters.build_filter"], (t(get).calls - misses) / q, "count"),
        "filters.cache.misses": ([get, "filters.build_filter"], misses / q, "count"),
        "filters.support_taps": ([get], _div(t(get).counts.get("taps", 0), t(get).calls), "count"),
        "filters.build_filter.ms": (["filters.build_filter"], per_build(build.ns), "ms"),
        "filters.build_filter.target_fft_ms": (
            ["filters.build_filter", "filters.target_fft"],
            per_build(in_build.get("filters.target_fft", Totals()).ns),
            "ms",
        ),
        "filters.build_filter.dense_check_ms": (
            ["filters.build_filter", "filters.dense_check"],
            per_build(in_build.get("filters.dense_check", Totals()).ns),
            "ms",
        ),
        "filters.build_filter.self_ms": (["filters.build_filter"], per_build(build.self_ns), "ms"),
        "filters.build_filter.peak_mb": (
            ["filters.build_filter"],
            max((spans[i].counts["peak_bytes"] for i in builds), default=0) / 2**20,
            "MB",
        ),
        "bins.hash_to_bins.self_ms": (["bins.hash_to_bins"], ms("bins.hash_to_bins", own=True), "ms"),
        "bins.fft.ms": (["bins.fft"], ms("bins.fft"), "ms"),
        "bins.fft.points": (["bins.fft"], count("bins.fft", "points"), "count"),
        "bins.z_support": (["bins.hash_to_bins"], count("bins.hash_to_bins", "z_support"), "count"),
        "query.compute_schedule.ms": (["query.compute_schedule"], ms("query.compute_schedule"), "ms"),
        "query.estimate_values.self_ms": ([ev], ms(ev, own=True), "ms"),
        "query.set_query.self_ms": (["query.set_query"], ms("query.set_query", own=True), "ms"),
        "query.rounds": ([ev], t(ev).calls / q, "count"),
        "query.resolve_ratio": ([ev], _div(count(ev, "resolved"), count(ev, "active")), "ratio"),
        "harness.generate_signal.ms": (["harness.generate_signal"], per_call("harness.generate_signal"), "ms"),
        "harness.build_query_set.ms": (["harness.build_query_set"], per_call("harness.build_query_set"), "ms"),
    }
    return {
        name: (float(value), unit)
        for name, (needs, value, unit) in defs.items()
        if absent.isdisjoint(needs)
    }
