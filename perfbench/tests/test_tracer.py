"""Span arithmetic, patch and restore, and absent names."""

import sys
from pathlib import Path

# The benchmark's modules and the package from the checkout's src/.
sys.path[:0] = [str(Path(__file__).resolve().parents[2] / "src"), str(Path(__file__).resolve().parents[1])]

import numpy as np
import pytest

import tracer as T
import workloads as W
from setquery import bins, core, filters, query

TINY = W.Workload("tiny", 1 << 10, 8, W.SAMPLING, "planted-sparse", 2, 2, False)


def test_self_time_arithmetic():
    spans = [
        T.Span("root", 0, -1, 0, 100),
        T.Span("a", 0, 0, 10, 40),
        T.Span("leaf", 0, 1, 15, 25),
        T.Span("b", 0, 0, 50, 70),
        T.Span("other", 1, -1, 200, 260),
        T.Span("x", 1, 4, 210, 240),  # x and y overlap: the union counts once
        T.Span("y", 1, 4, 230, 250),
    ]
    assert T.self_times(spans) == [50, 20, 10, 20, 20, 30, 20]


def test_layer_metrics_on_synthetic_tree():
    spans = [
        T.Span("filters.build_filter", -1, -1, 0, 4_000_000, {"peak_bytes": 2**20}),
        T.Span("query.set_query", 0, -1, 0, 10_000_000, {"samples": 30}),
        T.Span("filters.cache.get", 0, 1, 1_000_000, 7_000_000, {"taps": 40}),
        T.Span("filters.build_filter", 0, 2, 1_000_000, 7_000_000, {"peak_bytes": 3 * 2**20}),
        T.Span("filters.target_fft", 0, 3, 2_000_000, 3_000_000),
        T.Span("core.read_many", 0, 1, 8_000_000, 9_000_000, {"indices": 40}),
        T.Span("query.set_query", 1, -1, 20_000_000, 22_000_000, {"samples": 30}),
        T.Span("filters.cache.get", 1, 6, 20_000_000, 21_000_000, {"taps": 40}),
        T.Span("core.read_many", 1, 6, 21_000_000, 21_500_000, {"indices": 40}),
    ]
    m = T.layer_metrics(spans, 2, set())
    assert m["filters.cache.misses"] == (0.5, "count")
    assert m["filters.cache.hits"] == (0.5, "count")
    assert m["filters.build_filter.ms"] == (5.0, "ms")
    assert m["filters.build_filter.target_fft_ms"] == (0.5, "ms")
    assert m["filters.build_filter.self_ms"] == (4.5, "ms")
    assert m["filters.build_filter.peak_mb"] == (3.0, "MB")
    assert m["core.read_many.indices"] == (40.0, "count")
    assert m["core.read_many.distinct_ratio"] == (0.75, "ratio")
    # set_query self: (10 - 6 - 1) + (2 - 1 - 0.5) ms over two queries
    assert m["query.set_query.self_ms"] == (1.75, "ms")


def originals():
    return (
        query.set_query,
        query.hash_to_bins,
        bins.fft_raw,
        filters.fft_raw,
        filters.build_filter,
        filters.FilterCache.__dict__["get"],
        core.Signal.__dict__["read_many"],
    )


def test_traced_run_restores_every_original():
    before = originals()
    inputs, _, _ = W.setup(TINY, 1)
    judged = W.judge_pool(TINY, inputs, None, W.Tally())
    tr = T.Tracer()
    with tr:
        assert query.set_query is not before[0]
        tally = W.Tally()
        W.timed_loop(TINY, inputs, None, judged, 0.2, tally, tracer=tr)
    assert originals() == before
    assert tally.failed == 0 and not tr.absent
    assert {s.query for s in tr.spans} == set(range(tally.attempted))
    assert all(tr.spans[s.parent].query == s.query for s in tr.spans if s.parent >= 0)
    m = T.layer_metrics(tr.spans, tally.attempted, tr.absent)
    assert m["filters.cache.misses"] == (1.0, "count")  # a fresh cache per query
    assert m["bins.fft.points"] == (64.0, "count")
    assert m["filters.build_filter.dense_check_ms"][0] > 0


def test_absent_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(bins, "fft_raw")
    targets = T.TARGETS + (("gone.module", "no_such_module_here", "f", None),)
    inputs, _, _ = W.setup(TINY, 1)
    tr = T.Tracer(targets)
    with pytest.raises(NameError), tr:
        query.set_query(core.Signal(inputs.cases[0].values), inputs.cases[0].query_set, 0.5, 0.2)
    assert tr.absent == {"bins.fft", "gone.module"}
    assert not hasattr(bins, "fft_raw")  # nothing was put back that was not there
    m = T.layer_metrics(tr.spans, 1, tr.absent)
    assert "bins.fft.ms" not in m and "bins.fft.points" not in m
    assert "bins.hash_to_bins.self_ms" in m
    assert np.isfinite([v for v, _ in m.values()]).all()
