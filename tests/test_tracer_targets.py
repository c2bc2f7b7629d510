"""The benchmark tracer's wrap targets still name functions of the package.

``perfbench/tracer.py`` patches package functions by name from outside; a
rename would silently drop the per-layer metrics that need the old name,
and a changed call shape would silently change the counts those spans take.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np

from setquery.core import Signal
from setquery.filters import FilterCache
from setquery import harness, query

from conftest import complex_vector

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
BENCHMARK = ROOT / "BENCHMARK.json"
# dft_oracle left setquery.filters with the O(n^2) filter check, but the
# tracer still lists it as a target; see the FOUND line in CHANGES.md.
KNOWN_ABSENT = {"filters.dense_check"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = load_tracer()
    absent = {name for name, module, path, _ in tracer.TARGETS if tracer._resolve(module, path) is None}
    assert absent == KNOWN_ABSENT


def test_query_path_spans_carry_what_the_benchmark_reads():
    # k=4 at gamma=1/2 schedules two rounds; at this seed round 1 resolves
    # 2 of S, and round 2, whose flat radius is below one sample at B=512 so
    # the schedule takes B=n, resolves the other 2
    tracer = load_tracer()
    n, S = 1024, [3, 250, 600, 901]
    x = Signal(complex_vector(np.random.default_rng(0), n))
    with tracer.Tracer() as tr:
        # looked up on the module, where the tracer patched it
        report = query.set_query(x, S, eps=0.5, delta=1e-3, gamma=0.5, const_c=1.0,
                                 alpha_const=1.25, rng=np.random.default_rng(1),
                                 filters=FilterCache())
    rounds = [s for s in tr.spans if s.name == "query.estimate_values"]
    assert len(rounds) == len(report.iterations) == 2
    for s in rounds:
        assert s.counts["resolved"] <= s.counts["active"]
    assert sum(s.counts["resolved"] for s in rounds) + len(report.unresolved) == len(S)

    (top,) = [i for i, s in enumerate(tr.spans) if s.name == "query.set_query"]
    draws = [s for s in tr.spans if s.name == "permutation.random_params"]
    assert len(draws) == len(rounds) and all(s.parent == top for s in draws)

    # the spans whose times and counts the per-layer metrics divide per query
    # and per round: one schedule per query (memoised or not), and one draw,
    # one bucketing and one estimate per round
    names = [s.name for s in tr.spans]
    assert names.count("query.compute_schedule") == 1
    for name in ("permutation.random_params", "bins.hash_to_bins", "query.estimate_values"):
        assert names.count(name) == len(report.iterations), name
    evs = {i for i, s in enumerate(tr.spans) if s.name == "query.estimate_values"}
    assert all(s.parent in evs for s in tr.spans if s.name == "bins.hash_to_bins")


def test_traced_queries_give_every_per_layer_metric():
    # sublinear-warm's and multi-round's shapes: the sampling profile at
    # (2^18, k=8) and (2^16, k=32), superset queries on planted-sparse
    # signals; the second runs two rounds, the first subtracting nothing
    tracer = load_tracer()
    rng = np.random.default_rng(5)
    profile = {"delta": 0.2, "gamma": 1 / 16, "const_c": 1.0, "alpha_const": 1.25}
    cache = FilterCache()
    with tracer.Tracer() as tr:
        cases = []
        for n, k in ((1 << 18, 8), (1 << 16, 32)):
            # looked up on the module, where the tracer patched them
            x, _, support = harness.generate_signal("planted-sparse", n, k // 2, rng)
            cases.append((x, harness.build_query_set("superset", support, n, k, rng)))
        reports = []
        for j, (x, S) in enumerate(cases):
            tr.query = j
            reports.append(query.set_query(x, S, eps=0.5, rng=rng, filters=cache, **profile))
        tr.query = -1
    assert [len(r.iterations) for r in reports] == [1, 2]

    metrics = tracer.layer_metrics(tr.spans, len(cases), tr.absent)
    # perfbench/run.py adds the trace.* pair from its own timed loops
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    wanted = [name for name in names if not name.startswith("trace.")]
    assert [name for name in wanted if name not in metrics] == []
    assert all(math.isfinite(metrics[name][0]) for name in wanted)
    line = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    json.loads(json.dumps(line, allow_nan=False))

    # each round reads once and transforms once, B points, inside its bucketing
    rounds = [i for i, s in enumerate(tr.spans) if s.name == "bins.hash_to_bins"]
    buckets = [it.buckets for r in reports for it in r.iterations]
    assert len(rounds) == len(buckets)
    for i, B in zip(rounds, buckets):
        inside = [s for s in tr.spans if s.parent == i]
        assert [s.name for s in inside] == ["permutation.permute_time_many", "bins.fft"]
        assert inside[1].counts == {"points": B}
