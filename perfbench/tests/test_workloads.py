"""Inputs, the O(k) judge and failure counting, on small workloads."""

import sys
from pathlib import Path

# The benchmark's modules and the package from the checkout's src/.
sys.path[:0] = [str(Path(__file__).resolve().parents[2] / "src"), str(Path(__file__).resolve().parents[1])]

import dataclasses

import numpy as np
import pytest

import workloads as W
from setquery import harness, query
from setquery.core import SparseSpectrum

SMALL = W.Workload("small", 1 << 10, 8, W.SAMPLING, "planted-sparse", 3, 4, True)


def run_pool(wl=SMALL, seed=7):
    inputs, cache, _ = W.setup(wl, seed)
    tally = W.Tally()
    return W.judge_pool(wl, inputs, cache, tally), tally, inputs, cache


def same_inputs(a: W.Inputs, b: W.Inputs) -> bool:
    return (
        all(
            np.array_equal(x.values, y.values)
            and np.array_equal(x.query_set, y.query_set)
            and x.off_energy == y.off_energy
            and x.l1sq == y.l1sq
            for x, y in zip(a.cases, b.cases, strict=True)
        )
        and [s.entropy for s in a.seeds] == [s.entropy for s in b.seeds]
        and all(
            np.array_equal(s.generate_state(4), t.generate_state(4))
            for s, t in zip(a.seeds, b.seeds, strict=True)
        )
    )


def test_seed_fixes_inputs():
    assert same_inputs(W.make_inputs(SMALL, 3), W.make_inputs(SMALL, 3))
    assert not same_inputs(W.make_inputs(SMALL, 3), W.make_inputs(SMALL, 4))


def test_quality_repeats_exactly():
    first, tally, _, _ = run_pool()
    second, _, _, _ = run_pool()
    assert tally.failed == 0
    assert first.metrics(SMALL.k) == second.metrics(SMALL.k)
    assert first.fingerprints == second.fingerprints


@pytest.mark.parametrize("model", harness.SIGNAL_MODELS)
def test_judge_matches_error_sides(model):
    wl = dataclasses.replace(SMALL, signal_model=model)
    eps, delta = W.EPS, wl.profile["delta"]
    for i in range(6):
        case = W.make_case(wl, np.random.default_rng(i))
        x, spectrum, _ = harness.generate_signal(
            model, wl.n, harness.planted_count(W.QUERY_MODEL, wl.k), np.random.default_rng(i)
        )
        assert np.array_equal(x.data, case.values)
        _, report, reason = W.call(wl, case, np.random.SeedSequence(i), W.warm_cache(wl))
        assert reason is None
        # A noisy estimate as well, so the lhs is never trivially zero.
        noisy = SparseSpectrum(wl.n, {int(s): 0.1 + 0.2j * s for s in case.query_set[::2]})
        for est in (report.estimate, noisy):
            lhs, rhs_t, rhs_p = W.judge(est, case, eps, delta, wl.n)
            ref = harness.error_sides(est.to_dense(), spectrum, case.query_set, eps, delta)
            assert (rhs_t, rhs_p) == ref[1:]
            assert lhs == pytest.approx(ref[0], rel=1e-12, abs=1e-300)
            assert (lhs <= rhs_t, lhs <= rhs_p) == (ref[0] <= ref[1], ref[0] <= ref[2])


def faulty(kind):
    real = query.set_query

    def fake(x, query_set, *args, **kwargs):
        if kind == "raise":
            raise RuntimeError("injected")
        report = real(x, query_set, *args, **kwargs)
        if kind == "outside":
            outside = int(np.setdiff1d(np.arange(x.n), query_set)[0])
            return dataclasses.replace(report, estimate=SparseSpectrum(x.n, {outside: 1.0}))
        if kind == "ledger":
            return dataclasses.replace(report, samples_used=report.samples_used + 1)
        return dataclasses.replace(report, estimate=SparseSpectrum(x.n, {int(query_set[0]): complex("nan")}))

    return fake


@pytest.mark.parametrize(
    "kind, reason",
    [
        ("raise", "raised RuntimeError: injected"),
        ("outside", "support outside S"),
        ("ledger", "ledger mismatch"),
        ("nan", "non-finite value"),
    ],
)
def test_failures_are_counted(monkeypatch, kind, reason):
    _, _, inputs, cache = run_pool()
    judged = W.judge_pool(SMALL, inputs, cache, W.Tally())
    monkeypatch.setattr(query, "set_query", faulty(kind))

    tally = W.Tally()
    bad = W.judge_pool(SMALL, inputs, cache, tally)
    assert tally.failures == {reason: len(inputs.seeds)} and bad.samples == []
    timings = W.timed_loop(SMALL, inputs, cache, judged, 0.05, tally)
    assert timings == [] and tally.failed == tally.attempted > len(inputs.seeds)


def test_changed_output_is_counted(monkeypatch):
    judged, _, inputs, cache = run_pool()
    judged.fingerprints[0] = (-1, ())
    tally = W.Tally()
    timings = W.timed_loop(SMALL, inputs, cache, judged, 0.05, tally)
    assert tally.failures["output differs from the judged run"] >= 1
    assert len(timings) == tally.attempted - tally.failed


def test_p50_averages_window_medians():
    timings = [(0.1, 1_000_000), (0.5, 3_000_000), (0.9, 2_000_000), (1.2, 10_000_000)]
    assert W.p50_ms(timings) == 6.0  # (2 + 10) / 2
