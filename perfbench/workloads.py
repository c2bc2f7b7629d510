"""Workload table, input generation, the O(k) judge and the closed query loop.

Every workload draws a fixed pool of queries from the workload seed: a few
signals from the ``harness`` signal model, one ``superset`` query set per
signal, and one RNG per query spawned from the seed.  Pool query ``j`` runs
on signal ``j % signals`` and always restarts its own RNG, so a query gives
the same estimate every time it runs.

A run judges the whole pool once, untimed, which makes the sample counts and
pass rates a function of the seed alone.  It then loops over the pool in a
closed loop with one caller for the measured seconds, timing only the
``set_query`` call and checking every result against the judged one.
"""

from __future__ import annotations

import cmath
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from setquery import harness, query
from setquery.core import Signal, restrict
from setquery.filters import FilterCache

EPS = 0.5
QUERY_MODEL = "superset"
SAMPLING = {"gamma": 1 / 16, "const_c": 1.0, "alpha_const": 1.25, "delta": 0.2}
ACCURACY = {"gamma": 1 / 4, "const_c": 4.0, "alpha_const": 200.0, "delta": 1e-3}
# A run sets up at least this many times and for at least this long;
# setup_s is the median set-up.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    profile: dict
    signal_model: str
    signals: int  # distinct signals in the pool
    draws: int  # pool queries per signal, each with its own RNG
    warm: bool  # one FilterCache warmed in setup; else a fresh cache per query


# Pool sizes keep the spread of the pass rates across seeds inside their
# bounds while set-up stays a few seconds; README.md says why each exists.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sublinear-warm", 1 << 18, 8, SAMPLING, "planted-sparse", 4, 256, True),
        Workload("dense-warm", 1 << 14, 8, ACCURACY, "sparse-plus-gaussian", 32, 2, True),
        Workload("cold-build", 1 << 12, 8, SAMPLING, "planted-sparse", 64, 16, False),
        Workload("multi-round", 1 << 16, 32, SAMPLING, "planted-sparse", 16, 4, True),
    )
}


@dataclass(frozen=True)
class Case:
    """One signal with its query set and the sparse ground truth to judge by."""

    values: np.ndarray  # time-domain samples; each call wraps a fresh Signal
    query_set: np.ndarray
    truth: np.ndarray  # exact spectrum on query_set
    off_energy: float  # l2(xhat off S)^2
    l1sq: float  # l1(xhat)^2


@dataclass(frozen=True)
class Inputs:
    cases: list[Case]
    seeds: list[np.random.SeedSequence]  # one per pool query

    def case(self, j: int) -> Case:
        return self.cases[j % len(self.cases)]


def make_case(wl: Workload, rng: np.random.Generator) -> Case:
    planted = harness.planted_count(QUERY_MODEL, wl.k)
    x, spectrum, support = harness.generate_signal(wl.signal_model, wl.n, planted, rng)
    S = harness.build_query_set(QUERY_MODEL, support, wl.n, wl.k, rng)
    # The same expressions as harness.error_sides, paid once per signal.
    off = spectrum - restrict(spectrum, S)
    return Case(
        values=x.data,
        query_set=S,
        truth=spectrum[S],
        off_energy=float(np.linalg.norm(off) ** 2),
        l1sq=float(np.sum(np.abs(spectrum))) ** 2,
    )


def make_inputs(wl: Workload, seed: int) -> Inputs:
    signal_root, query_root = np.random.SeedSequence(seed).spawn(2)
    cases = [make_case(wl, np.random.default_rng(s)) for s in signal_root.spawn(wl.signals)]
    return Inputs(cases, query_root.spawn(wl.signals * wl.draws))


def warm_cache(wl: Workload) -> FilterCache:
    """A cache holding the filter of every round the schedule can run."""
    p = wl.profile
    schedule = query.compute_schedule(
        wl.k, EPS, p["delta"], wl.n, p["gamma"], p["const_c"], p["alpha_const"]
    )
    cache = FilterCache()
    for row in schedule.rows:
        cache.get(wl.n, row.buckets, p["delta"], row.alpha)
    return cache


def setup(wl: Workload, seed: int) -> tuple[Inputs, FilterCache | None, float]:
    """Generate the inputs and, for a warm workload, build its filters."""
    start = time.perf_counter()
    inputs = make_inputs(wl, seed)
    cache = warm_cache(wl) if wl.warm else None
    return inputs, cache, time.perf_counter() - start


def judge(estimate, case: Case, eps: float, delta: float, n: int):
    """(lhs, theorem rhs, proof rhs) of ``harness.error_sides`` in O(k)."""
    got = np.array([estimate.get(int(s)) for s in case.query_set], dtype=np.complex128)
    lhs = float(np.linalg.norm(got - case.truth) ** 2)
    rhs_theorem = eps * case.off_energy + delta * case.l1sq
    rhs_proof = eps * (case.off_energy + delta**2 * n * case.l1sq)
    return lhs, rhs_theorem, rhs_proof


def check(report, x: Signal, case: Case) -> str | None:
    """Why a returned report is wrong, or None."""
    members = set(case.query_set.tolist())
    items = list(report.estimate.items())
    if any(i not in members for i, _ in items):
        return "support outside S"
    if report.samples_used != x.samples_used:
        return "ledger mismatch"
    if not all(cmath.isfinite(v) for _, v in items):
        return "non-finite value"
    return None


def call(wl: Workload, case: Case, seed: np.random.SeedSequence, cache: FilterCache):
    """Run one query: (elapsed ns, report, failure reason).

    Only ``set_query`` is timed.  It is looked up on its module at call time,
    so a tracer that patches it sees the call.
    """
    p = wl.profile
    x = Signal(case.values)
    rng = np.random.default_rng(seed)
    start = time.perf_counter_ns()
    try:
        report = query.set_query(
            x,
            case.query_set,
            EPS,
            p["delta"],
            gamma=p["gamma"],
            const_c=p["const_c"],
            alpha_const=p["alpha_const"],
            rng=rng,
            filters=cache,
        )
    except Exception as exc:  # a query that raises is a counted failure
        return None, None, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter_ns() - start
    return elapsed, report, check(report, x, case)


def fingerprint(report) -> tuple:
    return report.samples_used, tuple(sorted(report.estimate.items()))


@dataclass
class Tally:
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # reason -> count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, reason: str) -> None:
        self.failures[reason] = self.failures.get(reason, 0) + 1


@dataclass
class Judged:
    """Quality of the whole pool, each query run once with a shared cache."""

    fingerprints: list  # per pool query; None where it failed
    samples: list[int]
    unresolved: list[int]
    theorem: list[bool]
    proof: list[bool]

    def metrics(self, k: int) -> dict:
        if not self.samples:
            return {}
        unresolved = statistics.fmean(self.unresolved)
        return {
            "samples_per_query": (statistics.fmean(self.samples), "count"),
            "samples_max": (max(self.samples), "count"),
            "unresolved_mean": (unresolved, "count"),
            "resolved_frac": (1.0 - unresolved / k, "ratio"),
            "theorem_pass_rate": (statistics.fmean(self.theorem), "ratio"),
            "proof_pass_rate": (statistics.fmean(self.proof), "ratio"),
        }


def judge_pool(wl: Workload, inputs: Inputs, cache: FilterCache | None, tally: Tally) -> Judged:
    # A cold workload's filter is a deterministic function of its key, so
    # judging with one shared cache gives the estimates a cold call gives.
    cache = FilterCache() if cache is None else cache
    delta = wl.profile["delta"]
    out = Judged([], [], [], [], [])
    for j, seed in enumerate(inputs.seeds):
        case = inputs.case(j)
        tally.attempted += 1
        _, report, reason = call(wl, case, seed, cache)
        if reason is not None:
            tally.fail(reason)
            out.fingerprints.append(None)
            continue
        lhs, rhs_theorem, rhs_proof = judge(report.estimate, case, EPS, delta, wl.n)
        out.fingerprints.append(fingerprint(report))
        out.samples.append(report.samples_used)
        out.unresolved.append(int(report.unresolved.size))
        out.theorem.append(lhs <= rhs_theorem)
        out.proof.append(lhs <= rhs_proof)
    return out


def timed_loop(
    wl: Workload,
    inputs: Inputs,
    cache: FilterCache | None,
    judged: Judged,
    seconds: float,
    tally: Tally,
    tracer=None,
) -> list[tuple[float, int]]:
    """Closed loop, one caller, over the pool for ``seconds``.

    Returns (seconds since the loop began, ns in ``set_query``) per call
    that did not fail.
    """
    timings: list[tuple[float, int]] = []
    pool = len(inputs.seeds)
    begin = time.perf_counter()
    j = 0
    while (now := time.perf_counter()) < begin + seconds:
        idx = j % pool
        filters = cache if wl.warm else FilterCache()
        if tracer is not None:
            tracer.query = j
        elapsed, report, reason = call(wl, inputs.case(idx), inputs.seeds[idx], filters)
        if tracer is not None:
            tracer.query = -1
        tally.attempted += 1
        if reason is None and fingerprint(report) != judged.fingerprints[idx]:
            reason = "output differs from the judged run"
        if reason is not None:
            tally.fail(reason)
        else:
            timings.append((now - begin, elapsed))
        j += 1
    return timings


# On a shared virtual machine the host's speed can shift by a third every
# few seconds.  One median over a run that mixes fast and slow periods jumps
# between the two, so query_ms_p50 averages the medians of short windows.
WINDOW_S = 1.0


def windows(timings: list[tuple[float, int]]) -> list[list[int]]:
    by_window: dict[int, list[int]] = {}
    for offset, ns in timings:
        by_window.setdefault(int(offset // WINDOW_S), []).append(ns)
    return list(by_window.values())


def p50_ms(timings: list[tuple[float, int]]) -> float:
    return statistics.fmean(statistics.median(w) for w in windows(timings)) / 1e6


def latency_metrics(timings: list[tuple[float, int]]) -> dict:
    if not timings:
        return {}
    ms = np.array([ns for _, ns in timings], dtype=np.float64) / 1e6
    return {
        "query_ms_p50": (p50_ms(timings), "ms"),
        "query_ms_p90": (float(np.percentile(ms, 90)), "ms"),
        "queries_per_s": (float(ms.size / (ms.sum() / 1e3)), "1/s"),
    }
