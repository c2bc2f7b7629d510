"""Iterative set-query estimation loop.

The loop draws a fresh random permutation each round.  The round hashes the
residual signal into B buckets under that draw, keeps the queried
frequencies that landed alone in a bucket with a small in-bucket offset,
reads their coefficients straight off the bins, and returns the rest of the
active set as unresolved; those retry in the next round with rescheduled
(k_i, eps_i, alpha_i, B_i).  Coordinates never resolved within the
configured rounds keep estimate zero; their mass is covered by the error
guarantee.

The per-round parameters follow a geometric schedule

    k_i = k * gamma**(i-1)
    eps_i = eps * min(10*gamma, 1)**i
    alpha_i = 1 / (alpha_const * i**3)
    B_i = next power of two >= const_c * k_i / (alpha_i**2 * eps_i), clamped to n

for at most R = max(1, ceil(log_{1/gamma} k)) rounds.  The schedule ends at
its first round with B_i = n: width-1 buckets isolate every member at offset
0, so that round resolves all that are left.  The theoretical constants
(gamma=1/1000, const_c=1000, alpha_const=200) make B_1 exceed any desk-scale
n, in which case B clamps to n and bucketing degenerates to width-1 buckets:
still correct, just not sublinear; clamped rounds are flagged in the report.
Practical profiles override gamma, const_c, and alpha_const.

A round whose flat radius (1 - alpha_i) * n / (2 * B_i) is below one sample
takes B_i = n and is flagged clamped: with so narrow a flat region only
offset-0 frequencies resolve, while the window already spans all n taps.

eps_i is clamped at eps so configurations with gamma > 1/10, where the
nominal eps * (10*gamma)**i would grow (and overflow as gamma nears 1), stay
within the requested accuracy budget instead of being rejected.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import Signal, SparseSpectrum, query_array, require_power_of_two
from .bins import hash_to_bins
from .filters import FilterCache, FilterPair, flat_edge
from .permutation import (
    PermutationParams,
    bucket_index,
    bucket_offset,
    modulation,
    random_params,
)

__all__ = [
    "ScheduleRow",
    "Schedule",
    "compute_schedule",
    "estimate_values",
    "IterationStats",
    "QueryReport",
    "set_query",
]

PAPER_GAMMA = 1.0 / 1000.0
PAPER_CONST_C = 1000.0
PAPER_ALPHA_CONST = 200.0


@dataclass(frozen=True)
class ScheduleRow:
    index: int  # 1-based round number
    k_target: float
    eps: float
    alpha: float
    buckets_raw: float
    buckets: int
    clamped: bool


@dataclass(frozen=True)
class Schedule:
    rounds: int
    rows: tuple[ScheduleRow, ...]


def _next_power_of_two(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(x, 1.0))))


@functools.lru_cache(maxsize=256, typed=True)  # pure; a raise is never cached
def compute_schedule(
    k: int,
    eps: float,
    delta: float,
    n: int,
    gamma: float = PAPER_GAMMA,
    const_c: float = PAPER_CONST_C,
    alpha_const: float = PAPER_ALPHA_CONST,
) -> Schedule:
    """Geometric per-round parameter schedule; see the module docstring.

    Memoised: equal arguments of equal types return the same frozen
    :class:`Schedule` object.
    """
    require_power_of_two(n)
    if n < 2:  # no filter has fewer than 2 buckets, and B divides n
        raise ValueError(f"n must be >= 2, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if not (math.isfinite(const_c) and const_c >= 1.0):
        raise ValueError(f"const_c must be finite and >= 1, got {const_c}")
    if not (math.isfinite(alpha_const) and alpha_const > 1.0):
        raise ValueError(f"alpha_const must be finite and > 1, got {alpha_const}")

    rounds = max(1, math.ceil(math.log(k) / math.log(1.0 / gamma))) if k > 1 else 1
    rows = []
    for i in range(1, rounds + 1):
        k_i = k * gamma ** (i - 1)
        eps_i = eps * min(10.0 * gamma, 1.0) ** i
        alpha_i = 1.0 / (alpha_const * i**3)
        denom = alpha_i**2 * eps_i  # underflows to 0 for a subnormal eps or tiny alpha
        b_raw = const_c * k_i / denom if denom > 0.0 else math.inf
        b = min(max(_next_power_of_two(min(b_raw, n)), 2), n)  # clamp first: b_raw may be inf
        narrow = b < n and flat_edge(n, b, alpha_i) < 1.0  # only offset 0 would resolve
        rows.append(
            ScheduleRow(
                index=i,
                k_target=k_i,
                eps=eps_i,
                alpha=alpha_i,
                buckets_raw=b_raw,
                buckets=n if narrow else b,
                clamped=b_raw > n or narrow,
            )
        )
        if rows[-1].buckets == n:  # resolves every member still active
            break
    return Schedule(rounds=len(rows), rows=tuple(rows))


def estimate_values(
    x: Signal,
    z: SparseSpectrum | None,
    query_set,
    fp: FilterPair,
    p: PermutationParams,
) -> tuple[SparseSpectrum, np.ndarray, np.ndarray]:
    """One estimation round under the draw p: (coefficients, resolved, unresolved).

    Hashes the residual into bins under p and keeps t in the query set iff
    its bucket holds no other query frequency and its offset stays inside
    the window's flat region; the rest of the set is returned as unresolved.
    The returned spectrum is supported exactly on the resolved set; each
    value is the bin content with the permutation's modulation phase unwound.
    """
    S = query_array(query_set, x.n)
    u_hat = hash_to_bins(x, z, p, fp)

    h = bucket_index(p, fp.buckets, S)
    o = bucket_offset(p, fp.buckets, S)
    counts = np.bincount(h, minlength=fp.buckets)
    alone = counts[h] == 1
    small_offset = np.abs(o) < fp.flat_radius
    isolated = alone & small_offset
    resolved = S[isolated]

    values = u_hat[h[isolated]] * np.conj(modulation(p, resolved))
    return SparseSpectrum.from_arrays(x.n, resolved, values), resolved, S[~isolated]


@dataclass(frozen=True)
class IterationStats:
    """One round's JSONL ``iterations`` entry; its parameters are in ``schedule.rows``."""

    round: int  # 1-based, the schedule row's index
    active: int  # |S_r|
    resolved: int  # |T_r|
    buckets: int
    clamped: bool
    filter_support: int
    zeta: int  # zhat's support coordinates at a large offset (none in round 1)


@dataclass
class QueryReport:
    """Outcome of one full set query: the estimate, its charge, one record per round."""

    estimate: SparseSpectrum
    samples_used: int  # distinct samples this call read
    wall_time_ns: int
    schedule: Schedule
    iterations: list[IterationStats]
    unresolved: np.ndarray  # members of S no round resolved

    @property
    def clamped_any(self) -> bool:
        return any(it.clamped for it in self.iterations)


def set_query(
    x: Signal,
    query_set,
    eps: float,
    delta: float,
    gamma: float = PAPER_GAMMA,
    const_c: float = PAPER_CONST_C,
    alpha_const: float = PAPER_ALPHA_CONST,
    rng: np.random.Generator | None = None,
    filters: FilterCache | None = None,
) -> QueryReport:
    """Estimate the signal's spectrum on ``query_set``.

    Returns the accumulated estimate, supported on the query set, together
    with this call's distinct-sample count, timing and per-round
    diagnostics.  The estimate is a :class:`SparseSpectrum` whose sorted
    support and values are arrays; each round's resolved coefficients are
    merged in as arrays.  The count is read from the ledger of
    ``x.session()``.  Each round reads its filter's window as one run of
    indices (:class:`~setquery.core.IndexRun`), which that ledger records
    as :class:`~setquery.core.Signal` describes.  With probability at least
    9/10 over the internal randomness, its l2 error on the set is bounded by
    the query tolerance terms (the mass outside the set scaled by eps plus
    delta leakage).
    """
    t0 = time.perf_counter_ns()
    S = query_array(query_set, x.n)
    rng = np.random.default_rng() if rng is None else rng
    filters = FilterCache() if filters is None else filters

    schedule = compute_schedule(
        k=int(S.size),
        eps=eps,
        delta=delta,
        n=x.n,
        gamma=gamma,
        const_c=const_c,
        alpha_const=alpha_const,
    )

    xs = x.session()
    z = SparseSpectrum(x.n)
    active = S
    stats: list[IterationStats] = []
    for row in schedule.rows:
        if active.size == 0:
            break
        fp = filters.get(x.n, row.buckets, delta, row.alpha)
        p = random_params(rng, x.n)
        w_hat, resolved, unresolved = estimate_values(xs, z, active, fp, p)
        stats.append(
            IterationStats(
                round=row.index,
                active=int(active.size),
                resolved=int(resolved.size),
                buckets=row.buckets,
                clamped=row.clamped,
                filter_support=fp.support_size,
                zeta=0 if len(z) == 0 else int(np.sum(
                    np.abs(bucket_offset(p, fp.buckets, z.support)) >= fp.flat_radius
                )),
            )
        )
        z = w_hat if len(z) == 0 else SparseSpectrum.from_arrays(  # disjoint supports
            x.n,
            np.concatenate((z.support, w_hat.support)),
            np.concatenate((z.values, w_hat.values)),
        )
        active = unresolved

    return QueryReport(
        estimate=z,  # every round adds only resolved members of S
        samples_used=xs.samples_used,
        wall_time_ns=time.perf_counter_ns() - t0,
        schedule=schedule,
        iterations=stats,
        unresolved=active,
    )

