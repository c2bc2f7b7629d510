"""Iterative set-query estimation loop.

One round hashes the residual signal into B buckets under a fresh random
permutation, keeps the queried frequencies that landed alone in a bucket
with a small in-bucket offset, and reads their coefficients straight off the
bins.  Resolved frequencies leave the active set; unresolved ones retry in
the next round with rescheduled (k_i, eps_i, alpha_i, B_i).  Coordinates
never resolved within the configured rounds keep estimate zero; their mass
is covered by the error guarantee.

The per-round parameters follow a geometric schedule

    k_i = k * gamma**(i-1)
    eps_i = min(eps * (10*gamma)**i, eps)
    alpha_i = 1 / (alpha_const * i**3)
    B_i = next power of two >= const_c * k_i / (alpha_i**2 * eps_i), clamped to n

with R = max(1, ceil(log_{1/gamma} k)) rounds.  The theoretical constants
(gamma=1/1000, const_c=1000, alpha_const=200) make B_1 exceed any desk-scale
n, in which case B clamps to n and bucketing degenerates to width-1 buckets:
still correct, just not sublinear; clamped rounds are flagged in the report.
Practical profiles override gamma, const_c, and alpha_const.

eps_i is clamped at eps so configurations with gamma > 1/10, where the
nominal eps * (10*gamma)**i would grow, stay within the requested accuracy
budget instead of being rejected.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import Signal, SparseSpectrum, is_power_of_two, query_array
from .bins import hash_to_bins
from .filters import FilterCache, FilterPair
from .permutation import (
    PermutationParams,
    bucket_index,
    bucket_offset,
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
    n: int
    k: int
    eps: float
    delta: float
    gamma: float
    const_c: float
    alpha_const: float
    rounds: int
    rows: tuple[ScheduleRow, ...]


def _next_power_of_two(x: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(x, 1.0))))


def compute_schedule(
    k: int,
    eps: float,
    delta: float,
    n: int,
    gamma: float = PAPER_GAMMA,
    const_c: float = PAPER_CONST_C,
    alpha_const: float = PAPER_ALPHA_CONST,
) -> Schedule:
    """Geometric per-round parameter schedule; see the module docstring."""
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
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
        eps_i = min(eps * (10.0 * gamma) ** i, eps)
        alpha_i = 1.0 / (alpha_const * i**3)
        b_raw = const_c * k_i / (alpha_i**2 * eps_i)
        b = min(max(_next_power_of_two(b_raw), 2), n)
        rows.append(
            ScheduleRow(
                index=i,
                k_target=k_i,
                eps=eps_i,
                alpha=alpha_i,
                buckets_raw=b_raw,
                buckets=b,
                clamped=b_raw > n,
            )
        )
    return Schedule(
        n=n,
        k=k,
        eps=eps,
        delta=delta,
        gamma=gamma,
        const_c=const_c,
        alpha_const=alpha_const,
        rounds=rounds,
        rows=tuple(rows),
    )


def estimate_values(
    x: Signal,
    z: SparseSpectrum | None,
    query_set,
    fp: FilterPair,
    rng: np.random.Generator,
) -> tuple[SparseSpectrum, np.ndarray, PermutationParams, np.ndarray]:
    """One estimation round: (coefficients, resolved set, params, bins).

    Draws a fresh (sigma, a, b), hashes the residual into bins, and keeps
    t in the query set iff its bucket holds no other query frequency and its
    offset stays inside the window's flat region.  The returned spectrum is
    supported exactly on the resolved set; each value is the bin content with
    the permutation's modulation phase unwound.
    """
    S = query_array(query_set, x.n)
    p = random_params(rng, x.n)
    u_hat = hash_to_bins(x, z, p, fp)

    h = bucket_index(p, fp.buckets, S)
    o = bucket_offset(p, fp.buckets, S)
    counts = np.bincount(h, minlength=fp.buckets)
    alone = counts[h] == 1
    small_offset = np.abs(o) < fp.flat_radius
    resolved = S[alone & small_offset]

    sa = (p.sigma * p.a) % x.n
    phases = np.exp((2j * np.pi / x.n) * ((sa * resolved) % x.n))
    values = u_hat[h[alone & small_offset]] * phases
    w_hat = SparseSpectrum(x.n, dict(zip(resolved.tolist(), values.tolist())))
    return w_hat, resolved, p, u_hat


@dataclass(frozen=True)
class IterationStats:
    index: int
    active: int  # |S_i|
    resolved: int  # |T_i|
    buckets: int
    buckets_raw: float
    clamped: bool
    alpha: float
    eps: float
    filter_support: int
    bins_norm: float
    estimate_large_offsets: int  # support of zhat hit by a large offset


@dataclass
class QueryReport:
    """Outcome of one full set query."""

    estimate: SparseSpectrum
    samples_used: int  # distinct samples this call read
    wall_time_ns: int
    schedule: Schedule
    iterations: list[IterationStats] = field(default_factory=list)
    unresolved: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))

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

    Returns the accumulated estimate restricted to the query set together
    with this call's distinct-sample count (read through ``x.session()``),
    timing and per-round diagnostics.  With probability at least 9/10 over
    the internal randomness, its l2 error on the set is bounded by the query
    tolerance terms (the mass outside the set scaled by eps plus delta leakage).
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
        w_hat, resolved, p, u_hat = estimate_values(xs, z, active, fp, rng)
        zeta = _large_offset_count(z, p, fp)
        z = z.plus(w_hat)
        active = np.setdiff1d(active, resolved, assume_unique=True)
        stats.append(
            IterationStats(
                index=row.index,
                active=int(resolved.size + active.size),
                resolved=int(resolved.size),
                buckets=row.buckets,
                buckets_raw=row.buckets_raw,
                clamped=row.clamped,
                alpha=row.alpha,
                eps=row.eps,
                filter_support=fp.support_size,
                bins_norm=float(np.linalg.norm(u_hat)),
                estimate_large_offsets=zeta,
            )
        )

    estimate = z.restricted(S)
    assert set(int(i) for i, _ in estimate.items()) <= set(S.tolist())
    return QueryReport(
        estimate=estimate,
        samples_used=xs.samples_used,
        wall_time_ns=time.perf_counter_ns() - t0,
        schedule=schedule,
        iterations=stats,
        unresolved=active,
    )


def _large_offset_count(z: SparseSpectrum, p: PermutationParams, fp: FilterPair) -> int:
    """Count of zhat support coordinates hit by a large offset this round."""
    support = z.support
    if support.size == 0:
        return 0
    offs = bucket_offset(p, fp.buckets, support)
    return int(np.sum(np.abs(offs) >= fp.flat_radius))
