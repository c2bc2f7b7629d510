"""Monte Carlo and exact checks for the randomized-hashing failure events.

Three per-coordinate events over the randomness of (sigma, b) drive the
estimation analysis:

* collision   -- another query frequency shares t's bucket,
* large offset -- |o(t)| >= (1-alpha)*n/(2B), i.e. t lands in the window
  rolloff rather than its flat region,
* large noise -- the residual energy hashed into t's bucket, excluding the
  query set, is at least Err^2(residual, k) / (alpha*B), where Err is the
  distance to the best k-sparse approximation.

Claimed bounds: Pr[collision] <= 4|S|/B, Pr[offset] <= alpha,
Pr[noise] <= 4*alpha; a coordinate with none of the three ("well isolated")
occurs with probability >= 1 - 6*alpha.  These are measured empirically with
binomial standard errors attached.

Note the offset claim is a continuum statement: offsets are integers in a
width-(n/B) window, so the discrete rate is alpha + O(B/n) and the bound is
only meaningful when n/B is large relative to 1/alpha.  Suites here size n
accordingly.

The large-noise predicate needs the full residual spectrum and bucket
preimages, so it is test-only (dense enumeration, guarded to n <= 2**14) and
never runs on the production path.  A residual of exact zeros makes both
sides of its inequality zero; that degenerate case is declared a non-event,
since the event exists to flag coordinates made unreliable by noise and zero
residual harms nothing.

Also here: exact expectation identities behind the analysis, namely
E_sign[(sum_i s_i x_i)^2] = l2(x)^2 over random signs,
E_a[|sum_i x_i w^(sigma*a*i)|^2] = l2(x)^2 with w the n-th root of unity and
odd sigma (enumerated exactly over all a), and the geometric-sum fact
mean_a[w^(a*i)] = 0 for i != 0 mod n (and 1 for i == 0 mod n, a case the
idealized statement glosses over).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import is_power_of_two, tail_norm
from .filters import flat_edge
from .permutation import (
    PermutationParams,
    bucket_index,
    bucket_offset,
    nearest_bucket,
    random_params,
)

__all__ = [
    "EventStats",
    "is_collision",
    "is_large_offset",
    "is_large_noise",
    "event_rate",
    "well_isolated_rate",
    "check_pairwise_expectation",
    "check_complex_expectation",
    "check_omega_sum",
]

_NOISE_ENUMERATION_LIMIT = 1 << 14


@dataclass(frozen=True)
class EventStats:
    """Empirical event rate with its claimed bound and binomial error."""

    trials: int
    hits: int
    bound: float

    @property
    def rate(self) -> float:
        return self.hits / self.trials

    @property
    def std_err(self) -> float:
        r = self.rate
        return float(np.sqrt(max(r * (1.0 - r), 1e-12) / self.trials))

    @property
    def within_bound(self) -> bool:
        return self.rate <= self.bound + 3.0 * self.std_err


def is_collision(t: int, query_set, p: PermutationParams, buckets: int) -> bool:
    """True iff some other element of the query set shares t's bucket."""
    S = np.asarray(sorted(int(i) for i in query_set), dtype=np.int64)
    if int(t) not in set(S.tolist()):
        raise ValueError("t must belong to the query set")
    h = bucket_index(p, buckets, S)
    ht = bucket_index(p, buckets, int(t))
    others = S != int(t)
    return bool(np.any(h[others] == ht))


def is_large_offset(t: int, p: PermutationParams, buckets: int, alpha: float) -> bool:
    """True iff |o(t)| >= (1-alpha)*n/(2B)."""
    o = bucket_offset(p, buckets, int(t))
    return bool(abs(o) >= flat_edge(p.n, buckets, alpha))


def is_large_noise(
    t: int,
    query_set,
    residual_spectrum,
    p: PermutationParams,
    buckets: int,
    alpha: float,
    k: int,
) -> bool:
    """True iff the off-set residual energy in t's bucket reaches its share.

    Compares ``l2(residual on bucket(t) minus the query set)^2`` against
    ``Err^2(residual, k) / (alpha * B)`` with the bucket preimage found by
    dense enumeration (test-only; rejects n > 2**14).
    """
    resid = np.asarray(residual_spectrum, dtype=np.complex128)
    n = resid.shape[0]
    if n > _NOISE_ENUMERATION_LIMIT:
        raise ValueError(f"noise event enumeration capped at n={_NOISE_ENUMERATION_LIMIT}")
    if n != p.n:
        raise ValueError("residual length and permutation size differ")
    h_all = bucket_index(p, buckets, np.arange(n))
    in_bucket = h_all == bucket_index(p, buckets, int(t))
    in_bucket[np.asarray(sorted(int(i) for i in query_set), dtype=np.int64)] = False
    lhs = float(np.sum(np.abs(resid[in_bucket]) ** 2))
    rhs = tail_norm(resid, k) ** 2 / (alpha * buckets)
    if rhs == 0.0:
        return False
    return lhs >= rhs


def event_rate(
    event: str,
    t: int,
    query_set,
    n: int,
    buckets: int,
    trials: int,
    rng: np.random.Generator,
    alpha: float | None = None,
    residual_spectrum=None,
    k: int | None = None,
) -> EventStats:
    """Empirical rate of a hashing event over fresh (sigma, b) draws.

    ``event`` is one of ``"collision"``, ``"offset"``, ``"noise"``; the bound
    attached is the claimed 4|S|/B, alpha, or 4*alpha respectively.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful rate")
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
    S = np.asarray(sorted(int(i) for i in query_set), dtype=np.int64)
    w = n // buckets

    sigma = rng.integers(0, max(n // 2, 1), size=trials) * 2 + 1
    b = rng.integers(0, n, size=trials)

    if event == "collision":
        pf = (sigma[:, None] * (S[None, :] - b[:, None])) % n
        h = nearest_bucket(pf, w) % buckets
        ht = h[:, S == int(t)]
        others = h[:, S != int(t)]
        hits = int(np.sum(np.any(others == ht, axis=1)))
        bound = 4.0 * S.size / buckets
    elif event == "offset":
        if alpha is None:
            raise ValueError("offset event needs alpha")
        pf = (sigma * (int(t) - b)) % n
        o = pf - nearest_bucket(pf, w) * w
        hits = int(np.sum(np.abs(o) >= flat_edge(n, buckets, alpha)))
        bound = float(alpha)
    elif event == "noise":
        if alpha is None or residual_spectrum is None or k is None:
            raise ValueError("noise event needs alpha, residual_spectrum, and k")
        resid = np.asarray(residual_spectrum, dtype=np.complex128)
        if resid.shape[0] != n:
            raise ValueError("residual length mismatch")
        if n > _NOISE_ENUMERATION_LIMIT:
            raise ValueError("noise event enumeration capped at n=2**14")
        energy = np.abs(resid) ** 2
        energy_off_S = energy.copy()
        energy_off_S[S] = 0.0
        threshold = tail_norm(resid, k) ** 2 / (alpha * buckets)
        i = np.arange(n, dtype=np.int64)
        hits = 0
        # batched over trials to bound the trials x n intermediate
        batch = max(1, (1 << 22) // n)
        for lo in range(0, trials, batch):
            sg = sigma[lo : lo + batch, None]
            bb = b[lo : lo + batch, None]
            pf = (sg * (i[None, :] - bb)) % n
            h = nearest_bucket(pf, w) % buckets
            ht = np.take_along_axis(h, np.full((sg.shape[0], 1), int(t)), axis=1)
            bucket_energy = np.sum(np.where(h == ht, energy_off_S[None, :], 0.0), axis=1)
            if threshold == 0.0:
                continue
            hits += int(np.sum(bucket_energy >= threshold))
        bound = 4.0 * float(alpha)
    else:
        raise ValueError(f"unknown event {event!r}")
    return EventStats(trials=trials, hits=hits, bound=bound)


def well_isolated_rate(
    t: int,
    query_set,
    residual_spectrum,
    n: int,
    buckets: int,
    alpha: float,
    k: int,
    trials: int,
    rng: np.random.Generator,
) -> EventStats:
    """Rate at which none of the three events holds; claimed >= 1 - 6*alpha.

    The returned stats count isolation *failures* with bound 6*alpha, so the
    usual ``within_bound`` reading applies.
    """
    resid = np.asarray(residual_spectrum, dtype=np.complex128)
    hits = 0
    for _ in range(trials):
        p = random_params(rng, n)
        bad = (
            is_collision(t, query_set, p, buckets)
            or is_large_offset(t, p, buckets, alpha)
            or is_large_noise(t, query_set, resid, p, buckets, alpha, k)
        )
        hits += int(bad)
    return EventStats(trials=trials, hits=hits, bound=6.0 * alpha)


def check_pairwise_expectation(
    x, trials: int, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Empirical E[(sum_i s_i x_i)^2] over random sign vectors vs l2(x)^2.

    Returns (empirical mean, target, standard error of the mean).
    """
    if trials < 10**4:
        raise ValueError("need at least 1e4 trials")
    v = np.asarray(x, dtype=np.float64)
    signs = rng.integers(0, 2, size=(trials, v.shape[0])) * 2 - 1
    vals = (signs @ v) ** 2
    return (
        float(np.mean(vals)),
        float(np.dot(v, v)),
        float(np.std(vals, ddof=1) / np.sqrt(trials)),
    )


def check_complex_expectation(x, sigma: int) -> tuple[float, float]:
    """Exact mean over all a of |sum_i x_i w^(sigma*a*i)|^2 vs l2(x)^2.

    Full enumeration (no sampling); requires odd sigma and n <= 2**12.
    """
    v = np.asarray(x, dtype=np.complex128)
    n = v.shape[0]
    if n > (1 << 12):
        raise ValueError("exact enumeration capped at n=2**12")
    if sigma % 2 == 0:
        raise ValueError("sigma must be odd (invertible mod n)")
    a = np.arange(n, dtype=np.int64)
    i = np.arange(n, dtype=np.int64)
    roots = np.exp((2j * np.pi / n) * np.arange(n))
    sums = roots[(sigma * a[:, None] * i[None, :]) % n] @ v
    return float(np.mean(np.abs(sums) ** 2)), float(np.vdot(v, v).real)


def check_omega_sum(n: int, i: int) -> complex:
    """(1/n) * sum_a w^(a*i): zero unless i == 0 mod n, where it is one."""
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
    a = np.arange(n, dtype=np.int64)
    return complex(np.mean(np.exp((2j * np.pi / n) * ((a * int(i)) % n))))
