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
occurs with probability >= 1 - 6*alpha.  Each event is defined once, by its
``is_*`` predicate on the package's own bucket hash; given a batch of draws
a predicate returns one boolean per draw, and each Monte Carlo rate is the
mean of its predicate over batches of draws, with binomial standard errors
attached.

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
from functools import partial

import numpy as np

from .core import is_power_of_two, query_array, tail_norm
from .filters import flat_edge
from .permutation import PermutationParams, bucket_index, bucket_offset

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


def is_collision(t: int, query_set, p: PermutationParams, buckets: int):
    """True iff some other element of the query set shares t's bucket.

    One boolean per draw when ``p`` holds a batch of draws.
    """
    S, (t,) = query_array(query_set, p.n), query_array([t], p.n)
    if t not in S:
        raise ValueError("t must belong to the query set")
    h = bucket_index(p, buckets, S)
    ht = bucket_index(p, buckets, [t])
    return np.any(h[..., S != t] == ht, axis=-1)


def is_large_offset(t: int, p: PermutationParams, buckets: int, alpha: float):
    """True iff |o(t)| >= (1-alpha)*n/(2B); one boolean per draw."""
    o = bucket_offset(p, buckets, query_array([t], p.n))
    return np.any(np.abs(o) >= flat_edge(p.n, buckets, alpha), axis=-1)


def is_large_noise(
    t: int,
    query_set,
    residual_spectrum,
    p: PermutationParams,
    buckets: int,
    alpha: float,
    k: int,
):
    """True iff the off-set residual energy in t's bucket reaches its share.

    Compares ``l2(residual on bucket(t) minus the query set)^2`` against
    ``Err^2(residual, k) / (alpha * B)`` with the bucket preimage found by
    dense enumeration (test-only; rejects n > 2**14).  One boolean per draw.
    """
    resid = np.asarray(residual_spectrum, dtype=np.complex128)
    n = resid.shape[0]
    if n > _NOISE_ENUMERATION_LIMIT:
        raise ValueError(f"noise event enumeration capped at n={_NOISE_ENUMERATION_LIMIT}")
    if n != p.n:
        raise ValueError("residual length and permutation size differ")
    energy = np.abs(resid) ** 2
    energy[query_array(query_set, n)] = 0.0
    h = bucket_index(p, buckets, np.arange(n))
    ht = bucket_index(p, buckets, query_array([t], n))
    lhs = np.sum(np.where(h == ht, energy, 0.0), axis=-1)
    rhs = tail_norm(resid, k) ** 2 / (alpha * buckets)
    return (lhs >= rhs) & (rhs > 0.0)


def _batched_rate(
    happens, n: int, trials: int, rng: np.random.Generator, bound: float
) -> EventStats:
    """Count the draws where ``happens(p)`` holds over fresh (sigma, b) draws.

    ``happens`` takes a batch of draws and returns one boolean per draw.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful rate")
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
    sigma = rng.integers(0, max(n // 2, 1), size=trials) * 2 + 1
    b = rng.integers(0, n, size=trials)
    hits = 0
    # batched over trials to bound the draws x indices intermediates
    batch = max(1, (1 << 22) // n)
    for lo in range(0, trials, batch):
        p = PermutationParams(sigma[lo : lo + batch, None], 0, b[lo : lo + batch, None], n)
        hits += int(np.count_nonzero(happens(p=p)))
    return EventStats(trials=trials, hits=hits, bound=bound)


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
    attached is the claimed 4|S|/B, alpha, or 4*alpha respectively.  The rate
    is the mean of the event's ``is_*`` predicate over batches of draws.
    """
    S = query_array(query_set, n)
    if event == "collision":
        happens = partial(is_collision, t, S, buckets=buckets)
        bound = 4.0 * S.size / buckets
    elif event == "offset":
        if alpha is None:
            raise ValueError("offset event needs alpha")
        happens = partial(is_large_offset, t, buckets=buckets, alpha=alpha)
        bound = float(alpha)
    elif event == "noise":
        if alpha is None or residual_spectrum is None or k is None:
            raise ValueError("noise event needs alpha, residual_spectrum, and k")
        happens = partial(
            is_large_noise, t, S, residual_spectrum, buckets=buckets, alpha=alpha, k=k
        )
        bound = 4.0 * float(alpha)
    else:
        raise ValueError(f"unknown event {event!r}")
    return _batched_rate(happens, n, trials, rng, bound)


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

    def fails(p: PermutationParams):
        return (
            is_collision(t, query_set, p, buckets)
            | is_large_offset(t, p, buckets, alpha)
            | is_large_noise(t, query_set, residual_spectrum, p, buckets, alpha, k)
        )

    return _batched_rate(fails, n, trials, rng, 6.0 * alpha)


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
