"""Pseudorandom spectrum permutation and the derived bucket hash.

A parameter triple ``(sigma, a, b)`` with odd ``sigma`` defines a time-domain
reindexing plus modulation

    (P x)_i = x[sigma*(i - a) mod n] * exp(-2j*pi*sigma*b*i/n)

whose effect on the spectrum is a pure relabeling plus a unit phase:

    DFT(P x)[pi(t)] = xhat[t] * exp(-2j*pi*sigma*a*t/n),   pi(t) = sigma*(t - b) mod n.

That phase sign is fixed here once and for all (validated against the dense
DFT oracle in the test suite); estimation code must unwind it with the
conjugate factor ``exp(+2j*pi*sigma*a*t/n)``.

Mapping ``pi`` composed with rounding to the nearest multiple of ``n/B``
yields a bucket hash ``h`` and a signed in-bucket offset ``o`` with
``h(i)*(n/B) + o(i) == pi(i) (mod n)`` and ``|o| <= n/(2B)``.  Rounding is
half-up, with the top edge folded onto bucket 0.

Everything here is lazy per-index arithmetic: the permuted signal is never
materialized, so callers only ever touch the samples they ask for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import is_power_of_two

__all__ = [
    "PermutationParams",
    "random_params",
    "permuted_frequency",
    "nearest_bucket",
    "bucket_index",
    "bucket_offset",
    "permute_time_many",
]


@dataclass(frozen=True)
class PermutationParams:
    """(sigma, a, b) triple over Z_n; sigma odd, hence invertible mod n."""

    sigma: int
    a: int
    b: int
    n: int

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two, got {self.n}")
        if not (1 <= self.sigma < self.n or self.n == 1):
            raise ValueError(f"sigma must lie in [1, n), got {self.sigma}")
        if self.sigma % 2 == 0:
            raise ValueError(f"sigma must be odd, got {self.sigma}")
        if not (0 <= self.a < self.n and 0 <= self.b < self.n):
            raise ValueError("a and b must lie in [0, n)")


def random_params(rng: np.random.Generator, n: int) -> PermutationParams:
    """Draw sigma uniform over odd residues and a, b uniform over [0, n)."""
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
    sigma = int(rng.integers(0, max(n // 2, 1))) * 2 + 1
    a = int(rng.integers(0, n))
    b = int(rng.integers(0, n))
    return PermutationParams(sigma=sigma % max(n, 2), a=a, b=b, n=n)


def permuted_frequency(p: PermutationParams, i):
    """pi(i) = sigma*(i - b) mod n; a bijection on [0, n) for odd sigma."""
    idx = np.asarray(i, dtype=np.int64)
    out = (p.sigma * (idx - p.b)) % p.n
    return int(out) if np.isscalar(i) or out.ndim == 0 else out


def _check_buckets(p: PermutationParams, buckets: int) -> int:
    b = int(buckets)
    if b < 1 or p.n % b != 0:
        raise ValueError(f"bucket count {buckets} must divide n={p.n}")
    return b


def nearest_bucket(pf, w: int):
    """Half-up rounding of ``pf / w`` to an integer, not yet folded mod B."""
    return (2 * pf + w) // (2 * w)


def bucket_index(p: PermutationParams, buckets: int, i):
    """Half-up rounding of pi(i)*B/n, folded mod B into [0, B)."""
    B = _check_buckets(p, buckets)
    w = p.n // B
    pf = np.asarray(permuted_frequency(p, i), dtype=np.int64)
    h = nearest_bucket(pf, w) % B
    return int(h) if h.ndim == 0 else h


def bucket_offset(p: PermutationParams, buckets: int, i):
    """Signed residual pi(i) - round(pi(i)*B/n)*(n/B); always |o| <= n/(2B)."""
    B = _check_buckets(p, buckets)
    w = p.n // B
    pf = np.asarray(permuted_frequency(p, i), dtype=np.int64)
    o = pf - nearest_bucket(pf, w) * w
    return int(o) if o.ndim == 0 else o


def permute_time_many(x, p: PermutationParams, indices) -> np.ndarray:
    """Vectorized (P x)_i over an index array; one counted read per index."""
    t = np.asarray(indices, dtype=np.int64) % p.n
    samples = x.read_many((p.sigma * (t - p.a)) % p.n)
    sb = (p.sigma * p.b) % p.n
    phases = np.exp((-2j * np.pi / p.n) * ((sb * t) % p.n))
    return samples * phases
