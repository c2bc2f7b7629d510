"""Pseudorandom spectrum permutation and the derived bucket hash.

A parameter triple ``(sigma, a, b)`` with odd ``sigma`` defines a time-domain
reindexing plus modulation

    (P x)_i = x[sigma*(i - a) mod n] * exp(-2j*pi*sigma*b*i/n)

whose effect on the spectrum is a pure relabeling plus a unit phase:

    DFT(P x)[pi(t)] = xhat[t] * exp(-2j*pi*sigma*a*t/n),   pi(t) = sigma*(t - b) mod n.

That phase sign is fixed here once and for all (validated against the dense
DFT oracle in the test suite): :func:`modulation` returns it, and estimation
code unwinds it by multiplying with its conjugate.  Every such phase is an
n-th root of unity, read by :func:`twiddle` from two shared O(sqrt n) tables
rather than recomputed per index.

Mapping ``pi`` composed with rounding to the nearest multiple of ``n/B``
yields a bucket hash ``h`` and a signed in-bucket offset ``o`` with
``h(i)*(n/B) + o(i) == pi(i) (mod n)`` and ``|o| <= n/(2B)``.  Rounding is
half-up, with the top edge folded onto bucket 0.

Everything here is lazy per-index arithmetic, table lookups and power-of-two
masks: the permuted signal is never materialized, so callers only ever touch
the samples they ask for.  Indices, exponents and the draw's fields are read
by :func:`~setquery.core.index_array` (a float, bool or string raises
``TypeError``), a bucket count by :func:`~setquery.core.require_integral`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import IndexRun, index_array, require_integral, require_power_of_two

__all__ = [
    "PermutationParams",
    "random_params",
    "permuted_frequency",
    "bucket_index",
    "bucket_offset",
    "permute_time_many",
    "twiddle",
    "modulation",
]


@dataclass(frozen=True)
class PermutationParams:
    """(sigma, a, b) triple over Z_n; sigma odd, hence invertible mod n.

    The fields may also be integer arrays of one broadcast shape, a batch of
    draws: the functions below then broadcast the batch shape against the
    index shape, so ``sigma[:, None]`` with indices of shape ``(k,)`` gives
    one row of k results per draw.
    """

    sigma: int | np.ndarray
    a: int | np.ndarray
    b: int | np.ndarray
    n: int

    def __post_init__(self) -> None:
        if not type(self.sigma) is type(self.a) is type(self.b) is int:  # one draw skips numpy
            for name in ("sigma", "a", "b"):
                object.__setattr__(self, name, index_array(getattr(self, name)))
        s, n = self.sigma, self.n
        require_power_of_two(n)
        if not (_every((1 <= s) & (s < n)) or n == 1):
            raise ValueError(f"sigma must lie in [1, n), got {s}")
        if not _every(s % 2 == 1):
            raise ValueError(f"sigma must be odd, got {s}")
        if not _every((0 <= self.a) & (self.a < n) & (0 <= self.b) & (self.b < n)):
            raise ValueError("a and b must lie in [0, n)")


def _every(cond) -> bool:
    """True iff a condition holds for every draw; a single draw skips numpy."""
    return cond is True or bool(np.asarray(cond).all())


def random_params(rng: np.random.Generator, n: int) -> PermutationParams:
    """Draw sigma uniform over odd residues and a, b uniform over [0, n)."""
    sigma = int(rng.integers(0, max(n // 2, 1))) * 2 + 1
    a = int(rng.integers(0, n))
    b = int(rng.integers(0, n))
    return PermutationParams(sigma=sigma, a=a, b=b, n=n)


def permuted_frequency(p: PermutationParams, i):
    """pi(i) = sigma*(i - b) mod n; a bijection on [0, n) for odd sigma."""
    out = (p.sigma * (index_array(i) - p.b)) % p.n
    return int(out) if np.ndim(out) == 0 else out


def _check_buckets(p: PermutationParams, buckets: int) -> int:
    B = require_integral(buckets, "bucket count")
    if B < 1 or p.n % B != 0:
        raise ValueError(f"bucket count {buckets} must divide n={p.n}")
    return B


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


@functools.lru_cache(maxsize=64)  # one entry per power of two up to 2**63
def _root_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(omega_n**(hi*L), omega_n**lo) for hi < n/L and lo < L = 2**ceil(log2(n)/2)."""
    require_power_of_two(n)
    h = n.bit_length() // 2
    hi = np.exp((-2j * np.pi / n) * (np.arange(n >> h, dtype=np.int64) << h))
    lo = np.exp((-2j * np.pi / n) * np.arange(1 << h, dtype=np.int64))
    hi.setflags(write=False)
    lo.setflags(write=False)
    return hi, lo


def twiddle(n: int, e) -> np.ndarray:
    """omega_n**e = exp(-2j*pi*e/n) for an integer exponent array, taken mod n.

    The exponent splits as e = hi*L + lo with L = 2**ceil(log2(n)/2), so two
    cached tables of at most L entries each stand in for a per-element exp.
    """
    hi, lo = _root_tables(n)
    e = index_array(e) & (n - 1)
    return hi[e >> (lo.size.bit_length() - 1)] * lo[e & (lo.size - 1)]


def modulation(p: PermutationParams, t) -> np.ndarray:
    """exp(-2j*pi*sigma*a*t/n), the phase ``xhat[t]`` carries to ``DFT(P x)[pi(t)]``."""
    return twiddle(p.n, ((p.sigma * p.a) & (p.n - 1)) * index_array(t))


def permute_time_many(x, p: PermutationParams, indices) -> np.ndarray:
    """Vectorized (P x)_i over an index array; one counted read per index.

    For one draw, an :class:`~setquery.core.IndexRun` of indices t stays
    one: the read sigma*(t - a) is then a run too, which the signal records
    in O(1).  A
    draw whose sigma*b is 0 mod n returns the samples as read, since its
    phase omega**0 is exactly 1.
    """
    t = indices if type(indices) is IndexRun else index_array(indices)
    samples = x.read_many(p.sigma * (t - p.a))
    c = (p.sigma * p.b) & (p.n - 1)
    if type(c) is int and c == 0:
        return samples
    return samples * twiddle(p.n, c * t)
