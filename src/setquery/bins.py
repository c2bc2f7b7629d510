"""Bucket the permuted, windowed signal into B frequency bins.

The bin vector is the permuted spectrum seen through the flat window,
subsampled at the B bucket centers:

    u[j] ~= sum_{h(i)=j} (xhat - zhat)[i] * response(-o(i)) * modulation(p, i)

up to ``delta * l1(xhat)`` per bin, with ``modulation(p, i)`` the
permutation's phase ``exp(-2j*pi*sigma*a*i/n)`` from
:func:`~setquery.permutation.modulation`.  Subsampling the spectrum of the
windowed product at stride n/B equals aliasing the time-domain product into B
samples and taking a B-point transform, which is what keeps the whole call at
O(|supp(G)| + B log B) instead of an n-point transform.  Under the unitary
signal convention the correct bin scale comes from the *unnormalized*
B-point FFT of the folded product; that factor is pinned by an oracle
calibration test at n=64.

The running estimate zhat is subtracted exactly, with the same phase: each
support coordinate of zhat contributes to at most one bin, since the
idealized response vanishes at and beyond half a bucket width.

Per tap the call does a few integer operations, one counted read, and one
phase looked up by :func:`~setquery.permutation.twiddle`.  The bin each tap
folds into is the filter's :attr:`~setquery.filters.FilterPair.tap_bins`,
computed once per filter.
"""

from __future__ import annotations

import numpy as np

from .core import Signal, SparseSpectrum, fft_raw
from .filters import FilterPair
from .permutation import (
    PermutationParams,
    bucket_index,
    bucket_offset,
    modulation,
    permute_time_many,
)

__all__ = ["hash_to_bins"]


def hash_to_bins(
    x: Signal,
    z: SparseSpectrum | None,
    p: PermutationParams,
    fp: FilterPair,
) -> np.ndarray:
    """Return the length-B complex bin vector for one (sigma, a, b) draw.

    Reads at most ``fp.support_size`` distinct (counted) samples of ``x``.
    """
    n = x.n
    if fp.n != n:
        raise ValueError(f"filter built for n={fp.n}, signal has n={n}")
    if p.n != n:
        raise ValueError(f"permutation built for n={p.n}, signal has n={n}")
    if z is not None and z.n != n:
        raise ValueError(f"estimate has n={z.n}, signal has n={n}")
    B = fp.buckets

    y = fp.taps * permute_time_many(x, p, fp.offsets)

    u_hat = fft_raw(_bin_sums(fp.tap_bins, y, B), inverse=False)

    if z is not None and len(z) > 0:
        s = z.support
        contrib = z.values * fp.response(bucket_offset(p, B, s)) * modulation(p, s)
        u_hat -= _bin_sums(bucket_index(p, B, s), contrib, B)
    return u_hat


def _bin_sums(bins: np.ndarray, values: np.ndarray, B: int) -> np.ndarray:
    """Length-B complex vector of the sums of ``values`` falling in each bin."""
    return np.bincount(bins, weights=values.real, minlength=B) + 1j * np.bincount(
        bins, weights=values.imag, minlength=B
    )
