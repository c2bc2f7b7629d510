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

The shift b enters only the phase omega**(c*t), c = sigma*b mod n, never the
indices read.  So the window is read once through the b-free draw
(sigma, a, 0), and the phase is paid after the taps are folded: the filter's
offsets form one run, cut into rows at multiples of B, so tap t = r + j in
the row starting at r (a multiple of B) belongs to bin column j, and
omega**(c*t) is a row phase omega**(c*r) times a column phase omega**(c*j).
The fold is one contraction of the rows with their row phases; the column
phase acts on B values.  Per tap the call computes one index (the window is
one :class:`~setquery.core.IndexRun`, so the read's indices are one arange
reduced mod n in place, and the ledger records the run in O(1) rather than
per tap), gathers one sample and scales it by the tap; the phases cost one
:func:`~setquery.permutation.twiddle` call of ceil(L/B) + O(sqrt B)
exponents (ceil(L/B) + B for a small B), laid out once per window shape
(first offset, tap count, B) by :func:`_fold_layout`.

The running estimate zhat is subtracted exactly, with the same phase: each
support coordinate of zhat contributes to at most one bin, since the
idealized response vanishes at and beyond half a bucket width.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import IndexRun, Signal, SparseSpectrum, fft_raw
from .filters import FilterPair
from .permutation import (
    PermutationParams,
    bucket_index,
    bucket_offset,
    modulation,
    permute_time_many,
    twiddle,
)

__all__ = ["hash_to_bins"]

# Largest B whose column phase a draw computes one value per column: there a
# B-entry twiddle costs less than two progressions' broadcasts.
COLUMN_PHASE_DIRECT_MAX = 256


def hash_to_bins(
    x: Signal,
    z: SparseSpectrum | None,
    p: PermutationParams,
    fp: FilterPair,
) -> np.ndarray:
    """Return the length-B complex bin vector for one (sigma, a, b) draw.

    Reads at most ``fp.support_size`` distinct (counted) samples of ``x``,
    the ones the b-free draw (sigma, a, 0) reads; b changes no index.
    """
    n = x.n
    if fp.n != n:
        raise ValueError(f"filter built for n={fp.n}, signal has n={n}")
    if p.n != n:
        raise ValueError(f"permutation built for n={p.n}, signal has n={n}")
    if z is not None and z.n != n:
        raise ValueError(f"estimate has n={z.n}, signal has n={n}")
    B, t = fp.buckets, fp.offsets
    run, rows, width, exponents = _fold_layout(int(t[0]) if t.size else 0, t.size, B)

    phase = twiddle(n, ((p.sigma * p.b) & (n - 1)) * exponents)
    v = _contract_rows(x, p, fp, run, phase[:rows])
    _times_column_phase(v, phase[rows:], width)
    u_hat = fft_raw(v, inverse=False, out=v)  # in place: one length-B buffer

    if z is not None and len(z) > 0:
        s = z.support
        contrib = z.values * fp.response(bucket_offset(p, B, s)) * modulation(p, s)
        np.subtract.at(u_hat, bucket_index(p, B, s), contrib)
    return u_hat


@functools.lru_cache(maxsize=256)
def _fold_layout(t0: int, size: int, B: int) -> tuple[IndexRun, int, int, np.ndarray]:
    """(run, rows, width, exponents) of a window of ``size`` taps from offset t0.

    ``run`` is the offsets as one :class:`~setquery.core.IndexRun`, cut into
    ``rows`` rows at multiples of B.  ``exponents`` are every exponent a
    draw's phase needs, for one :func:`~setquery.permutation.twiddle` call:
    the row starts, then column j's for B up to ``COLUMN_PHASE_DIRECT_MAX``
    (``width`` = B), else the two progressions hi*width and lo < width with
    j = hi*width + lo, so no length-B array is made for a large B.
    """
    first = t0 % B
    if B <= COLUMN_PHASE_DIRECT_MAX:
        width, columns = B, [np.arange(B)]
    else:
        width = 1 << (B.bit_length() // 2)
        columns = [np.arange(0, B, width), np.arange(width)]
    exponents = np.concatenate([np.arange(t0 - first, t0 + size, B), *columns])
    exponents.flags.writeable = False  # shared by every window of this shape
    return IndexRun(t0, 1, size), -(-(first + size) // B), width, exponents


def _contract_rows(x: Signal, p: PermutationParams, fp: FilterPair, run: IndexRun,
                   row_phase) -> np.ndarray:
    """The window read under (sigma, a, 0), times the taps, summed over rows by phase.

    Rows are cut at multiples of B (:func:`_fold_layout`): a partial first
    row from column t0 mod B, whole rows contracted by one ``np.dot``, a
    short last row.  The read buffer is dropped on return, so at B = n no
    more than two length-n buffers are alive at once.
    """
    B = fp.buckets
    first = run.start % B
    y = permute_time_many(x, PermutationParams(p.sigma, p.a, 0, p.n), run)
    y *= fp.taps
    head = min(-first % B, y.size)  # taps before the first multiple of B
    full = (y.size - head) // B
    q = int(head > 0)  # row_phase index of the first whole row
    v = np.dot(row_phase[q : q + full], y[head : head + full * B].reshape(full, B))
    for part, column, row in ((y[:head], first, 0), (y[head + full * B :], 0, -1)):
        if part.size:  # a partial row, phased in place
            part *= row_phase[row]
            v[column : column + part.size] += part
    return v


def _times_column_phase(a: np.ndarray, factors: np.ndarray, width: int) -> None:
    """Scale a[j] by its column phase, in place.

    With ``width`` = B, ``factors[j]`` is column j's phase.  Otherwise it is
    factors[hi] * factors[B/width + lo] for j = hi*width + lo, applied as two
    broadcasts over a's rows and columns of ``width``, so no length-B factor
    array is made.
    """
    if width == a.size:
        a *= factors
        return
    grid = a.reshape(-1, width)
    grid *= factors[:-width, None]
    grid *= factors[-width:]
