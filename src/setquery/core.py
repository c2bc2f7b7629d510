"""Unitary DFT machinery and the sample-counting signal oracle.

The transform convention is unitary in both directions (``1/sqrt(n)`` forward
and inverse), so Parseval holds as an equality and every scale factor in the
bucketing pipeline downstream is calibrated against it.  Indices are 0-based
and all vector lengths are powers of two.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "Signal",
    "SparseSpectrum",
    "dft_oracle",
    "inverse_dft_oracle",
    "fft",
    "inverse_fft",
    "tail_norm",
    "restrict",
    "require_power_of_two",
    "query_array",
]


def query_array(query_set, n: int) -> np.ndarray:
    """The query set as a sorted, duplicate-free int64 array inside [0, n).

    Frequencies must be integers: a float, bool or string set raises
    ``TypeError`` rather than being truncated.
    """
    S = np.asarray(list(query_set))  # list() so a Python set converts too
    if S.size == 0:
        raise ValueError("query set must be nonempty")
    if S.ndim != 1:
        raise ValueError(f"query set must be one-dimensional, got shape {S.shape}")
    if not np.issubdtype(S.dtype, np.integer):
        raise TypeError(f"query frequencies must be integers, got dtype {S.dtype}")
    S = np.unique(S.astype(np.int64))
    if S[0] < 0 or S[-1] >= n:
        raise IndexError("query frequency out of range")
    return S


def require_power_of_two(n: int) -> None:
    """Raise ``ValueError`` unless n is a positive power of two."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")


class Signal:
    """Length-n complex time-domain vector behind a sample-counting accessor.

    Reads go through :meth:`read_many`, which marks the indices it touches in
    a boolean read mask; :attr:`samples_used` is the number of marked indices
    and is the sample-complexity charge of whatever ran against the signal.
    The count only grows (multiplicity is free).  Marking is lock-protected
    so concurrent bucketing calls stay consistent.

    :meth:`session` returns a per-query view with its own mask over the same
    buffer; its reads also mark the mask of the signal it came from.

    :attr:`data` exposes the raw buffer for reference transforms and test
    oracles; it deliberately does not count, so dense ground-truth evaluation
    never pollutes the sampling ledger of the algorithm under test.
    """

    __slots__ = ("n", "_values", "_masks", "_lock")

    def __init__(self, values) -> None:
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim != 1:
            raise ValueError("signal must be one-dimensional")
        require_power_of_two(v.shape[0])
        self.n = int(v.shape[0])
        self._values = v.copy()
        self._values.setflags(write=False)
        # this signal's own mask first, then those of the signals it views
        self._masks = (np.zeros(self.n, dtype=bool),)
        self._lock = threading.Lock()

    def session(self) -> "Signal":
        """A view that counts its own reads and charges them to this signal too."""
        view = object.__new__(Signal)
        view.n, view._values, view._lock = self.n, self._values, self._lock
        view._masks = (np.zeros(self.n, dtype=bool),) + self._masks
        return view

    def read_many(self, indices) -> np.ndarray:
        """Vectorized counted read of ``x[i mod n]``; duplicates are charged once."""
        idx = np.asarray(indices, dtype=np.int64) & (self.n - 1)  # mod n; n is a power of two
        with self._lock:
            for mask in self._masks:
                mask[idx] = True
        return self._values[idx]

    @property
    def samples_used(self) -> int:
        with self._lock:
            return int(np.count_nonzero(self._masks[0]))

    @property
    def data(self) -> np.ndarray:
        """Raw read-only buffer; bypasses sample accounting (oracle use only)."""
        return self._values


class SparseSpectrum:
    """Immutable map from frequency index to complex coefficient.

    Explicit zeros are never stored, so ``len`` is the support size.  Indices
    must lie in ``[0, n)``.
    """

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries=None) -> None:
        require_power_of_two(n)
        self.n = int(n)
        self._entries: dict[int, complex] = {}
        if entries is not None:
            items = entries.items() if hasattr(entries, "items") else entries
            for i, c in items:
                i, c = int(i), complex(c)
                if not 0 <= i < self.n:
                    raise IndexError(f"frequency {i} out of range [0, {self.n})")
                if c != 0:
                    self._entries[i] = c

    def get(self, i: int) -> complex:
        return self._entries.get(int(i), 0j)

    def items(self):
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def support(self) -> np.ndarray:
        return np.array(sorted(self._entries), dtype=np.int64)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.complex128)
        for i, c in self._entries.items():
            out[i] = c
        return out

    @classmethod
    def from_dense(cls, values, tol: float = 0.0) -> "SparseSpectrum":
        v = np.asarray(values, dtype=np.complex128)
        nz = np.nonzero(np.abs(v) > tol)[0]
        return cls(v.shape[0], {int(i): v[i] for i in nz})


def _as_vector(x) -> np.ndarray:
    if isinstance(x, Signal):
        return x.data
    return np.asarray(x, dtype=np.complex128)


def dft_oracle(x) -> np.ndarray:
    """Unitary DFT by the direct O(n^2) sum; the ground truth for all tests.

    ``xhat[f] = n**-0.5 * sum_j x[j] * exp(-2j*pi*f*j/n)``.  Accepts a
    :class:`Signal` (uncounted, via :attr:`Signal.data`) or an array.
    Evaluated in row blocks to bound memory at large n.
    """
    v = _as_vector(x)
    n = v.shape[0]
    if n < 1:
        raise ValueError("empty signal")
    out = np.empty(n, dtype=np.complex128)
    j = np.arange(n, dtype=np.int64)
    roots = np.exp((-2j * np.pi / n) * np.arange(n))
    block = max(1, (1 << 18) // n)
    for f0 in range(0, n, block):
        f = np.arange(f0, min(f0 + block, n), dtype=np.int64)
        out[f0 : f0 + f.shape[0]] = roots[(f[:, None] * j[None, :]) % n] @ v
    return out / np.sqrt(n)


def inverse_dft_oracle(spectrum) -> np.ndarray:
    """Direct-sum inverse of :func:`dft_oracle` (conjugate phase, same scale)."""
    v = np.asarray(spectrum, dtype=np.complex128)
    return np.conj(dft_oracle(np.conj(v)))


def fft_raw(x, inverse: bool = False) -> np.ndarray:
    """Unnormalized transform via ``numpy.fft``.

    Forward computes ``X[f] = sum_j x[j] * exp(-2j*pi*f*j/n)``; ``inverse``
    flips the exponent sign (still unnormalized).  Rejects lengths that are
    not powers of two.
    """
    v = np.asarray(x, dtype=np.complex128)
    require_power_of_two(v.shape[0])
    return np.fft.ifft(v, norm="forward") if inverse else np.fft.fft(v)


def fft(x) -> np.ndarray:
    """Unitary FFT; agrees with :func:`dft_oracle` to ~1e-12."""
    v = _as_vector(x)
    return fft_raw(v, inverse=False) / np.sqrt(v.shape[0])


def inverse_fft(spectrum) -> np.ndarray:
    """Unitary inverse FFT."""
    v = np.asarray(spectrum, dtype=np.complex128)
    return fft_raw(v, inverse=True) / np.sqrt(v.shape[0])


def tail_norm(x, k: int) -> float:
    """l2 norm of ``x`` with its ``k`` largest-magnitude entries removed.

    This is the distance from ``x`` to its best k-sparse approximation.  Ties
    in magnitude keep the lower index (deterministic; any tie-break yields
    the same norm).
    """
    v = np.asarray(x)
    n = v.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, {n}], got {k}")
    order = np.argsort(-np.abs(v), kind="stable")
    return float(np.linalg.norm(v[order[k:]]))


def restrict(x, indices) -> np.ndarray:
    """Zero out every coordinate of ``x`` outside ``indices``."""
    v = np.asarray(x)
    out = np.zeros_like(v)
    idx = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    if idx.size:
        if idx[0] < 0 or idx[-1] >= v.shape[0]:
            raise IndexError("restriction index out of range")
        out[idx] = v[idx]
    return out
