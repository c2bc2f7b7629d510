"""Unitary DFT machinery and the sample-counting signal oracle.

The transform convention is unitary in both directions (``1/sqrt(n)`` forward
and inverse), so Parseval holds as an equality and every scale factor in the
bucketing pipeline downstream is calibrated against it.  Indices are 0-based
and all vector lengths are powers of two.
"""

from __future__ import annotations

import operator
import threading

import numpy as np

__all__ = [
    "Signal",
    "IndexRun",
    "SparseSpectrum",
    "dft_oracle",
    "inverse_dft_oracle",
    "fft",
    "inverse_fft",
    "tail_norm",
    "restrict",
    "require_power_of_two",
    "require_integral",
    "index_array",
    "query_array",
]


_INT64 = np.dtype(np.int64)
_NO_ENTRIES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.complex128))

# A ledger records at most this many runs (see IndexRun) before it marks
# them in a length-n mask; each new run is checked against every earlier one.
LEDGER_RUN_CAP = 8


def _distinct_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct entries of an ascending array, in order."""
    if a.size < 2:
        return a
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a if keep.all() else a[keep]


def index_array(indices):
    """Indices as int64: the one rule of every entry that takes indices.

    An integer array, scalar or iterable (a set, range or generator too) is
    read as int64 (an :class:`IndexRun` as its indices), and int64 input or
    a Python int is returned as it is.
    A float, bool, str or object entry raises ``TypeError`` rather than being
    truncated; empty input is an empty int64 array.
    """
    if type(indices) is int or getattr(indices, "dtype", None) is _INT64:
        return indices  # type() is int: a bool, an int subclass, is not
    a = np.asarray(indices)
    if a.dtype == object and a.ndim == 0:  # a set, generator or other iterable
        indices = list(indices)
        a = np.asarray(indices)
    if a.size and a.dtype.kind not in "iu":
        raise TypeError(f"indices must be integers, got dtype {a.dtype}")
    # numpy reads [4, True] as [4, 1]; a bool among ints shows by its type
    if isinstance(indices, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, indices)):
        raise TypeError("indices must be integers, got a bool")
    return a.astype(np.int64, copy=False)


def query_array(query_set, n: int) -> np.ndarray:
    """The query set as a sorted, duplicate-free int64 array inside [0, n).

    Frequencies follow :func:`index_array`: a float, bool or string set
    raises ``TypeError`` rather than being truncated.  An int64 array that
    is already strictly increasing and inside [0, n) is returned as it is,
    after one O(k) pass; any other set is sorted and deduplicated in a copy.
    """
    S = index_array(query_set)
    if np.ndim(S) != 1 or S.size == 0:
        raise ValueError(f"query set must be nonempty and one-dimensional: {np.shape(S)}")
    if not (S[1:] > S[:-1]).all():
        S = _distinct_sorted(np.sort(S))
    if S[0] < 0 or S[-1] >= n:
        raise IndexError("query frequency out of range")
    return S


def require_power_of_two(n: int) -> None:
    """Raise ``ValueError`` unless n is a positive power of two."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")


def require_integral(value, name: str) -> int:
    """A size such as a bucket count as an int: 8.0 is 8, 8.5 raises ``ValueError``."""
    if not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


class IndexRun:
    """The indices start + step*j for j < size: one arithmetic progression.

    A filter's window is one run of offsets, and a permuted window one run
    of indices, so :meth:`Signal.read_many` can record such a read in O(1)
    instead of sorting or marking it.  ``size`` is the number of indices,
    and ``np.asarray(run)`` gives them as int64 (congruent mod 2**64 where
    they leave the int64 range, as int64 arithmetic wraps), so code that
    does not know about runs, :func:`index_array` among it, sees the same
    indices.  ``run - a`` and ``c * run`` for an integer a or c are runs.
    """

    __slots__ = ("start", "step", "size")

    def __init__(self, start, step, size) -> None:
        self.start, self.step, self.size = map(operator.index, (start, step, size))
        if self.size < 0:
            raise ValueError(f"a run's size must be >= 0, got {self.size}")

    def __repr__(self) -> str:
        return f"IndexRun({self.start}, {self.step}, {self.size})"

    def __sub__(self, other):
        if not isinstance(other, (int, np.integer)):
            return NotImplemented  # an array operand reads the run as its indices
        return IndexRun(self.start - int(other), self.step, self.size)

    def __mul__(self, other):
        if not isinstance(other, (int, np.integer)):
            return NotImplemented
        return IndexRun(self.start * int(other), self.step * int(other), self.size)

    __rmul__ = __mul__

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        start, step, stop = self.start, self.step, self.start + self.step * self.size
        if step and max(abs(start), abs(stop)) < 1 << 62:  # one exact arange
            a = np.arange(start, stop, step, dtype=np.int64)
        else:  # wrapped into int64 first: congruent mod 2**64
            a = np.arange(self.size, dtype=np.int64)
            a *= _wrap64(step)
            a += _wrap64(start)
        return a if dtype is None else a.astype(dtype, copy=False)


def _wrap64(v: int) -> int:
    """The int64 value congruent to ``v`` mod 2**64."""
    return (v + (1 << 63)) % (1 << 64) - (1 << 63)


def _in_run(idx: np.ndarray, run: IndexRun, n: int) -> np.ndarray:
    """Whether each of ``idx`` (in [0, n)) is an index of ``run`` mod n.

    ``run`` has an odd step, so i = start + step*j mod n for exactly one j
    in [0, n), j = (i - start) * step**-1 mod n, and i is in the run iff
    that j is below its size.  The product may wrap in int64; n divides
    2**64, so the residue is exact.
    """
    return ((idx - run.start) * pow(run.step, -1, n)) & (n - 1) < run.size


def _run_overlap(run: IndexRun, runs: list[IndexRun], n: int) -> int:
    """How many indices of ``run`` some run of ``runs`` already holds.

    Every run has an odd step and a size of at most n, so its indices are
    distinct mod n.  The count goes over the smaller side: ``run``'s
    indices tested against each earlier run, or each earlier run's indices
    tested against ``run`` and against the runs before it, so an index two
    earlier runs share is counted once.
    """
    if not runs:
        return 0
    if run.size <= sum(r.size for r in runs):
        idx = np.asarray(run) & (n - 1)
        held = np.zeros(idx.size, dtype=bool)
        for r in runs:
            held |= _in_run(idx, r, n)
        return int(np.count_nonzero(held))
    shared = 0
    for i, r in enumerate(runs):
        idx = np.asarray(r) & (n - 1)
        new = _in_run(idx, run, n)
        for earlier in runs[:i]:
            new &= ~_in_run(idx, earlier, n)
        shared += int(np.count_nonzero(new))
    return shared


class _Ledger:
    """The distinct indices one reader has read, and how many there are.

    A ledger has two states.  It starts as a list ``runs`` of
    :class:`IndexRun` reads, each of distinct indices mod n, counts a new
    one by its overlap with the earlier ones (:func:`_run_overlap`), and
    holds no mask.  An array read, or a run past ``LEDGER_RUN_CAP``, marks
    every index read so far in ``mask``, a length-n bool mask counted when
    asked, and the ledger stays a mask (``runs`` is None) from then on.
    """

    __slots__ = ("n", "runs", "mask", "count")

    def __init__(self, n: int) -> None:
        self.n = n
        self.runs: list[IndexRun] | None = []
        self.mask: np.ndarray | None = None
        self.count: int | None = 0

    def add(self, idx: np.ndarray, run: IndexRun | None) -> None:
        """Record ``idx`` (in [0, n)); ``run`` is the same read as a run of
        distinct indices mod n, or None."""
        if self.runs is not None:
            if run is not None and len(self.runs) < LEDGER_RUN_CAP:
                self.count += run.size - _run_overlap(run, self.runs, self.n)
                self.runs.append(run)
                return
            runs, self.runs = self.runs, None
            self.mask = np.zeros(self.n, dtype=bool)
            if runs:
                self.mask[np.concatenate(runs, dtype=np.int64) & (self.n - 1)] = True
        self.mask[idx] = True
        self.count = None

    def size(self) -> int:
        if self.count is None:
            self.count = int(np.count_nonzero(self.mask))
        return self.count


class Signal:
    """Length-n complex time-domain vector behind a sample-counting accessor.

    Reads go through :meth:`read_many`, which records the indices it touches
    in a read ledger; :attr:`samples_used` is the number of distinct indices
    recorded and is the sample-complexity charge of whatever ran against the
    signal.  The count only grows (multiplicity is free).  A ledger records
    :class:`IndexRun` reads as runs, up to ``LEDGER_RUN_CAP`` of them,
    counting each new run's overlap with the earlier ones over the smaller
    side, so a query that reads one run per round neither sorts its reads
    nor marks a length-n mask.  An array read, or a run past the cap, marks
    a length-n bool mask, and the ledger stays a mask from then on.
    Recording is lock-protected so concurrent bucketing calls stay
    consistent.

    :meth:`session` returns a per-query view with its own ledger over the
    same buffer; its reads are also recorded in the ledger of the signal it
    came from, and each ledger in that chain records a read on its own.

    :attr:`data` exposes the raw buffer for reference transforms and test
    oracles; it deliberately does not count, so dense ground-truth evaluation
    never pollutes the sampling ledger of the algorithm under test.
    """

    __slots__ = ("n", "_values", "_ledgers", "_lock")

    def __init__(self, values) -> None:
        v = np.asarray(values, dtype=np.complex128)
        if v.ndim != 1:
            raise ValueError("signal must be one-dimensional")
        require_power_of_two(v.shape[0])
        self.n = int(v.shape[0])
        self._values = v.copy()
        self._values.setflags(write=False)
        # this signal's own ledger first, then those of the signals it views
        self._ledgers = (_Ledger(self.n),)
        self._lock = threading.Lock()

    def session(self) -> "Signal":
        """A view that counts its own reads and charges them to this signal too."""
        view = object.__new__(Signal)
        view.n, view._values, view._lock = self.n, self._values, self._lock
        view._ledgers = (_Ledger(self.n),) + self._ledgers
        return view

    def read_many(self, indices) -> np.ndarray:
        """Vectorized counted read of ``x[i mod n]``; duplicates are charged once.

        An :class:`IndexRun` with an odd step and at most n indices, which
        are then distinct mod n, is gathered through one arange and recorded
        as a run; any other input is read by :func:`index_array`, so a
        float, bool or string index raises ``TypeError`` before any ledger
        is charged.
        """
        n = self.n
        run = None
        if type(indices) is IndexRun and indices.step & 1 and indices.size <= n:
            run = IndexRun(indices.start & (n - 1), indices.step & (n - 1), indices.size)
            idx = np.asarray(run)
            idx &= n - 1  # mod n, a power of two
        else:
            idx = np.asarray(index_array(indices), np.int64) & (n - 1)
        with self._lock:
            for ledger in self._ledgers:
                ledger.add(idx, run)
        return self._values[idx]

    @property
    def samples_used(self) -> int:
        with self._lock:
            return self._ledgers[0].size()

    @property
    def data(self) -> np.ndarray:
        """Raw read-only buffer; bypasses sample accounting (oracle use only)."""
        return self._values


class SparseSpectrum:
    """Immutable sparse spectrum: coefficients on a sorted support.

    ``support`` is a read-only ascending int64 array of distinct indices in
    ``[0, n)`` and ``values`` the read-only complex128 coefficients there.
    Explicit zeros are never stored, so ``len`` is the support size.  Both
    constructors copy their input and check it the same way: a float, bool
    or string index (see :func:`index_array`) raises ``TypeError``, a
    repeated one ``ValueError`` and one outside ``[0, n)`` ``IndexError``.
    """

    __slots__ = ("n", "support", "values")

    def __init__(self, n: int, entries=()) -> None:
        """From a mapping or (index, value) pairs, split into two arrays."""
        pairs = list(entries.items() if hasattr(entries, "items") else entries)
        self._build(n, *(zip(*pairs) if pairs else _NO_ENTRIES))

    @classmethod
    def from_arrays(cls, n: int, support, values) -> "SparseSpectrum":
        """From indices in any order and their values; zeros are dropped."""
        out = object.__new__(cls)
        out._build(n, support, values)
        return out

    def _build(self, n: int, support, values) -> None:
        require_power_of_two(n)
        s = np.array(index_array(support))  # a copy: the caller's array is not frozen
        v = np.array(values, dtype=np.complex128)
        if s.ndim != 1 or s.shape != v.shape:
            raise ValueError(f"support {s.shape} and values {v.shape} must be 1-D and match")
        if s.size > 1 and not (s[1:] > s[:-1]).all():
            order = np.argsort(s, kind="stable")
            s, v = s[order], v[order]
            if (s[1:] == s[:-1]).any():
                raise ValueError("duplicate frequency in support")
        if s.size and (s[0] < 0 or s[-1] >= n):
            raise IndexError(f"frequency out of range [0, {n})")
        if s.size and not v.all():  # drop the zeros
            nonzero = v != 0
            s, v = s[nonzero], v[nonzero]
        s.setflags(write=False)
        v.setflags(write=False)
        self.n, self.support, self.values = int(n), s, v

    def get(self, i: int) -> complex:
        """The coefficient at index ``i`` (see :func:`index_array`); 0 off the support."""
        i = int(index_array(i))
        if not 0 <= i < self.n:
            return 0j
        j = int(np.searchsorted(self.support, i))
        if j < self.support.size and self.support[j] == i:
            return complex(self.values[j])
        return 0j

    def items(self) -> list[tuple[int, complex]]:
        """(index, value) pairs as Python numbers, in ascending index order."""
        return list(zip(self.support.tolist(), self.values.tolist()))

    def __len__(self) -> int:
        return int(self.support.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.n, dtype=np.complex128)
        out[self.support] = self.values
        return out

    @classmethod
    def from_dense(cls, values, tol: float = 0.0) -> "SparseSpectrum":
        v = np.asarray(values, dtype=np.complex128)
        nz = np.flatnonzero(np.abs(v) > tol)
        return cls.from_arrays(v.shape[0], nz, v[nz])


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


def fft_raw(x, inverse: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized transform via ``numpy.fft``.

    Forward computes ``X[f] = sum_j x[j] * exp(-2j*pi*f*j/n)``; ``inverse``
    flips the exponent sign (still unnormalized).  Rejects lengths that are
    not powers of two.  ``out``, a complex128 array of x's shape that may be
    x itself, receives the result in place of a new array.
    """
    v = np.asarray(x, dtype=np.complex128)
    require_power_of_two(v.shape[0])
    return np.fft.ifft(v, norm="forward", out=out) if inverse else np.fft.fft(v, out=out)


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
    idx = index_array(indices)
    if np.size(idx) and (np.min(idx) < 0 or np.max(idx) >= v.shape[0]):
        raise IndexError("restriction index out of range")
    out = np.zeros_like(v)
    out[idx] = v[idx]
    return out
