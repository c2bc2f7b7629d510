"""Flat-window filter construction and verification.

Design notes
------------
The frequency target is a width-``(2-alpha)*n/(2B)`` box convolved with a
Gaussian whose standard deviation is sized so that the smoothed box is within
``delta/4`` of 1 across the flat region ``|i| <= (1-alpha)*n/(2B)`` and within
``delta/4`` of 0 beyond ``n/(2B)``.  The time-domain window is the inverse
unitary FFT of that target (a periodic-sinc times a Gaussian), truncated to
the shortest prefix of the offset order 0, +1, -1, +2, -2, ... whose
discarded l1 mass keeps the worst-case frequency deviation under
``delta/2``.  Such a prefix is one run, [-R, R], [-R, R+1] or all n, so a
window is its first offset and its taps.  Total worst-case deviation
between the built window's spectrum and the idealized clamped response is
therefore under ``delta``, and is re-measured exactly, at every one of the n
frequencies, by an n-point FFT before a filter is ever returned: a window
that deviates by more than ``delta`` raises instead of leaking out.  Built
and loaded filters go through the same check against the same ideal.

The idealized response ``response(i)`` is exactly 1 on the flat region,
exactly 0 at and beyond ``n/(2B)``, and the clamped smoothed-box value in the
transition band; it is even and monotone nonincreasing in ``|i|``.  These
hold by construction: every alpha in (0, 1) puts the flat radius below the
stop radius, and the transition band is clipped to [0, 1].

The bound published on the support is ``c_f * B * log(n/delta) / alpha``
(natural log) with the achieved constant ``c_f`` recorded on the filter.
"""

from __future__ import annotations

import operator
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import erfc, erfcinv

from .core import fft_raw, require_integral, require_power_of_two

__all__ = [
    "FilterPair",
    "FilterBuildError",
    "build_filter",
    "save_filter",
    "load_filter",
    "FilterCache",
]

# Support cap multiplier in units of B*log(n/delta)/alpha; generous relative
# to the ~1.2 the Gaussian construction needs, so organic builds never hit it.
SUPPORT_BUDGET_CONST = 4.0


class FilterBuildError(RuntimeError):
    """Raised when no window meets the declared properties within budget."""

    def __init__(self, message: str, achieved_leakage: float | None = None):
        super().__init__(message)
        self.achieved_leakage = achieved_leakage


def _smoothed_box(d, box_radius: float, sigma_f: float):
    """Box of radius ``box_radius`` convolved with a Gaussian, at distance ``d``."""
    scale = np.sqrt(2.0) * sigma_f
    return 0.5 * (erfc((d - box_radius) / scale) - erfc((d + box_radius) / scale))


def _shape(n: int, buckets: int, delta: float, alpha: float) -> tuple[float, float]:
    """(box_radius, sigma_f) of the smoothed box for (n, B, delta, alpha)."""
    w = n / buckets
    # Q(z) = delta/4 puts the smoothed box within delta/4 of its clamps at
    # the flat and stop edges, each alpha*w/4 away from the box edge.
    z = float(np.sqrt(2.0) * erfcinv(delta / 2.0))
    return (1.0 - alpha / 2.0) * w / 2.0, (alpha * w / 4.0) / z


def flat_edge(n: int, buckets: int, alpha: float) -> float:
    """Radius ``(1-alpha)*n/(2B)`` of the flat region; larger offsets roll off."""
    return (1.0 - alpha) * n / (2.0 * buckets)


def _check_params(n, buckets, delta, alpha) -> tuple[int, int]:
    """Validate (n, B, delta, alpha) and return n and B as ints."""
    n, B = require_integral(n, "n"), require_integral(buckets, "bucket count")
    require_power_of_two(n)
    if B < 2:
        raise ValueError(f"bucket count must be >= 2, got {buckets}")
    if n % B != 0:
        raise ValueError(f"bucket count {B} must divide n={n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return n, B


@dataclass(frozen=True)
class FilterPair:
    """Time-sparse window plus its evaluable idealized frequency response.

    The window is one run: ``taps`` are its real values at the signed time
    indices ``start``, ``start + 1``, ... (a built window's are [-R, R],
    [-R, R+1] or all n), zero elsewhere, and :func:`~setquery.bins.hash_to_bins`
    folds it from ``start`` and the tap count.  ``leakage`` is the measured
    ``max_i |DFT(G)_i - response(i)|`` over all n frequencies, NaN until then.
    Construction checks (n, B, delta, alpha); n, B and ``start`` are ints.
    """

    n: int
    buckets: int
    delta: float
    alpha: float
    start: int
    taps: np.ndarray = field(repr=False)
    leakage: float = float("nan")

    def __post_init__(self) -> None:
        n, B = _check_params(self.n, self.buckets, self.delta, self.alpha)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "buckets", B)
        object.__setattr__(self, "start", operator.index(self.start))

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.start, self.start + self.support_size)

    @property
    def support_size(self) -> int:
        return int(self.taps.shape[0])

    @property
    def support_constant(self) -> float:
        """Achieved c_f in ``support = c_f * B * log(n/delta) / alpha``."""
        return float(
            self.support_size * self.alpha / (self.buckets * np.log(self.n / self.delta))
        )

    @property
    def flat_radius(self) -> float:
        return flat_edge(self.n, self.buckets, self.alpha)

    @property
    def stop_radius(self) -> float:
        return self.n / (2.0 * self.buckets)

    def response(self, i):
        """Idealized response at frequency offset(s) ``i``, taken mod n."""
        r = np.asarray(i) % self.n
        d = np.minimum(r, self.n - r).astype(np.float64)  # distance from i to 0 mod n
        box = _smoothed_box(d, *_shape(self.n, self.buckets, self.delta, self.alpha))
        out = np.where(d <= self.flat_radius, 1.0, np.clip(box, 0.0, 1.0))
        out = np.where(d >= self.stop_radius, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def window_dense(self) -> np.ndarray:
        """Dense length-n copy of the window (verification use).

        Taps at offsets equal mod n add up, as they do in the bucketing.
        """
        return np.bincount(self.offsets % self.n, weights=self.taps, minlength=self.n)


def _verified_filter(fp: FilterPair, source: str) -> FilterPair:
    """Return ``fp`` with its leakage, checked at all n frequencies.

    :class:`FilterBuildError` is raised if the window's unitary spectrum
    deviates by more than ``delta`` anywhere from the ideal, ``fp.response``
    at the radii 0..n/2 mirrored.  ``source`` names the window in the error.
    """
    ideal = fp.response(np.arange(fp.n // 2 + 1))
    spectrum = fft_raw(fp.window_dense()) / np.sqrt(fp.n)
    leakage = float(np.max(np.abs(spectrum - np.concatenate([ideal, ideal[-2:0:-1]]))))
    if leakage > fp.delta:
        raise FilterBuildError(
            f"{source} leaks {leakage:.3e} > delta={fp.delta} for "
            f"(n={fp.n}, B={fp.buckets}, delta={fp.delta}, alpha={fp.alpha})",
            achieved_leakage=leakage,
        )
    return replace(fp, leakage=leakage)


def build_filter(n: int, buckets: int, delta: float, alpha: float) -> FilterPair:
    """Construct and verify a flat-window filter for (n, B, delta, alpha).

    The kept prefix of L taps is the run from ``-(L-1)//2``, or from -n/2
    when L = n.  Raises :class:`FilterBuildError` if the required support
    exceeds the budget ``SUPPORT_BUDGET_CONST * B * log(n/delta) / alpha`` or
    if the measured leakage ends up above ``delta``.
    """
    n, B = _check_params(n, buckets, delta, alpha)
    half = n // 2  # the target is even: the smoothed box is evaluated once per radius
    box = _smoothed_box(np.arange(half + 1.0), *_shape(n, B, delta, alpha))
    g_full = fft_raw(np.concatenate([box, box[-2:0:-1]]), inverse=True).real / np.sqrt(n)

    # l1 mass strictly outside each candidate radius bounds the truncation's
    # worst-case frequency deviation after the 1/sqrt(n) unitary scale.  The
    # target is a small fraction of delta so the measured deviation stays
    # dominated by the transition-band clamp; in the dense regime (wide
    # Gaussian, bucket width near 1) this keeps the window numerically exact
    # instead of charging the full delta budget for a handful of shaved taps.
    mags, a = np.empty(n), np.abs(g_full)  # offset +r at 2r - 1 (-n/2 is +n/2), -r at 2r
    mags[0], mags[1::2], mags[2::2] = a[0], a[1 : half + 1], a[:half:-1]
    tail_after = np.concatenate([np.cumsum(mags[::-1])[::-1][1:], [0.0]])
    ok = tail_after / np.sqrt(n) <= delta / 50.0
    cut = int(np.argmax(ok))  # smallest prefix of the radius ordering that works

    # min in float first: n/delta overflows to inf for a subnormal delta
    budget = int(min(n, np.ceil(SUPPORT_BUDGET_CONST * B * np.log(n / delta) / alpha)))
    needed = cut + 1
    if needed > budget:
        achieved = float(tail_after[budget - 1] / np.sqrt(n) + delta / 2.0)
        raise FilterBuildError(
            f"no window within support budget {budget} for "
            f"(n={n}, B={B}, delta={delta}, alpha={alpha}); "
            f"achieved leakage ~{achieved:.3e} at the budget",
            achieved_leakage=achieved,
        )

    start = -half if needed == n else -((needed - 1) // 2)
    taps = g_full[np.arange(start, start + needed)]  # a negative offset indexes from the end
    fp = FilterPair(n, B, float(delta), float(alpha), start, taps)
    return _verified_filter(fp, "constructed window")


_MAGIC = b"SQFL"


def save_filter(fp: FilterPair, path) -> None:
    """Write the filter to a little-endian binary cache file.

    Layout: 4-byte magic, then float64s: n, B, delta, alpha, followed by
    (offset, value) float64 pairs for each support tap.
    """
    header = np.array([fp.n, fp.buckets, fp.delta, fp.alpha], dtype="<f8")
    pairs = np.column_stack((fp.offsets, fp.taps)).astype("<f8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + header.tobytes() + pairs.tobytes())


def load_filter(path) -> FilterPair:
    """Read a filter written by :func:`save_filter` and re-verify it.

    A malformed header, a non-finite tap, an offset that is not an integer
    in [-n, n), or offsets that do not form one run of consecutive integers
    raise ``ValueError`` before the window is checked.  Pairs may come in any
    order; they are sorted by offset, and taps at one offset add up, as they
    do in :meth:`FilterPair.window_dense`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC or (len(raw) - 4) % 8 != 0:
        raise ValueError(f"{path} is not a filter cache file")
    values = np.frombuffer(raw, dtype="<f8", offset=4)
    if values.shape[0] < 4 or (values.shape[0] - 4) % 2 != 0:
        raise ValueError(f"{path} is truncated")
    n, B, delta, alpha = (float(v) for v in values[:4])
    n, B = _check_params(n, B, delta, alpha)
    offsets, taps = values[4:].reshape(-1, 2).T
    if not np.all(np.isfinite(taps)):
        raise ValueError(f"{path} has a non-finite tap")
    # NaN fails every comparison, and an integral offset in range casts exactly
    if not np.all((offsets == np.floor(offsets)) & (-n <= offsets) & (offsets < n)):
        raise ValueError(f"{path} has an offset that is not an integer in [-{n}, {n})")
    offsets, where = np.unique(offsets, return_inverse=True)
    start = int(offsets[0]) if offsets.size else 0
    if not np.array_equal(offsets, np.arange(start, start + offsets.size)):
        raise ValueError(f"{path}'s offsets do not form one run of consecutive integers")
    fp = FilterPair(n, B, float(delta), float(alpha), start, np.bincount(where, weights=taps))
    return _verified_filter(fp, f"cached filter at {path}")


class FilterCache:
    """Thread-safe in-memory cache of built filters keyed by parameters.

    ``hits`` and ``misses`` count :meth:`get` calls, and ``build_ns`` is the
    total time the misses spent in :func:`build_filter`.
    """

    def __init__(self) -> None:
        self._filters: dict[tuple, FilterPair] = {}
        self._lock = threading.Lock()
        self.hits = self.misses = self.build_ns = 0

    def get(self, n: int, buckets: int, delta: float, alpha: float) -> FilterPair:
        key = (require_integral(n, "n"), require_integral(buckets, "bucket count"),
               float(delta), float(alpha))
        # Building under the lock makes concurrent misses on a key build once.
        with self._lock:
            fp = self._filters.get(key)
            if fp is not None:
                self.hits += 1
                return fp
            t0 = time.perf_counter_ns()
            fp = self._filters[key] = build_filter(n, buckets, delta, alpha)
            self.build_ns += time.perf_counter_ns() - t0
            self.misses += 1
        return fp
