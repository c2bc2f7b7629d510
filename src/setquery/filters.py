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
``delta/2``, so the kept offsets are [-R, R], [-R, R+1] or all n.  Total
worst-case deviation between the built window's spectrum and the idealized
clamped response is therefore under ``delta``, and is re-measured exactly,
at every one of the n frequencies, by an n-point FFT before a filter is ever
returned: a window that deviates by more than ``delta`` raises instead of
leaking out.  Built and loaded filters go through the same construction and
check.

The idealized response ``response(i)`` is exactly 1 on the flat region,
exactly 0 at and beyond ``n/(2B)``, and the clamped smoothed-box value in the
transition band; it is even and monotone nonincreasing in ``|i|``.  These
hold by construction: every alpha in (0, 1) puts the flat radius below the
stop radius, and the transition band is clipped to [0, 1].

The bound published on the support is ``c_f * B * log(n/delta) / alpha``
(natural log) with the achieved constant ``c_f`` recorded on the filter.
"""

from __future__ import annotations

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


def _signed_offset(i, n: int):
    """Representative of ``i mod n`` in ``[-n/2, n/2)``."""
    return ((i + n // 2) % n) - n // 2


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

    ``offsets`` are one run of consecutive signed time indices, ascending
    (a built window's are [-R, R], [-R, R+1] or all n), and ``taps`` the real
    window values there; the window is zero elsewhere.  The fold of
    :func:`~setquery.bins.hash_to_bins` relies on the run.  ``leakage`` is the
    measured ``max_i |DFT(G)_i - response(i)|`` over all n frequencies, NaN
    until then.
    """

    n: int
    buckets: int
    delta: float
    alpha: float
    offsets: np.ndarray = field(repr=False)
    taps: np.ndarray = field(repr=False)
    leakage: float = float("nan")

    def __post_init__(self) -> None:
        if not (np.diff(self.offsets) == 1).all():
            raise ValueError("a filter's offsets must form one run of consecutive integers")

    @property
    def support_size(self) -> int:
        return int(self.offsets.shape[0])

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
        d = np.abs(_signed_offset(np.asarray(i), self.n)).astype(np.float64)
        box = _smoothed_box(d, *_shape(self.n, self.buckets, self.delta, self.alpha))
        out = self._clamp(box, d)
        return float(out) if out.ndim == 0 else out

    def _clamp(self, box, d):
        """Response at ``d``: 1 on the flat region, 0 from n/(2B), clipped ``box`` between."""
        out = np.where(d <= self.flat_radius, 1.0, np.clip(box, 0.0, 1.0))
        return np.where(d >= self.stop_radius, 0.0, out)

    def window_dense(self) -> np.ndarray:
        """Dense length-n copy of the window (verification use).

        Taps at offsets equal mod n add up, as they do in the bucketing.
        """
        return np.bincount(self.offsets % self.n, weights=self.taps, minlength=self.n)


def _verified_filter(fp: FilterPair, ideal: np.ndarray, source: str) -> FilterPair:
    """Return ``fp`` with its leakage, checked at all n frequencies.

    ``ideal`` is ``fp.response(np.arange(n))``; :class:`FilterBuildError` is
    raised if the window's unitary spectrum deviates from it by more than
    ``delta`` anywhere.  ``source`` names the window in the error message.
    """
    spectrum = fft_raw(fp.window_dense()) / np.sqrt(fp.n)
    leakage = float(np.max(np.abs(spectrum - ideal)))
    if leakage > fp.delta:
        raise FilterBuildError(
            f"{source} leaks {leakage:.3e} > delta={fp.delta} for "
            f"(n={fp.n}, B={fp.buckets}, delta={fp.delta}, alpha={fp.alpha})",
            achieved_leakage=leakage,
        )
    return replace(fp, leakage=leakage)


def build_filter(n: int, buckets: int, delta: float, alpha: float) -> FilterPair:
    """Construct and verify a flat-window filter for (n, B, delta, alpha).

    Raises :class:`FilterBuildError` if the required support exceeds the
    budget ``SUPPORT_BUDGET_CONST * B * log(n/delta) / alpha`` or if the
    measured leakage ends up above ``delta``.
    """
    n, B = _check_params(n, buckets, delta, alpha)
    signed = _signed_offset(np.arange(n), n)
    radius = np.abs(signed)
    # the target is even: the smoothed box is evaluated once per radius
    target = _smoothed_box(np.arange(n // 2 + 1.0), *_shape(n, B, delta, alpha))[radius]
    g_full = fft_raw(target, inverse=True).real / np.sqrt(n)

    order = np.argsort(radius, kind="stable")  # offsets 0, +1, -1, +2, -2, ...
    # l1 mass strictly outside each candidate radius bounds the truncation's
    # worst-case frequency deviation after the 1/sqrt(n) unitary scale.  The
    # target is a small fraction of delta so the measured deviation stays
    # dominated by the transition-band clamp; in the dense regime (wide
    # Gaussian, bucket width near 1) this keeps the window numerically exact
    # instead of charging the full delta budget for a handful of shaved taps.
    mags = np.abs(g_full[order])
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

    keep = order[:needed]
    keep = keep[np.argsort(signed[keep])]
    offsets, taps = signed[keep].astype(np.int64), g_full[keep].astype(np.float64)
    fp = FilterPair(n, B, float(delta), float(alpha), offsets, taps)
    return _verified_filter(fp, fp._clamp(target, radius), "constructed window")


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
    offsets, taps = offsets.astype(np.int64), np.bincount(where, weights=taps)
    fp = FilterPair(n, B, float(delta), float(alpha), offsets, taps)
    return _verified_filter(fp, fp.response(np.arange(n)), f"cached filter at {path}")


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
