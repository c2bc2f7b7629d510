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
returned: a window failing any declared property raises instead of leaking
out.  Built and loaded filters go through the same construction and check.

The idealized response ``response(i)`` is exactly 1 on the flat region,
exactly 0 at and beyond ``n/(2B)``, and the clamped smoothed-box value in the
transition band; it is even and monotone nonincreasing in ``|i|``.

The bound published on the support is ``c_f * B * log(n/delta) / alpha``
(natural log) with the achieved constant ``c_f`` recorded on the filter.
"""

from __future__ import annotations

import io
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import erfc, erfcinv

from .core import fft_raw, is_power_of_two

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
    if not (float(n).is_integer() and float(buckets).is_integer()):
        raise ValueError(f"n and bucket count must be integers, got {n}, {buckets}")
    n, B = int(n), int(buckets)
    if not is_power_of_two(n):
        raise ValueError(f"n must be a power of two, got {n}")
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

    ``offsets`` are sorted signed time indices forming one run, [-R, R] or
    [-R, R+1] (all n when the window is dense), and ``taps`` the real window
    values there; the window is zero elsewhere.  ``leakage`` is the measured
    ``max_i |DFT(G)_i - response(i)|`` over all n frequencies.
    """

    n: int
    buckets: int
    delta: float
    alpha: float
    offsets: np.ndarray = field(repr=False)
    taps: np.ndarray = field(repr=False)
    box_radius: float
    sigma_f: float
    leakage: float

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
        """Idealized response at frequency offset(s) ``i``, taken mod n.

        Piecewise: 1 on the flat region, 0 at and beyond the bucket edge,
        clamped smoothed-box value in between.
        """
        d = np.abs(_signed_offset(np.asarray(i), self.n)).astype(np.float64)
        out = np.clip(_smoothed_box(d, self.box_radius, self.sigma_f), 0.0, 1.0)
        out = np.where(d <= self.flat_radius, 1.0, out)
        out = np.where(d >= self.stop_radius, 0.0, out)
        return float(out) if out.ndim == 0 else out

    def window_dense(self) -> np.ndarray:
        """Dense length-n copy of the window (verification use).

        Taps at offsets equal mod n add up, as they do in the bucketing.
        """
        return np.bincount(self.offsets % self.n, weights=self.taps, minlength=self.n)


def _verified_filter(n, buckets, delta, alpha, offsets, taps, source: str) -> FilterPair:
    """Assemble a filter and check it at all n frequencies before returning it.

    Raises :class:`FilterBuildError` if the idealized response breaks its box
    properties or the window's unitary spectrum deviates from it by more than
    ``delta`` anywhere.  ``source`` names the window in the error message.
    """
    box_radius, sigma_f = _shape(n, buckets, delta, alpha)
    fp = FilterPair(
        n=n,
        buckets=buckets,
        delta=float(delta),
        alpha=float(alpha),
        offsets=offsets,
        taps=taps,
        box_radius=box_radius,
        sigma_f=sigma_f,
        leakage=float("nan"),
    )
    params = f"(n={n}, B={buckets}, delta={delta}, alpha={alpha})"
    i = np.arange(n)
    d = np.abs(_signed_offset(i, n))
    ideal = fp.response(i)
    if (
        np.any(ideal < 0.0)
        or np.any(ideal > 1.0)
        or np.any(ideal[d <= fp.flat_radius] != 1.0)
        or np.any(ideal[d >= fp.stop_radius] != 0.0)
    ):
        raise FilterBuildError(
            f"idealized response violates its box properties for {params}"
        )
    spectrum = fft_raw(fp.window_dense()) / np.sqrt(n)
    leakage = float(np.max(np.abs(spectrum - ideal)))
    if leakage > delta:
        raise FilterBuildError(
            f"{source} leaks {leakage:.3e} > delta={delta} for {params}",
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
    target = _smoothed_box(radius.astype(np.float64), *_shape(n, B, delta, alpha))
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

    budget = min(n, int(np.ceil(SUPPORT_BUDGET_CONST * B * np.log(n / delta) / alpha)))
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
    return _verified_filter(
        n, B, delta, alpha,
        offsets=signed[keep].astype(np.int64),
        taps=g_full[keep].astype(np.float64),
        source="constructed window",
    )


_MAGIC = b"SQFL"


def save_filter(fp: FilterPair, path) -> None:
    """Write the filter to a little-endian binary cache file.

    Layout: 4-byte magic, then float64s: n, B, delta, alpha, followed by
    (offset, value) float64 pairs for each support tap.
    """
    buf = io.BytesIO()
    buf.write(_MAGIC)
    header = np.array([fp.n, fp.buckets, fp.delta, fp.alpha], dtype="<f8")
    buf.write(header.tobytes())
    pairs = np.empty((fp.support_size, 2), dtype="<f8")
    pairs[:, 0] = fp.offsets
    pairs[:, 1] = fp.taps
    buf.write(pairs.tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_filter(path) -> FilterPair:
    """Read a filter written by :func:`save_filter` and re-verify it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != _MAGIC or (len(raw) - 4) % 8 != 0:
        raise ValueError(f"{path} is not a filter cache file")
    values = np.frombuffer(raw, dtype="<f8", offset=4)
    if values.shape[0] < 4 or (values.shape[0] - 4) % 2 != 0:
        raise ValueError(f"{path} is truncated")
    n, B, delta, alpha = (float(v) for v in values[:4])
    n, B = _check_params(n, B, delta, alpha)
    pairs = values[4:].reshape(-1, 2)
    return _verified_filter(
        n, B, delta, alpha,
        offsets=pairs[:, 0].astype(np.int64),
        taps=pairs[:, 1].copy(),
        source=f"cached filter at {path}",
    )


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
        key = (int(n), int(buckets), float(delta), float(alpha))
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
