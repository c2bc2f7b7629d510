import importlib.util
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from setquery import filters
from setquery.core import dft_oracle, fft_raw
from setquery.filters import (
    FilterBuildError,
    FilterCache,
    build_filter,
    load_filter,
    save_filter,
)
from setquery.query import compute_schedule

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# the accuracy profile's alpha_2 = 1/(200 * 2**3) at n = B = 2**14
DENSE_ROUND_TWO = (1 << 14, 1 << 14, 1e-3, 0.000625)


def load_perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def benchmark_filter_keys():
    """(n, B, delta, alpha) of every filter the benchmark's schedules build."""
    workloads = load_perfbench_workloads()
    keys = []
    for wl in workloads.WORKLOADS.values():
        p = wl.profile
        schedule = compute_schedule(
            wl.k, workloads.EPS, p["delta"], wl.n, p["gamma"], p["const_c"], p["alpha_const"]
        )
        keys += [(wl.n, row.buckets, p["delta"], row.alpha) for row in schedule.rows]
    return keys


class TestBuildValidation:
    def test_rejects_non_dividing_buckets(self):
        with pytest.raises(ValueError):
            build_filter(1024, 3, 1e-3, 0.25)

    def test_rejects_bad_delta_alpha(self):
        with pytest.raises(ValueError):
            build_filter(1024, 32, 0.0, 0.25)
        with pytest.raises(ValueError):
            build_filter(1024, 32, 1e-3, 1.0)

    def test_rejects_tiny_bucket_count(self):
        with pytest.raises(ValueError):
            build_filter(1024, 1, 1e-3, 0.25)

    def test_subnormal_delta_fails_the_leakage_check(self):
        # n/delta overflows to inf, so the support budget is all n taps; the
        # dense window's rounding error alone then exceeds delta
        with pytest.raises(FilterBuildError, match="leaks"):
            build_filter(1024, 32, 1e-320, 0.25)

    def test_offsets_must_form_one_run(self):
        # the fold of hash_to_bins places tap i at offsets[0] + i
        for offsets in ([-2, -1, 1, 2], [0, 2, 1, 3], [0, 0, 2]):
            with pytest.raises(ValueError, match="one run"):
                filters.FilterPair(256, 32, 1e-3, 0.25, np.array(offsets), np.ones(len(offsets)))

    def test_budget_failure_reports_leakage(self, monkeypatch):
        monkeypatch.setattr(filters, "SUPPORT_BUDGET_CONST", 0.02)
        with pytest.raises(FilterBuildError) as err:
            build_filter(1024, 32, 1e-3, 0.25)
        assert err.value.achieved_leakage is not None
        assert err.value.achieved_leakage > 1e-3


@pytest.fixture(scope="module")
def fp(filter_cache):
    return filter_cache.get(1024, 32, 1e-3, 0.25)


class TestResponseProperties:
    def test_dc_is_one(self, fp):
        assert fp.response(0) == 1.0

    def test_nyquist_is_zero(self, fp):
        assert fp.response(fp.n // 2) == 0.0

    def test_flat_region_exactly_one(self, fp):
        edge = int(np.floor(fp.flat_radius))
        i = np.arange(-edge, edge + 1)
        assert np.all(fp.response(i) == 1.0)

    def test_stop_region_exactly_zero(self, fp):
        stop = int(np.ceil(fp.stop_radius))
        i = np.arange(stop, fp.n - stop + 1)
        assert np.all(fp.response(i) == 0.0)

    def test_transition_value_in_unit_interval(self, fp):
        mid = (1 - fp.alpha / 2) * fp.n / (2 * fp.buckets)
        v = fp.response(int(round(mid)))
        assert 0.0 <= v <= 1.0

    def test_symmetry(self, fp):
        i = np.arange(1, fp.n // 2)
        assert np.allclose(fp.response(i), fp.response(-i))

    def test_monotone_nonincreasing(self, fp):
        vals = fp.response(np.arange(fp.n // 2 + 1))
        assert np.all(np.diff(vals) <= 1e-15)


class TestMeasuredSpectrum:
    @pytest.mark.parametrize("n,B,delta,alpha", [
        (1024, 32, 1e-3, 0.25),
        (1024, 64, 1e-2, 0.125),
        (256, 32, 1e-2, 0.25),
        (8192, 64, 1e-3, 0.25),
    ])
    def test_leakage_against_oracle(self, n, B, delta, alpha, filter_cache):
        fp = filter_cache.get(n, B, delta, alpha)
        spectrum = dft_oracle(fp.window_dense())
        dev = np.max(np.abs(spectrum - fp.response(np.arange(n))))
        assert dev <= delta
        assert fp.leakage <= delta
        assert abs(fp.leakage - dev) <= 1e-12  # the full-spectrum maximum

    def test_large_build_memory_is_linear_in_n(self):
        # a round-2 filter at n=2**20 (gamma=1/4, const_c=1, alpha_const=2)
        n = 1 << 20
        tracemalloc.start()
        try:
            fp = build_filter(n, 2048, 1e-2, 1 / 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fp.leakage <= fp.delta
        assert peak <= 256 * n

    def test_support_within_budget(self, filter_cache):
        fp = filter_cache.get(1024, 32, 1e-3, 0.25)
        budget = 4.0 * fp.buckets * np.log(fp.n / fp.delta) / fp.alpha
        assert fp.support_size <= budget
        assert fp.support_constant <= 4.0

    def test_offsets_form_one_run(self, filter_cache):
        # every filter the benchmark's schedules build, one with an even tap
        # count and dense-warm's round 2, which its B = n round 1 leaves
        # unscheduled: the kept taps are a prefix of 0, +1, -1, +2, -2, ...
        keys = [(1 << 16, 64, 1e-3, 0.25), *benchmark_filter_keys(), DENSE_ROUND_TWO]
        assert len(keys) == 7
        for key in keys:
            fp = filter_cache.get(*key)
            R = -int(fp.offsets[0])
            assert np.array_equal(fp.offsets, np.arange(-R, fp.support_size - R)), key
            assert fp.support_size in (2 * R + 1, 2 * R + 2, fp.n), key

    def test_leakage_is_measured_against_the_public_response(self, filter_cache):
        # the build checks against its own clamped target, which must be
        # response(arange(n)) bit for bit
        keys = [(1 << 16, 64, 1e-3, 0.25), *benchmark_filter_keys(), DENSE_ROUND_TWO,
                (256, 256, 1e-3, 0.02)]
        assert len(keys) == 8
        for key in keys:
            fp = filter_cache.get(*key)
            spectrum = fft_raw(fp.window_dense()) / np.sqrt(fp.n)
            assert fp.leakage == np.max(np.abs(spectrum - fp.response(np.arange(fp.n)))), key

    def test_degenerate_full_bucket_count(self, filter_cache):
        # B = n: width-1 buckets; the window is flat and numerically exact
        fp = filter_cache.get(256, 256, 1e-3, 0.02)
        assert fp.leakage <= 1e-12
        ideal = np.zeros(256)
        ideal[0] = 1.0
        assert np.allclose(fp.response(np.arange(256)), ideal)


class TestCacheFile:
    def test_roundtrip(self, tmp_path, filter_cache):
        fp = filter_cache.get(1024, 32, 1e-3, 0.25)
        path = tmp_path / "w.fil"
        save_filter(fp, path)
        got = load_filter(path)
        assert got.n == fp.n and got.buckets == fp.buckets
        assert np.array_equal(got.offsets, fp.offsets)
        assert np.array_equal(got.taps, fp.taps)
        assert got.leakage <= fp.delta

    def test_binary_layout(self, tmp_path, filter_cache):
        # magic, then little-endian float64: n, B, delta, alpha, (offset, value)*
        fp = filter_cache.get(256, 32, 1e-2, 0.25)
        path = tmp_path / "w.fil"
        save_filter(fp, path)
        raw = path.read_bytes()
        assert raw[:4] == b"SQFL"
        header = np.frombuffer(raw, dtype="<f8", count=4, offset=4)
        assert header.tolist() == [256.0, 32.0, 1e-2, 0.25]
        pairs = np.frombuffer(raw, dtype="<f8", offset=4 + 32).reshape(-1, 2)
        assert pairs.shape[0] == fp.support_size
        assert np.array_equal(pairs[:, 0].astype(np.int64), fp.offsets)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.fil"
        path.write_bytes(b"nope")
        with pytest.raises(ValueError):
            load_filter(path)

    def test_rejects_duplicated_offset(self, tmp_path, filter_cache):
        # taps at one offset add up, so a second copy of the centre tap doubles it
        fp = filter_cache.get(256, 32, 1e-2, 0.25)
        path = tmp_path / "dup.fil"
        save_filter(fp, path)
        tap0 = fp.taps[fp.offsets == 0][0]
        path.write_bytes(path.read_bytes() + np.array([0.0, tap0], dtype="<f8").tobytes())
        with pytest.raises(FilterBuildError):
            load_filter(path)

    def test_reversed_pairs_load_sorted(self, tmp_path, filter_cache):
        fp = filter_cache.get(1024, 32, 1e-3, 0.25)
        pairs = np.column_stack((fp.offsets, fp.taps)).astype("<f8")[::-1]
        header = np.array([fp.n, fp.buckets, fp.delta, fp.alpha], dtype="<f8")
        path = tmp_path / "reversed.fil"
        path.write_bytes(b"SQFL" + header.tobytes() + pairs.tobytes())
        got = load_filter(path)
        assert np.array_equal(got.offsets, fp.offsets)
        assert np.array_equal(got.taps, fp.taps)
        assert got.leakage == fp.leakage

    def test_split_tap_loads_as_the_original(self, tmp_path, filter_cache):
        # the centre tap as two halves, the second at the end of the file
        fp = filter_cache.get(1024, 32, 1e-3, 0.25)
        pairs = np.column_stack((fp.offsets, fp.taps)).astype("<f8")
        centre = int(np.flatnonzero(fp.offsets == 0)[0])
        pairs[centre, 1] /= 2
        header = np.array([fp.n, fp.buckets, fp.delta, fp.alpha], dtype="<f8")
        path = tmp_path / "split.fil"
        path.write_bytes(b"SQFL" + header.tobytes() + pairs.tobytes() + pairs[centre].tobytes())
        got = load_filter(path)
        assert np.array_equal(got.offsets, fp.offsets)
        assert np.array_equal(got.taps, fp.taps)

    def test_rejects_gapped_offsets(self, tmp_path, filter_cache):
        # the second tap is in the window's tail, so without it the window
        # would still pass the leakage check; the fold needs one run
        fp = filter_cache.get(1024, 32, 1e-3, 0.25)
        pairs = np.column_stack((fp.offsets, fp.taps)).astype("<f8")
        header = np.array([fp.n, fp.buckets, fp.delta, fp.alpha], dtype="<f8")
        path = tmp_path / "gapped.fil"
        path.write_bytes(b"SQFL" + header.tobytes() + np.delete(pairs, 1, axis=0).tobytes())
        with pytest.raises(ValueError, match="one run"):
            load_filter(path)

    @pytest.mark.parametrize("row, col, value", [
        (10, 1, float("nan")),  # tap: NaN would pass the leakage check
        (10, 1, float("inf")),
        (0, 0, -505.5),  # offset: would truncate onto its neighbour
        (0, 0, 1e30),  # offset: outside [-n, n), would wrap on the cast
        (0, 0, float("nan")),
    ])
    def test_rejects_malformed_pair(self, tmp_path, filter_cache, row, col, value):
        fp = filter_cache.get(1024, 32, 1e-3, 0.25)
        pairs = np.column_stack((fp.offsets, fp.taps)).astype("<f8")
        assert pairs[0, 0] == -506
        pairs[row, col] = value
        header = np.array([fp.n, fp.buckets, fp.delta, fp.alpha], dtype="<f8")
        path = tmp_path / "bad.fil"
        path.write_bytes(b"SQFL" + header.tobytes() + pairs.tobytes())
        with pytest.raises(ValueError, match="non-finite tap|not an integer"):
            load_filter(path)

    @pytest.mark.parametrize("header", [
        [1000.0, 8.0, 1e-2, 0.25],  # n not a power of two
        [1024.5, 32.0, 1e-2, 0.25],  # n not integral
        [256.0, 32.5, 1e-2, 0.25],  # B not integral
        [256.0, 1.0, 1e-2, 0.25],  # B below 2
        [256.0, 24.0, 1e-2, 0.25],  # B does not divide n
        [256.0, 32.0, 0.0, 0.25],  # delta outside (0, 1)
        [256.0, 32.0, float("nan"), 0.25],
        [256.0, 32.0, 1e-2, 1.0],  # alpha outside (0, 1)
    ])
    def test_rejects_bad_header(self, tmp_path, header):
        path = tmp_path / "bad.fil"
        body = np.array(header + [0.0, 1.0], dtype="<f8")
        path.write_bytes(b"SQFL" + body.tobytes())
        with pytest.raises(ValueError):
            load_filter(path)


class TestFilterCache:
    def test_concurrent_misses_build_once(self, monkeypatch):
        calls = []
        real_build = filters.build_filter

        def counting_build(*args):
            calls.append(args)
            time.sleep(0.05)  # hold the miss open while the others arrive
            return real_build(*args)

        monkeypatch.setattr(filters, "build_filter", counting_build)
        cache = FilterCache()
        barrier = threading.Barrier(4)
        results = []

        def worker():
            barrier.wait(timeout=10)
            results.append(cache.get(256, 32, 1e-2, 0.25))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1 and cache.misses == 1 and cache.hits == 3
        assert len(results) == 4 and all(r is results[0] for r in results)

    def test_bucket_count_must_be_integral(self):
        cache = FilterCache()
        built = {B: cache.get(256, B, 1e-2, 0.25) for B in (8, 32)}
        for B in (8.5, 32.7):  # refused, though int(B) is cached
            with pytest.raises(ValueError, match="must be an integer"):
                cache.get(256, B, 1e-2, 0.25)
        assert cache.get(256, 32.0, 1e-2, 0.25) is built[32]
        assert (cache.hits, cache.misses) == (1, 2)

    def test_counts_hits_misses_and_build_time(self):
        cache = FilterCache()
        assert (cache.hits, cache.misses, cache.build_ns) == (0, 0, 0)
        first = cache.get(256, 32, 1e-2, 0.25)
        assert cache.get(256, 32, 1e-2, 0.25) is first
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.build_ns > 0
