import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquery.core import (
    Signal,
    SparseSpectrum,
    dft_oracle,
    fft,
    inverse_dft_oracle,
    inverse_fft,
    query_array,
    restrict,
    tail_norm,
)

from conftest import complex_vector


def brute_force_tail(x, k):
    """Independent oracle: minimize ||x - y||_2 over all k-sparse supports."""
    import itertools

    v = np.asarray(x)
    n = v.shape[0]
    best = np.inf
    for keep in itertools.combinations(range(n), k):
        y = np.zeros_like(v)
        y[list(keep)] = v[list(keep)]
        best = min(best, np.linalg.norm(v - y))
    return best


class TestDftOracle:
    def test_impulse_n4(self):
        x = np.zeros(4)
        x[0] = 1.0
        assert np.allclose(dft_oracle(x), 0.5 * np.ones(4), atol=1e-14)

    def test_all_ones_n4(self):
        out = dft_oracle(np.ones(4))
        assert np.allclose(out, [2, 0, 0, 0], atol=1e-14)

    def test_parseval_random(self, rng):
        x = complex_vector(rng, 64)
        rel = abs(np.linalg.norm(dft_oracle(x)) - np.linalg.norm(x))
        assert rel / np.linalg.norm(x) <= 1e-12

    def test_roundtrip(self, rng):
        x = complex_vector(rng, 32)
        assert np.max(np.abs(inverse_dft_oracle(dft_oracle(x)) - x)) <= 1e-10

    def test_accepts_signal(self, rng):
        x = complex_vector(rng, 16)
        s = Signal(x)
        assert np.allclose(dft_oracle(s), dft_oracle(x))
        assert s.samples_used == 0  # reference path is not charged


class TestFft:
    def test_impulse_n8(self):
        x = np.zeros(8)
        x[0] = 1.0
        assert np.allclose(fft(x), np.full(8, 1 / np.sqrt(8)), atol=1e-14)

    def test_zero(self):
        assert np.all(fft(np.zeros(16)) == 0)

    def test_matches_oracle_n256(self, rng):
        x = complex_vector(rng, 256)
        assert np.max(np.abs(fft(x) - dft_oracle(x))) <= 1e-9

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_matches_oracle_all_sizes(self, n, rng):
        x = complex_vector(rng, n)
        assert np.max(np.abs(fft(x) - dft_oracle(x))) <= 1e-9

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fft(np.zeros(12))

    def test_parseval_many(self, rng):
        for _ in range(200):
            x = complex_vector(rng, 128)
            rel = abs(np.linalg.norm(fft(x)) - np.linalg.norm(x))
            assert rel / np.linalg.norm(x) <= 1e-12

    def test_inverse_roundtrip(self, rng):
        x = complex_vector(rng, 64)
        assert np.max(np.abs(inverse_fft(fft(x)) - x)) <= 1e-12


class TestTailNorm:
    def test_frozen_example(self):
        # brute force over all size-1 supports of (3, 0, 4) gives 3.0
        assert brute_force_tail([3.0, 0.0, 4.0], 1) == pytest.approx(3.0)
        assert tail_norm([3.0, 0.0, 4.0], 1) == pytest.approx(3.0)

    def test_exactly_sparse(self):
        x = np.zeros(8)
        x[[1, 5]] = [2.0, -3.0]
        assert tail_norm(x, 2) == 0.0

    def test_k_zero_full_norm(self, rng):
        x = complex_vector(rng, 16)
        assert tail_norm(x, 0) == pytest.approx(np.linalg.norm(x))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            tail_norm(np.zeros(4), -1)
        with pytest.raises(ValueError):
            tail_norm(np.zeros(4), 5)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8))
    def test_matches_brute_force(self, values):
        x = np.asarray(values)
        for k in range(len(values) + 1):
            assert tail_norm(x, k) == pytest.approx(brute_force_tail(x, k), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=16))
    def test_monotone_in_k(self, values):
        x = np.asarray(values)
        norms = [tail_norm(x, k) for k in range(len(values) + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


class TestRestrict:
    def test_single_index(self):
        assert np.array_equal(restrict(np.array([1, 2, 3]), {1}), [0, 2, 0])

    def test_empty_set(self):
        assert np.array_equal(restrict(np.array([1.0, 2.0]), set()), [0, 0])

    def test_full_set(self, rng):
        x = complex_vector(rng, 8)
        assert np.array_equal(restrict(x, range(8)), x)

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            restrict(np.zeros(4), {4})


def _read_concurrently(reader, blocks):
    """One thread per block, each calling ``reader.read_many`` on it."""
    threads = [threading.Thread(target=reader.read_many, args=(b,)) for b in blocks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestQueryArray:
    @pytest.mark.parametrize("query_set", [
        [1.5, 2.9, "7"], [0.6], np.array([3.0]), ["3"], [True, False], {1.5},
    ])
    def test_rejects_non_integer_frequencies(self, query_set):
        with pytest.raises(TypeError):
            query_array(query_set, 16)

    @pytest.mark.parametrize("query_set", [
        [5, 2, 2], np.array([5, 2], dtype=np.int64), {2, 5},
    ])
    def test_accepts_integer_frequencies(self, query_set):
        S = query_array(query_set, 16)
        assert S.dtype == np.int64 and S.tolist() == [2, 5]

    def test_empty_set_is_value_error(self):
        for empty in ([], set(), np.array([])):
            with pytest.raises(ValueError, match="nonempty"):
                query_array(empty, 16)


class TestSignal:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(6))

    def test_distinct_access_counting(self, rng):
        x = Signal(complex_vector(rng, 64))
        x.read_many([3])
        x.read_many([3])
        x.read_many([3, 5, 5, 7])
        assert x.samples_used == 3

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 31), min_size=0, max_size=60))
    def test_counter_equals_distinct_reads(self, reads):
        x = Signal(np.arange(32, dtype=complex))
        for i in reads:
            x.read_many([i])
        assert x.samples_used == len(set(reads))

    def test_counter_only_grows_and_threadsafe(self, rng):
        x = Signal(complex_vector(rng, 1024))
        idx = rng.integers(0, 1024, size=(16, 400))
        _read_concurrently(x, idx)
        assert x.samples_used == len(set(idx.ravel().tolist()))

    def test_view_counter_threadsafe(self, rng):
        x = Signal(complex_vector(rng, 1024))
        view = x.session()
        idx = rng.integers(0, 1024, size=(16, 400))
        _read_concurrently(view, idx)
        assert view.samples_used == x.samples_used == len(set(idx.ravel().tolist()))

    def test_view_charges_parent_not_sibling(self, rng):
        v = complex_vector(rng, 64)
        x = Signal(v)
        x.read_many([0, 1])
        first, second = x.session(), x.session()
        assert first.samples_used == 0
        assert np.array_equal(first.read_many([1, 2, 2, 3]), v[[1, 2, 2, 3]])
        second.read_many([3, 4])
        assert first.samples_used == 3
        assert second.samples_used == 2
        assert x.samples_used == 5
        nested = first.session()
        nested.read_many([9])
        assert (nested.samples_used, first.samples_used, x.samples_used) == (1, 4, 6)
        assert second.samples_used == 2

    def test_indices_wrap_mod_n(self, rng):
        n = 16
        v = complex_vector(rng, n)
        for x in (Signal(v), Signal(v).session()):
            assert np.array_equal(x.read_many([-1, n, n + 3, 3]), v[[n - 1, 0, 3, 3]])
            assert x.samples_used == 3

    def test_reads_return_values(self, rng):
        v = complex_vector(rng, 16)
        x = Signal(v)
        assert x.read_many([5])[0] == pytest.approx(v[5])
        assert np.allclose(x.read_many([1, 2]), v[[1, 2]])


class TestSparseSpectrum:
    def test_no_explicit_zeros(self):
        s = SparseSpectrum(8, {1: 1.0, 2: 0.0})
        assert len(s) == 1
        s.set(1, 0.0)
        assert len(s) == 0

    def test_index_validation(self):
        with pytest.raises(IndexError):
            SparseSpectrum(8, {8: 1.0})

    def test_plus_cancels(self):
        a = SparseSpectrum(8, {1: 1.0, 2: 2.0})
        b = SparseSpectrum(8, {1: -1.0, 3: 1.0})
        c = a.plus(b)
        assert sorted(i for i, _ in c.items()) == [2, 3]

    def test_dense_roundtrip(self, rng):
        v = np.zeros(16, dtype=complex)
        v[[2, 9]] = [1 + 1j, -2.0]
        s = SparseSpectrum.from_dense(v)
        assert len(s) == 2
        assert np.array_equal(s.to_dense(), v)
