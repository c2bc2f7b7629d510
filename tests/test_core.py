import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquery.core import (
    LEDGER_RUN_CAP,
    IndexRun,
    Signal,
    SparseSpectrum,
    dft_oracle,
    fft,
    fft_raw,
    inverse_dft_oracle,
    inverse_fft,
    query_array,
    restrict,
    tail_norm,
    _in_run,
)

from setquery.query import set_query

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

    def test_out_receives_the_transform_in_place(self, rng):
        x = complex_vector(rng, 64)
        for inverse in (False, True):
            v = x.copy()
            assert fft_raw(v, inverse=inverse, out=v) is v
            assert np.array_equal(v, fft_raw(x, inverse=inverse))


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

    def test_two_dimensional_set_is_value_error(self):
        # flattening would answer for [1, 2, 3, 4]
        with pytest.raises(ValueError, match="one-dimensional"):
            query_array(np.array([[1, 2], [3, 4]]), 16)

    def test_canonical_set_comes_back_as_it_is(self):
        S = np.array([0, 3, 9, 15], dtype=np.int64)
        assert query_array(S, 16) is S

    @pytest.mark.parametrize("query_set, error", [
        (np.array([3, 16], dtype=np.int64), IndexError),  # increasing, but not inside [0, n)
        (np.array([-1, 3], dtype=np.int64), IndexError),
        (np.array([16, 3], dtype=np.int64), IndexError),  # sorted first, then out of range
        (np.array([[1, 2]], dtype=np.int64), ValueError),
        (np.array([], dtype=np.int64), ValueError),
    ])
    def test_rejections_hold_for_int64_arrays(self, query_set, error):
        with pytest.raises(error):
            query_array(query_set, 16)

    def test_no_report_field_aliases_the_callers_set(self, rng):
        # the sampling profile at n=4096 leaves part of an 8-set unresolved
        S = np.arange(3, 4096, 500, dtype=np.int64)
        report = set_query(Signal(complex_vector(rng, 4096)), S, eps=0.5, delta=0.2,
                           gamma=1 / 16, const_c=1.0, alpha_const=1.25, rng=rng)
        assert S.tolist() == list(range(3, 4096, 500))
        arrays = [report.unresolved, report.estimate.support, report.estimate.values]
        assert report.unresolved.size and report.estimate.support.size  # both kinds occur
        assert not any(np.shares_memory(a, S) for a in arrays)


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


class TestLedger:
    """A reader's count is the number of distinct ``i mod n`` it has read."""

    N = 1024

    @staticmethod
    def _check(readers, seen, n):
        for name, reader in readers.items():
            assert reader.samples_used == len(seen[name]), name
            for ledger in reader._ledgers:  # the memory bound of either ledger state
                assert (ledger.runs is None) != (ledger.mask is None)
                assert ledger.runs is None or len(ledger.runs) <= LEDGER_RUN_CAP
                assert ledger.mask is None or ledger.mask.size == n

    @pytest.mark.parametrize("seed", range(6))
    def test_count_after_every_read(self, seed):
        # duplicates, negative indices, indices >= n, and counts past 16;
        # the indices come from a pool of 24 residues, so reads overlap often
        n, gen = self.N, np.random.default_rng(seed)
        pool = gen.choice(n, size=24, replace=False)
        x = Signal(np.arange(n, dtype=complex))
        first, second = x.session(), x.session()
        readers = {"x": x, "first": first, "second": second}
        parents = {"x": ["x"], "first": ["first", "x"], "second": ["second", "x"]}
        seen = {name: set() for name in readers}
        for _ in range(40):
            name = str(gen.choice(list(readers)))
            size = int(gen.integers(0, 8))
            idx = pool[gen.integers(0, pool.size, size)] + n * gen.integers(-2, 2, size)
            readers[name].read_many(idx)
            for charged in parents[name]:
                seen[charged] |= {int(i) % n for i in idx}
            self._check(readers, seen, n)
        assert len(seen["x"]) > 16 and x._ledgers[0].mask is not None  # arrays mark a mask

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.lists(st.integers(-3000, 3000), max_size=30)),
                    max_size=10))
    def test_view_and_parent_count_their_own_reads(self, reads):
        n = self.N
        x = Signal(np.arange(n, dtype=complex))
        view = x.session()
        seen = {"x": set(), "view": set()}
        for on_view, idx in reads:
            (view if on_view else x).read_many(idx)
            seen["x"] |= {i % n for i in idx}
            if on_view:
                seen["view"] |= {i % n for i in idx}
            self._check({"x": x, "view": view}, seen, n)

    def test_two_sessions_charge_the_parent_their_union(self):
        n = self.N
        v = np.arange(n, dtype=complex)
        for a, b in [([1, 2, 3], [3, 4]), (range(0, 40, 2), range(0, 60, 3)), (range(300), [5])]:
            x = Signal(v)
            first, second = x.session(), x.session()
            assert np.array_equal(first.read_many(list(a)), v[list(a)])
            second.read_many(list(b))
            assert first.samples_used == len(set(a))
            assert second.samples_used == len(set(b))
            assert x.samples_used == len(set(a) | set(b))

    def test_one_long_read_is_counted_once_per_index(self):
        n = self.N
        x = Signal(np.arange(n, dtype=complex))
        view = x.session()
        view.read_many(np.tile(np.arange(-5, 5), 30))  # 300 reads of 10 indices
        assert view.samples_used == x.samples_used == 10
        view.read_many([n + 4, 7])  # 4 was read already
        assert view.samples_used == x.samples_used == 11


def _residues(read, n):
    """Each index of a read mod n, in order, by Python ints: the ledger oracle."""
    if isinstance(read, IndexRun):
        return [(read.start + read.step * j) % n for j in range(read.size)]
    return [int(i) % n for i in read]


class TestRunLedger:
    """Runs and index arrays mixed: every count stays ``len(set(i mod n))``."""

    N = 256

    def _replay(self, reads):
        n = self.N
        v = np.arange(n, dtype=complex)
        x = Signal(v)
        readers = {"x": x, "first": x.session(), "second": x.session()}
        seen = {name: set() for name in readers}
        for name, read in reads:
            residues = _residues(read, n)
            assert np.array_equal(readers[name].read_many(read), v[residues])
            for charged in {name, "x"}:
                seen[charged].update(residues)
            for who, reader in readers.items():
                assert reader.samples_used == len(seen[who]), (who, name, read)
        return readers

    runs = st.builds(IndexRun, st.integers(-(1 << 62), 1 << 62), st.integers(-3 * N, 3 * N),
                     st.integers(0, N + 3))  # even steps and sizes past n too
    arrays = st.lists(st.integers(-3 * N, 3 * N), max_size=12)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["x", "first", "second"]),
                              st.one_of(runs, runs, runs, arrays)),
                    max_size=2 * LEDGER_RUN_CAP + 4))
    def test_count_after_every_read(self, reads):
        self._replay(reads)

    def test_runs_stay_runs_up_to_the_cap(self):
        n = self.N
        reads = [
            IndexRun(0, 1, 10), IndexRun(5, 1, 10),  # overlapping runs
            IndexRun(-n, 1, 100),  # larger than both: counted over their side
            IndexRun(7 + 5 * n, 3, 0), IndexRun(3 * n + 1, -5, n),  # empty; all of n
            IndexRun(1 << 40, 7, 40), IndexRun(-(1 << 50), 1, 3), IndexRun(100, 9, 200),
        ]
        assert len(reads) == LEDGER_RUN_CAP
        readers = self._replay([("first", r) for r in reads])
        for ledger in readers["first"]._ledgers:
            assert ledger.runs is not None and ledger.mask is None  # nothing marked
        readers = self._replay([("first", r) for r in reads] + [("first", IndexRun(2, 1, 3))])
        assert all(ledger.runs is None for ledger in readers["first"]._ledgers)  # past the cap

    def test_runs_that_are_not_distinct_take_the_array_path(self):
        n = self.N
        for run in (IndexRun(3, 2, 50), IndexRun(-7, 1, n + 1), IndexRun(5, 0, 4)):
            readers = self._replay([("second", IndexRun(1, 1, 20)), ("second", run)])
            assert all(ledger.runs is None for ledger in readers["second"]._ledgers)
        readers = self._replay([("x", IndexRun(0, 1, 8)), ("x", [3, 300, -1])])  # an array read
        assert readers["x"]._ledgers[0].runs is None

    def test_runs_read_concurrently(self, rng):
        # twice the cap, so some thread turns the runs into indices mid-way
        n = 1024
        x = Signal(complex_vector(rng, n))
        view = x.session()
        starts, steps = rng.integers(-n, 2 * n, (2, 2 * LEDGER_RUN_CAP))
        runs = [IndexRun(a, 2 * b + 1, 150) for a, b in zip(starts, steps)]
        _read_concurrently(view, runs)
        seen = set().union(*(_residues(r, n) for r in runs))
        assert view.samples_used == x.samples_used == len(seen)

    def test_huge_n_arithmetic_wraps_harmlessly(self):
        # at n = 2**62, start*step and every index pass 2**63: int64 wraps,
        # and since n divides 2**64 the residues mod n stay exact
        n = 1 << 62
        sigma, a = (1 << 61) + 1, n - 5
        base = IndexRun(-3, 1, 50)
        for run in (sigma * (base - a), IndexRun((1 << 70) + 3, (1 << 63) + 1, 50)):
            assert abs(run.start * run.step) > 1 << 63
            assert np.size(run) == run.size == 50  # what the tracer counts as indices
            want = [(run.start + run.step * j) % n for j in range(run.size)]
            assert (np.asarray(run) & (n - 1)).tolist() == want
            reduced = IndexRun(run.start % n, run.step % n, run.size)
            idx = np.array(want + [(run.start - run.step) % n, (run.start + run.step * 50) % n])
            assert _in_run(idx, reduced, n).tolist() == [True] * 50 + [False, False]

    def test_one_sample_signal(self):
        x = Signal([2j])
        for run in (IndexRun(5, 3, 1), IndexRun(-4, 1, 1), IndexRun(0, 7, 0)):
            assert x.read_many(run).tolist() == [2j] * run.size
            assert x.samples_used == 1 and x._ledgers[0].runs is not None

    def test_a_run_reads_as_its_indices(self):
        run = IndexRun(-2, 3, 5)
        assert np.asarray(run).tolist() == [-2, 1, 4, 7, 10]
        assert np.array(run, dtype=float).dtype == np.float64
        assert (run - 4).start == -6 and (5 * run).step == 15 == (run * 5).step
        assert (run * np.int64(1 << 62)).start == -2 << 62  # Python ints: no int64 overflow
        assert (run - np.array([1, 2, 3, 4, 5])).tolist() == [-3, -1, 1, 3, 5]
        assert np.size(IndexRun(0, 1, 0)) == 0
        with pytest.raises(TypeError):
            IndexRun(0.5, 1, 3)
        with pytest.raises(ValueError):
            IndexRun(0, 1, -1)


class TestSparseSpectrum:
    def test_no_explicit_zeros(self):
        s = SparseSpectrum(8, {1: 1.0, 2: 0.0})
        assert len(s) == 1
        assert len(SparseSpectrum(8, [(1, 0.0), (3, 0j)])) == 0

    def test_index_validation(self):
        with pytest.raises(IndexError):
            SparseSpectrum(8, {8: 1.0})
        with pytest.raises(IndexError):  # checked before a zero is dropped
            SparseSpectrum(8, {-1: 0.0})

    def test_dense_roundtrip(self, rng):
        v = np.zeros(16, dtype=complex)
        v[[2, 9]] = [1 + 1j, -2.0]
        s = SparseSpectrum.from_dense(v)
        assert len(s) == 2
        assert np.array_equal(s.to_dense(), v)

    @staticmethod
    def _same(a, b):
        return (a.n == b.n and np.array_equal(a.support, b.support)
                and np.array_equal(a.values, b.values) and a.items() == b.items())

    def test_every_construction_agrees(self, filter_cache):
        n = 1024
        xhat = np.zeros(n, dtype=complex)
        xhat[[700, 3, 250, 901]] = [1.0, 2 - 1j, 0.5j, -1.0]
        rep = set_query(Signal(inverse_fft(xhat)), [3, 250, 600, 700, 901], eps=0.5,
                        delta=1e-3, gamma=0.25, const_c=4.0,
                        rng=np.random.default_rng(3), filters=filter_cache)
        est = rep.estimate
        assert len(est) > 0
        pairs = est.items()
        assert all(type(i) is int and type(c) is complex for i, c in pairs)
        assert [i for i, _ in pairs] == sorted(i for i, _ in pairs)
        for other in (
            SparseSpectrum(n, dict(pairs)),
            SparseSpectrum(n, pairs[::-1]),
            SparseSpectrum.from_dense(est.to_dense()),
            SparseSpectrum.from_arrays(n, est.support[::-1], est.values[::-1]),
        ):
            assert self._same(other, est)
        for i in range(n):
            assert est.get(i) == est.to_dense()[i]

    def test_arrays_are_sorted_read_only_and_zero_free(self):
        s = SparseSpectrum.from_arrays(16, np.array([9, 2, 5, 0]), [1j, 2.0, 0.0, -1.0])
        assert s.support.dtype == np.int64 and s.values.dtype == np.complex128
        assert s.support.tolist() == [0, 2, 9] and s.values.tolist() == [-1.0, 2.0, 1j]
        for a in (s.support, s.values):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1
        assert s.get(5) == 0j and s.get(3) == 0j and s.get(99) == 0j and s.get(-1) == 0j
        assert len(SparseSpectrum(16)) == 0 and SparseSpectrum(16).items() == []

    def test_from_arrays_copies_its_inputs(self):
        support, values = np.array([1, 4]), np.array([1.0, 2.0], dtype=complex)
        s = SparseSpectrum.from_arrays(8, support, values)
        support[0], values[0] = 3, 7.0
        assert s.items() == [(1, 1 + 0j), (4, 2 + 0j)]
        assert support.flags.writeable and values.flags.writeable

    def test_pairs_take_the_from_arrays_checks(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSpectrum(8, [(3, 1.0), (3, 0.0)])  # no later pair replaces an earlier one
        for index in (1.7, True, "3"):
            with pytest.raises(TypeError):
                SparseSpectrum(8, {index: 1})

    def test_from_arrays_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSpectrum.from_arrays(8, [3, 1, 3], [1.0, 1.0, 2.0])
        with pytest.raises(IndexError):
            SparseSpectrum.from_arrays(8, [8], [1.0])
        with pytest.raises(IndexError):  # checked before a zero is dropped
            SparseSpectrum.from_arrays(8, [-1, 2], [0.0, 1.0])
        with pytest.raises(TypeError):
            SparseSpectrum.from_arrays(8, [1.5], [1.0])
        with pytest.raises(ValueError):
            SparseSpectrum.from_arrays(8, [1, 2], [1.0])
        with pytest.raises(ValueError):
            SparseSpectrum.from_arrays(6, [1], [1.0])
