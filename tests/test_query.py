import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from setquery.core import Signal, inverse_fft, restrict
from setquery.permutation import PermutationParams, bucket_offset, random_params
from setquery.query import compute_schedule, estimate_values, set_query
from setquery.verification import is_collision, is_large_offset

from conftest import complex_vector


class FixedRng:
    """Stands in for set_query's Generator; hands out scripted integers() results."""

    def __init__(self, values):
        self._values = list(values)

    def integers(self, lo, hi=None, size=None):
        v = self._values.pop(0)
        return v if size is None else np.full(size, v)


class TestSchedule:
    def test_geometric_k_sequence(self):
        # n = 2**30, so no row before the last reaches B = n
        s = compute_schedule(k=8, eps=0.5, delta=1e-3, n=1 << 30, gamma=0.5, const_c=4.0)
        assert s.rounds == 3
        assert [r.k_target for r in s.rows] == [8.0, 4.0, 2.0]

    def test_paper_constants_clamp(self):
        # eps_1 = 0.5*(10/1000) = 5e-3, alpha_1 = 1/200, raw B_1 = 6.4e10
        s = compute_schedule(k=8, eps=0.5, delta=1e-3, n=4096)
        r1 = s.rows[0]
        assert r1.eps == pytest.approx(5e-3)
        assert r1.alpha == pytest.approx(1 / 200)
        assert r1.buckets_raw == pytest.approx(6.4e10, rel=1e-9)
        assert r1.clamped and r1.buckets == 4096

    @pytest.mark.parametrize("eps, alpha_const", [(1e-310, 200.0), (1e-320, 200.0), (0.5, 1e300)])
    def test_unbounded_raw_buckets_clamp_to_n(self, eps, alpha_const):
        # raw B_1 overflows to inf (eps=1e-310), or its denominator
        # alpha_1**2 * eps_1 underflows to zero (the other two)
        s = compute_schedule(k=8, eps=eps, delta=1e-3, n=4096, gamma=1e-3,
                             const_c=1000.0, alpha_const=alpha_const)
        r1 = s.rows[0]
        assert r1.buckets_raw == math.inf
        assert r1.clamped and r1.buckets == 4096

    def test_flat_radius_below_one_sample_takes_every_bucket(self):
        # round 2: raw B = 400 rounds to 512, where alpha = 0.1 leaves a flat
        # radius of 0.9 samples, so only offset-0 frequencies could resolve
        s = compute_schedule(k=4, eps=0.5, delta=1e-3, n=1024, gamma=0.5,
                             const_c=1.0, alpha_const=1.25)
        assert [(r.buckets, r.clamped) for r in s.rows] == [(16, False), (1024, True)]
        assert s.rows[1].buckets_raw == pytest.approx(400.0)

    @pytest.mark.parametrize("gamma", [0.999, 1 - 1e-12])
    def test_ends_at_its_first_row_with_every_bucket(self, gamma):
        # a B = n row resolves every active member, so no row follows it;
        # log_{1/gamma} 8 allows 2,079 rows at gamma = 0.999, 2e12 at 1 - 1e-12
        for n in (1 << 10, 1 << 20, 1 << 40):
            s = compute_schedule(k=8, eps=0.5, delta=1e-3, n=n, gamma=gamma,
                                 const_c=1.0, alpha_const=1.25)
            assert [r.buckets == n for r in s.rows] == [False] * (s.rounds - 1) + [True]
            assert s.rounds == len(s.rows) <= 48

    def test_eps_capped_for_large_gamma(self):
        # gamma=1/4 would nominally give eps_1 = 1.25; the cap holds it at eps
        s = compute_schedule(k=16, eps=0.5, delta=1e-3, n=4096, gamma=0.25, const_c=4.0)
        assert s.rows[0].eps == 0.5

    def test_buckets_are_powers_of_two_dividing_n(self):
        s = compute_schedule(k=16, eps=0.25, delta=0.2, n=1024, gamma=1 / 16,
                             const_c=1.0, alpha_const=1.25)
        for r in s.rows:
            assert r.buckets & (r.buckets - 1) == 0
            assert 1024 % r.buckets == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            compute_schedule(k=0, eps=0.5, delta=1e-3, n=1024)
        with pytest.raises(ValueError):
            compute_schedule(k=4, eps=1.5, delta=1e-3, n=1024)
        with pytest.raises(ValueError):
            compute_schedule(k=4, eps=0.5, delta=1e-3, n=1000)
        with pytest.raises(ValueError):
            compute_schedule(k=4, eps=0.5, delta=1e-3, n=1024, const_c=0.5)
        with pytest.raises(ValueError):
            compute_schedule(k=4, eps=0.5, delta=1e-3, n=1024, gamma=1.0)

    def test_repeated_call_returns_the_same_schedule(self):
        kw = dict(k=8, eps=0.5, delta=0.2, n=1 << 18, gamma=1 / 16, const_c=1.0,
                  alpha_const=1.25)
        assert compute_schedule(**kw) is compute_schedule(**kw)

    def test_invalid_arguments_raise_on_every_call(self):
        cached = compute_schedule.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError, match="const_c"):
                compute_schedule(k=4, eps=0.5, delta=1e-3, n=1024, const_c=math.inf)
        assert compute_schedule.cache_info().currsize == cached
        compute_schedule(k=4, eps=0.5, delta=1e-3, n=1024)
        with pytest.raises(TypeError):  # a float n is not served the int n's schedule
            compute_schedule(k=4, eps=0.5, delta=1e-3, n=1024.0)


class TestEstimateValues:
    def test_collision_excludes_both(self, filter_cache):
        # sigma=1, a=0, b=0: adjacent frequencies share bucket 0
        n, B = 1024, 32
        fp = filter_cache.get(n, B, 1e-3, 0.25)
        x = Signal(np.zeros(n))
        p = PermutationParams(sigma=1, a=0, b=0, n=n)
        w, resolved, unresolved = estimate_values(x, None, [0, 1], fp, p)
        assert resolved.size == 0
        assert unresolved.tolist() == [0, 1]
        assert len(w) == 0

    def test_repeated_frequency_is_one_entry(self, filter_cache):
        # sigma=1, a=0, b=0: offset 7 sits inside the flat radius 12
        n, B = 1024, 32
        fp = filter_cache.get(n, B, 1e-3, 0.25)
        x = Signal(np.zeros(n))
        p = PermutationParams(sigma=1, a=0, b=0, n=n)
        _, resolved, unresolved = estimate_values(x, None, [7, 7], fp, p)
        assert resolved.tolist() == [7]
        assert unresolved.size == 0

    def test_zero_signal_gives_zero_values(self, rng, filter_cache):
        n, B = 256, 32
        fp = filter_cache.get(n, B, 1e-3, 0.25)
        x = Signal(np.zeros(n))
        w, resolved, _ = estimate_values(x, None, [3, 97, 200], fp, random_params(rng, n))
        assert all(w.get(int(t)) == 0 for t in resolved)

    def test_singleton_estimate_accurate_when_resolved(self, rng, filter_cache):
        n, B, delta = 1024, 32, 1e-3
        fp = filter_cache.get(n, B, delta, 0.25)
        f = 400
        xhat = np.zeros(n, dtype=complex)
        xhat[f] = 1.5 - 0.5j
        sig_values = inverse_fft(xhat)
        hits = 0
        for _ in range(20):
            x = Signal(sig_values)
            w, resolved, _ = estimate_values(x, None, [f], fp, random_params(rng, n))
            if resolved.size:  # isolated by definition; offset must be small
                hits += 1
                assert abs(w.get(f) - xhat[f]) <= delta * np.sum(np.abs(xhat)) + 1e-6
        assert hits >= 10  # offset failures happen at most ~alpha of the time

    def test_support_subset_of_resolved(self, rng, filter_cache):
        n, B = 256, 32
        fp = filter_cache.get(n, B, 1e-3, 0.25)
        x = Signal(complex_vector(rng, n))
        S = rng.choice(n, size=6, replace=False)
        w, resolved, _ = estimate_values(x, None, S, fp, random_params(rng, n))
        assert set(i for i, _ in w.items()) == set(resolved.tolist())
        assert set(resolved.tolist()) <= set(int(s) for s in S)

    def test_resolved_set_is_where_no_event_happens(self, filter_cache):
        # the Monte Carlo events are the resolve step's: t resolves iff it
        # neither collides nor lands at a large offset under the given p,
        # and every other member of S comes back unresolved
        n = 1024
        rng = np.random.default_rng(11)
        x = Signal(complex_vector(rng, n))
        dropped = {"collision": 0, "offset": 0, "resolved": 0}
        for _ in range(200):
            B = int(rng.choice([16, 32, 64]))
            alpha = float(rng.choice([0.25, 0.5]))
            S = rng.choice(n, size=int(rng.integers(1, 24)), replace=False)
            fp = filter_cache.get(n, B, 1e-3, alpha)
            p = random_params(rng, n)
            _, resolved, unresolved = estimate_values(x, None, S, fp, p)
            expected = []
            for t in sorted(int(t) for t in S):
                if is_collision(t, S, p, B):
                    dropped["collision"] += 1
                elif is_large_offset(t, p, B, alpha):
                    dropped["offset"] += 1
                else:
                    expected.append(t)
            assert resolved.tolist() == expected
            assert unresolved.tolist() == sorted(set(S.tolist()) - set(expected))
            dropped["resolved"] += len(expected)
        assert min(dropped.values()) > 0, dropped

    def test_rejects_empty_set(self, rng, filter_cache):
        fp = filter_cache.get(256, 32, 1e-3, 0.25)
        with pytest.raises(ValueError):
            estimate_values(Signal(np.zeros(256)), None, [], fp, random_params(rng, 256))


class TestSetQuery:
    def test_zero_signal_zero_error(self, rng, filter_cache):
        x = Signal(np.zeros(256))
        rep = set_query(x, [1, 5, 100], eps=0.5, delta=1e-3, gamma=0.25,
                        const_c=4.0, rng=rng, filters=filter_cache)
        assert np.all(rep.estimate.to_dense() == 0)

    def test_one_sparse_recovery(self, rng, filter_cache):
        # noise-free tone inside the query set, practical constants
        n = 1024
        f = 300
        xhat = np.zeros(n, dtype=complex)
        xhat[f] = 2.0 * np.exp(0.7j)
        x = Signal(inverse_fft(xhat))
        rep = set_query(x, [f, 10, 700], eps=0.5, delta=1e-6, gamma=0.25,
                        const_c=4.0, rng=rng, filters=filter_cache)
        assert abs(rep.estimate.get(f) - xhat[f]) / abs(xhat[f]) <= 1e-3

    def test_estimate_supported_on_query_set(self, rng, filter_cache):
        n = 512
        x = Signal(complex_vector(rng, n))
        S = rng.choice(n, size=8, replace=False)
        rep = set_query(x, S, eps=0.5, delta=1e-3, gamma=0.25, const_c=4.0,
                        rng=rng, filters=filter_cache)
        assert set(i for i, _ in rep.estimate.items()) <= set(int(s) for s in S)

    def test_bookkeeping_identities(self, rng, filter_cache):
        # nested active sets and exact increment accounting across rounds
        n = 1024
        x = Signal(complex_vector(rng, n))
        S = rng.choice(n, size=16, replace=False)
        rep = set_query(x, S, eps=0.5, delta=0.05, gamma=0.5, const_c=1.0,
                        alpha_const=8.0, rng=rng, filters=filter_cache)
        active = len(S)
        for it in rep.iterations:
            assert it.active <= active
            assert it.resolved <= it.active
            active = it.active - it.resolved
        assert rep.unresolved.size == active

    def test_error_bound_monte_carlo(self, rng, filter_cache):
        # proof-form guarantee at a small desk profile, rate over 40 trials
        n, k, eps, delta = 1024, 8, 0.5, 1e-3
        wins = 0
        for _ in range(40):
            support = rng.choice(n, size=k // 2, replace=False)
            xhat = np.zeros(n, dtype=complex)
            xhat[support] = np.exp(2j * np.pi * rng.random(k // 2))
            xhat += complex_vector(rng, n, scale=0.01)
            extras = rng.choice(
                np.setdiff1d(np.arange(n), support), size=k // 2, replace=False
            )
            S = np.concatenate([support, extras])
            x = Signal(inverse_fft(xhat))
            rep = set_query(x, S, eps=eps, delta=delta, gamma=0.25, const_c=4.0,
                            rng=rng, filters=filter_cache)
            lhs = np.linalg.norm(restrict(rep.estimate.to_dense() - xhat, S)) ** 2
            off = np.linalg.norm(xhat - restrict(xhat, S)) ** 2
            rhs = eps * (off + delta**2 * n * np.sum(np.abs(xhat)) ** 2)
            wins += int(lhs <= rhs)
        assert wins >= 36

    def test_sublinear_profile_reads_few_samples(self, rng, filter_cache):
        n, k = 4096, 16
        support = rng.choice(n, size=k, replace=False)
        xhat = np.zeros(n, dtype=complex)
        xhat[support] = 1.0
        x = Signal(inverse_fft(xhat))
        rep = set_query(x, support, eps=0.25, delta=0.2, gamma=1 / 16,
                        const_c=1.0, alpha_const=1.25, rng=rng,
                        filters=filter_cache)
        assert rep.samples_used < n / 2
        assert rep.samples_used == x.samples_used

    def test_warm_sublinear_query_allocates_nothing_of_length_n(self, filter_cache):
        # a length-n bool read mask alone would be n bytes
        n, k = 1 << 18, 8
        gen = np.random.default_rng(5)
        support = gen.choice(n, size=k, replace=False)
        xhat = np.zeros(n, dtype=complex)
        xhat[support] = 1.0
        values = inverse_fft(xhat)
        kw = dict(eps=0.5, delta=0.2, gamma=1 / 16, const_c=1.0, alpha_const=1.25,
                  filters=filter_cache)
        set_query(Signal(values), support, rng=np.random.default_rng(0), **kw)  # warm
        x, query_rng = Signal(values), np.random.default_rng(1)
        tracemalloc.start()
        try:
            rep = set_query(x, support, rng=query_rng, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.samples_used == x.samples_used < n // 64
        assert peak < n // 4, peak

    def test_two_round_query_marks_no_ledger_mask(self, filter_cache, monkeypatch):
        # multi-round's shape: round 2 reads a 49,323-tap window, 75% of n,
        # and each round's read is one run, recorded without a length-n mask
        n, k = 1 << 16, 32
        gen = np.random.default_rng(3)
        support = gen.choice(n, size=k, replace=False)
        xhat = np.zeros(n, dtype=complex)
        xhat[support] = 1.0
        x, views = Signal(inverse_fft(xhat)), []
        session = Signal.session

        def recording_session(self):
            views.append(session(self))
            return views[-1]

        monkeypatch.setattr(Signal, "session", recording_session)
        rep = set_query(x, support, eps=0.5, delta=0.2, gamma=1 / 16, const_c=1.0,
                        alpha_const=1.25, rng=np.random.default_rng(0),
                        filters=filter_cache)
        assert [it.filter_support for it in rep.iterations][1:] == [49323]
        assert rep.samples_used == x.samples_used > n // 2
        (view,) = views
        assert all(ledger.mask is None for ledger in view._ledgers + x._ledgers)

    def test_reused_signal_charges_each_query_its_own_reads(
        self, rng, filter_cache, monkeypatch
    ):
        n, k = 4096, 8
        xhat = np.zeros(n, dtype=complex)
        support = rng.choice(n, size=k, replace=False)
        xhat[support] = 1.0
        values = inverse_fft(xhat)
        seeds = (1, 1, 2)

        def run(x, seed):
            return set_query(x, support, eps=0.5, delta=0.2, gamma=1 / 16,
                             const_c=1.0, alpha_const=1.25,
                             rng=np.random.default_rng(seed),
                             filters=filter_cache).samples_used

        fresh = [run(Signal(values), seed) for seed in seeds]
        reads = []
        read_many = Signal.read_many

        def recording_read_many(self, indices):
            reads.append(np.asarray(indices, dtype=np.int64) % self.n)
            return read_many(self, indices)

        monkeypatch.setattr(Signal, "read_many", recording_read_many)
        x = Signal(values)
        assert [run(x, seed) for seed in seeds] == fresh
        assert x.samples_used == np.unique(np.concatenate(reads)).size

    def test_rejects_bad_inputs(self, rng, filter_cache):
        x = Signal(np.zeros(256))
        with pytest.raises(ValueError):
            set_query(x, [], eps=0.5, delta=1e-3, rng=rng, filters=filter_cache)
        with pytest.raises(IndexError):
            set_query(x, [256], eps=0.5, delta=1e-3, rng=rng, filters=filter_cache)
        with pytest.raises(TypeError):
            set_query(x, [0.6], eps=0.5, delta=1e-3, rng=rng, filters=filter_cache)
        with pytest.raises(ValueError):
            set_query(x, [1], eps=0.5, delta=2.0, rng=rng, filters=filter_cache)


class TestIterationStatistics:
    def test_shrinkage_rate(self, rng, filter_cache):
        # per-round survivor count: |S_2| <= gamma'*|S_1| at least
        # 1 - 10*alpha/gamma' of the time (all misses here come from offsets
        # and collisions; alpha=1/64 keeps the bound nonvacuous)
        n, B, alpha, k, shrink = 4096, 64, 1 / 64, 8, 0.25
        fp = filter_cache.get(n, B, 0.05, alpha)
        hits = 0
        trials = 200
        xhat = np.zeros(n, dtype=complex)
        support = rng.choice(n, size=k, replace=False)
        xhat[support] = 1.0
        sig_values = inverse_fft(xhat)
        for _ in range(trials):
            x = Signal(sig_values)
            w, resolved, _ = estimate_values(x, None, support, fp, random_params(rng, n))
            hits += int(k - resolved.size <= shrink * k)
        rate = hits / trials
        bound = 1 - 10 * alpha / shrink
        se = np.sqrt(max(rate * (1 - rate), 1e-9) / trials)
        assert rate >= bound - 3 * se

    def test_residual_growth_rate(self, rng, filter_cache):
        # post-round off-set residual energy grows by at most (1 + eps_round)
        # plus the leakage allowance, at the shrinkage rate or better
        n, B, alpha, k, eps_round, delta = 4096, 64, 1 / 64, 8, 0.5, 1e-3
        fp = filter_cache.get(n, B, delta, alpha)
        trials, hits = 100, 0
        for _ in range(trials):
            support = rng.choice(n, size=k, replace=False)
            xhat = np.zeros(n, dtype=complex)
            xhat[support] = np.exp(2j * np.pi * rng.random(k))
            xhat += complex_vector(rng, n, scale=0.005)
            x = Signal(inverse_fft(xhat))
            w, _, survivors = estimate_values(x, None, support, fp, random_params(rng, n))
            resid = xhat - w.to_dense()
            before = np.linalg.norm(
                xhat - restrict(xhat, support)
            ) ** 2
            after_mask = np.ones(n, dtype=bool)
            after_mask[survivors] = False
            after = np.linalg.norm(resid[after_mask]) ** 2
            allowance = eps_round * (
                before + delta**2 * n * np.sum(np.abs(xhat)) ** 2
            )
            hits += int(after <= (1 + eps_round) * before + allowance)
        rate = hits / trials
        assert rate >= 0.9


class TestIterationRecord:
    def test_zeta_counts_estimate_support_at_large_offsets(self, filter_cache):
        # k=4, gamma=1/2: two rounds, B=16 at alpha=0.8, then B=512 at alpha=0.1.
        # Scripted draws: (sigma, a, b) = (1, 0, 0), then (3, 0, 5).
        n, delta = 16384, 1e-3
        S = [1024, 3082, 6644, 8212]
        values = complex_vector(np.random.default_rng(3), n)
        rep = set_query(Signal(values), S, eps=0.5, delta=delta, gamma=0.5,
                        const_c=1.0, alpha_const=1.25,
                        rng=FixedRng([0, 0, 0, 1, 0, 5]), filters=filter_cache)
        first, second = rep.schedule.rows
        fp1 = filter_cache.get(n, first.buckets, delta, first.alpha)
        _, resolved1, _ = estimate_values(Signal(values), None, S, fp1,
                                          PermutationParams(sigma=1, a=0, b=0, n=n))
        assert resolved1.tolist() == [1024, 3082, 8212]  # 6644 sits at offset 500

        fp2 = filter_cache.get(n, second.buckets, delta, second.alpha)
        p2 = PermutationParams(sigma=3, a=0, b=5, n=n)
        offsets = bucket_offset(p2, second.buckets, resolved1)
        zeta = int(np.sum(np.abs(offsets) >= fp2.flat_radius))
        assert [it.zeta for it in rep.iterations] == [0, zeta]
        assert zeta == 2  # offsets -15 and 15 against a flat radius of 14.4

        # the record is the JSONL iterations entry; of its row it repeats B and the clamp
        for row, it in zip(rep.schedule.rows, rep.iterations):
            assert list(asdict(it)) == [
                "round", "active", "resolved", "buckets", "clamped",
                "filter_support", "zeta",
            ]
            assert (it.round, it.buckets, it.clamped) == (row.index, row.buckets, row.clamped)


class TestReproducibility:
    def test_same_seed_same_report(self, filter_cache):
        n = 512
        values = inverse_fft(np.eye(n, dtype=complex)[7] * 3.0)
        outs = []
        for _ in range(2):
            x = Signal(values)
            rep = set_query(
                x, [7, 100, 300], eps=0.5, delta=1e-3, gamma=0.25, const_c=4.0,
                rng=np.random.default_rng(99), filters=filter_cache,
            )
            outs.append(
                (sorted(rep.estimate.items()), rep.samples_used,
                 rep.unresolved.tolist())
            )
        assert outs[0] == outs[1]
