import numpy as np
import pytest

from setquery.core import Signal, SparseSpectrum, inverse_fft, restrict
from setquery.filters import FilterCache
from setquery.query import compute_schedule, estimate_values, set_query
from setquery.verification import is_collision, is_large_offset

from conftest import complex_vector


class FixedRng:
    """Stands in for a Generator; hands out scripted integers() results."""

    def __init__(self, values):
        self._values = list(values)

    def integers(self, lo, hi=None, size=None):
        v = self._values.pop(0)
        return v if size is None else np.full(size, v)


class TestSchedule:
    def test_geometric_k_sequence(self):
        s = compute_schedule(k=8, eps=0.5, delta=1e-3, n=4096, gamma=0.5, const_c=4.0)
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


class TestEstimateValues:
    def test_collision_excludes_both(self, filter_cache):
        # scripted sigma=1, a=0, b=0: adjacent frequencies share bucket 0
        n, B = 1024, 32
        fp = filter_cache.get(n, B, 1e-3, 0.25)
        x = Signal(np.zeros(n))
        w, resolved, p, _ = estimate_values(x, None, [0, 1], fp, FixedRng([0, 0, 0]))
        assert p.sigma == 1 and p.a == 0 and p.b == 0
        assert resolved.size == 0
        assert len(w) == 0

    def test_repeated_frequency_is_one_entry(self, filter_cache):
        # scripted sigma=1, a=0, b=0: offset 7 sits inside the flat radius 12
        n, B = 1024, 32
        fp = filter_cache.get(n, B, 1e-3, 0.25)
        x = Signal(np.zeros(n))
        _, resolved, _, _ = estimate_values(x, None, [7, 7], fp, FixedRng([0, 0, 0]))
        assert resolved.tolist() == [7]

    def test_zero_signal_gives_zero_values(self, rng, filter_cache):
        n, B = 256, 32
        fp = filter_cache.get(n, B, 1e-3, 0.25)
        x = Signal(np.zeros(n))
        w, resolved, _, _ = estimate_values(x, None, [3, 97, 200], fp, rng)
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
            w, resolved, _, _ = estimate_values(x, None, [f], fp, rng)
            if resolved.size:  # isolated by definition; offset must be small
                hits += 1
                assert abs(w.get(f) - xhat[f]) <= delta * np.sum(np.abs(xhat)) + 1e-6
        assert hits >= 10  # offset failures happen at most ~alpha of the time

    def test_support_subset_of_resolved(self, rng, filter_cache):
        n, B = 256, 32
        fp = filter_cache.get(n, B, 1e-3, 0.25)
        x = Signal(complex_vector(rng, n))
        S = rng.choice(n, size=6, replace=False)
        w, resolved, _, _ = estimate_values(x, None, S, fp, rng)
        assert set(i for i, _ in w.items()) == set(resolved.tolist())
        assert set(resolved.tolist()) <= set(int(s) for s in S)

    def test_resolved_set_is_where_no_event_happens(self, filter_cache):
        # the Monte Carlo events are the resolve step's: t resolves iff it
        # neither collides nor lands at a large offset under the drawn p
        n = 1024
        rng = np.random.default_rng(11)
        x = Signal(complex_vector(rng, n))
        dropped = {"collision": 0, "offset": 0, "resolved": 0}
        for _ in range(200):
            B = int(rng.choice([16, 32, 64]))
            alpha = float(rng.choice([0.25, 0.5]))
            S = rng.choice(n, size=int(rng.integers(1, 24)), replace=False)
            fp = filter_cache.get(n, B, 1e-3, alpha)
            _, resolved, p, _ = estimate_values(x, None, S, fp, rng)
            expected = []
            for t in sorted(int(t) for t in S):
                if is_collision(t, S, p, B):
                    dropped["collision"] += 1
                elif is_large_offset(t, p, B, alpha):
                    dropped["offset"] += 1
                else:
                    expected.append(t)
            assert resolved.tolist() == expected
            dropped["resolved"] += len(expected)
        assert min(dropped.values()) > 0, dropped

    def test_rejects_empty_set(self, rng, filter_cache):
        fp = filter_cache.get(256, 32, 1e-3, 0.25)
        with pytest.raises(ValueError):
            estimate_values(Signal(np.zeros(256)), None, [], fp, rng)


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
            w, resolved, _, _ = estimate_values(x, None, support, fp, rng)
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
            w, resolved, _, _ = estimate_values(x, None, support, fp, rng)
            survivors = np.setdiff1d(support, resolved)
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
