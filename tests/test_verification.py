import numpy as np
import pytest

from setquery.permutation import PermutationParams, random_params
from setquery.verification import (
    check_complex_expectation,
    check_omega_sum,
    check_pairwise_expectation,
    event_rate,
    is_collision,
    is_large_noise,
    is_large_offset,
    well_isolated_rate,
)

from conftest import complex_vector


class TestCollisionPredicate:
    def test_singleton_never_collides(self, rng):
        for _ in range(50):
            p = random_params(rng, 256)
            assert not is_collision(9, [9], p, 32)

    def test_adjacent_indices_collide_under_identity(self):
        p = PermutationParams(sigma=1, a=0, b=0, n=1024)
        assert is_collision(0, [0, 1], p, 32)

    def test_bucket_centers_do_not_collide(self):
        n, B = 1024, 32
        p = PermutationParams(sigma=1, a=0, b=0, n=n)
        centers = [j * (n // B) for j in range(4)]
        for c in centers:
            assert not is_collision(c, centers, p, B)

    def test_requires_membership(self):
        p = PermutationParams(sigma=1, a=0, b=0, n=64)
        with pytest.raises(ValueError):
            is_collision(3, [1, 2], p, 8)

    def test_rejects_non_integer_t(self):
        p = PermutationParams(sigma=1, a=0, b=0, n=64)
        with pytest.raises(TypeError):
            is_collision(1.5, [1, 2], p, 8)


class TestOffsetPredicate:
    def test_zero_offset_is_small(self):
        p = PermutationParams(sigma=1, a=0, b=0, n=1024)
        assert not is_large_offset(64, p, 32, 0.25)  # exact bucket center

    def test_threshold_arithmetic(self):
        # n=1024, B=32, alpha=1/4: threshold is 12; |o|=16 trips, |o|=11 not
        p = PermutationParams(sigma=1, a=0, b=0, n=1024)
        assert is_large_offset(16, p, 32, 0.25)  # o(16) = -16
        assert not is_large_offset(11, p, 32, 0.25)  # o(11) = 11


class TestNoisePredicate:
    def test_zero_residual_is_non_event(self, rng):
        p = random_params(rng, 256)
        assert not is_large_noise(5, [5], np.zeros(256, complex), p, 32, 0.25, 1)

    def test_concentrated_mass_trips(self):
        n, B = 256, 32
        p = PermutationParams(sigma=1, a=0, b=0, n=n)
        resid = np.zeros(n, dtype=complex)
        t = 64  # bucket center
        resid[t + 1] = 10.0  # same bucket as t, outside the query set
        resid[3] = 0.1  # somewhere else so Err(.,k=1) > 0
        assert is_large_noise(t, [t], resid, p, B, 0.25, 1)

    def test_spread_mass_does_not_trip(self):
        n, B = 256, 16
        p = PermutationParams(sigma=1, a=0, b=0, n=n)
        resid = np.full(n, 0.05, dtype=complex)
        assert not is_large_noise(0, [0], resid, p, B, 0.5, 0)

    def test_enumeration_guard(self, rng):
        n = 1 << 15
        p = random_params(rng, n)
        with pytest.raises(ValueError):
            is_large_noise(0, [0], np.zeros(n, complex), p, 32, 0.25, 1)


class TestEventRates:
    def test_collision_rate_example(self, rng):
        S = rng.choice(1024, size=8, replace=False)
        st = event_rate("collision", int(S[0]), S, 1024, 64, 10**4, rng)
        assert st.bound == pytest.approx(0.5)
        assert st.within_bound

    def test_offset_rate_example(self, rng):
        st = event_rate("offset", 1, [1], 1024, 4, 10**4, rng, alpha=1 / 8)
        assert st.bound == pytest.approx(0.125)
        assert st.within_bound

    def test_noise_rate_example(self, rng):
        n = 1024
        resid = complex_vector(rng, n, scale=0.05)
        spikes = rng.choice(n, size=2, replace=False)
        resid[spikes] += 3.0
        S = rng.choice(np.setdiff1d(np.arange(n), spikes), size=8, replace=False)
        st = event_rate("noise", int(S[0]), S, n, 64, 10**4, rng,
                        alpha=1 / 8, residual_spectrum=resid, k=2)
        assert st.bound == pytest.approx(0.5)
        assert st.within_bound

    def test_minimum_trials_enforced(self, rng):
        with pytest.raises(ValueError):
            event_rate("collision", 0, [0, 1], 256, 32, 10, rng)

    def test_unknown_event_rejected(self, rng):
        with pytest.raises(ValueError):
            event_rate("meteor", 0, [0], 256, 32, 10**4, rng)

    def test_out_of_range_query_set_rejected(self, rng):
        # 5000 = 904 mod 4096 would otherwise collide with itself every draw
        with pytest.raises(IndexError):
            event_rate("collision", 5000, [5000, 904], 4096, 64, 2000, rng)
        with pytest.raises(IndexError):
            is_collision(-1, [-1, 4095], PermutationParams(1, 0, 0, 4096), 64)

    def test_bucket_count_must_divide_n(self, rng):
        for event, t, S in [("collision", 3, [3, 5]), ("offset", 1, [1])]:
            with pytest.raises(ValueError, match="must divide"):
                event_rate(event, t, S, 64, 128, 1000, rng, alpha=0.125)


class TestBatchedDraws:
    def test_one_boolean_per_draw_matches_single_draws(self, rng):
        n, B, alpha, draws = 256, 16, 0.25, 300
        sigma = rng.integers(0, n // 2, size=draws) * 2 + 1
        b = rng.integers(0, n, size=draws)
        batch = PermutationParams(sigma[:, None], 0, b[:, None], n)
        singles = [PermutationParams(int(s), 0, int(bb), n) for s, bb in zip(sigma, b)]
        S = rng.choice(n, size=8, replace=False)
        t = int(S[0])
        resid = complex_vector(rng, n, scale=0.05)
        resid[rng.choice(n, size=2, replace=False)] += 3.0
        for happens in (
            lambda p: is_collision(t, S, p, B),
            lambda p: is_large_offset(t, p, B, alpha),
            lambda p: is_large_noise(t, S, resid, p, B, alpha, 2),
        ):
            got = happens(batch)
            assert got.shape == (draws,)
            assert got.tolist() == [bool(happens(p)) for p in singles]
            assert 0 < np.count_nonzero(got) < draws


class TestWellIsolated:
    def test_union_bound_consistency(self, rng):
        n, B, alpha = 1024, 64, 1 / 8
        resid = complex_vector(rng, n, scale=0.05)
        spikes = rng.choice(n, size=2, replace=False)
        resid[spikes] += 3.0
        S = rng.choice(np.setdiff1d(np.arange(n), spikes), size=8, replace=False)
        st = well_isolated_rate(int(S[0]), S, resid, n, B, alpha, 2, 1500, rng)
        # failure rate within 6*alpha (+3 binomial SEs)
        assert st.within_bound
        with pytest.raises(ValueError, match="1000 trials"):
            well_isolated_rate(int(S[0]), S, resid, n, B, alpha, 2, 10, rng)


class TestPairwiseExpectation:
    def test_basis_vector_exact(self, rng):
        mean, target, _ = check_pairwise_expectation(
            np.eye(4)[0], trials=10**4, rng=rng
        )
        assert mean == pytest.approx(1.0)
        assert target == pytest.approx(1.0)

    def test_two_ones_enumeration(self):
        # all four sign patterns of (1, 1): outcomes {0, 4} each half the time
        outcomes = [(s0 + s1) ** 2 for s0 in (-1, 1) for s1 in (-1, 1)]
        assert sorted(set(outcomes)) == [0, 4] and np.mean(outcomes) == 2.0
        mean, target, se = check_pairwise_expectation(
            np.array([1.0, 1.0]), trials=10**5, rng=np.random.default_rng(3)
        )
        assert target == 2.0
        assert abs(mean - 2.0) <= 3 * se

    def test_random_vector_within_3se(self, rng):
        x = rng.standard_normal(16)
        mean, target, se = check_pairwise_expectation(x, trials=10**5, rng=rng)
        assert abs(mean - target) <= 3 * se


class TestComplexExpectation:
    def test_basis_vector(self):
        mean, target = check_complex_expectation(np.eye(8, dtype=complex)[0], 1)
        assert mean == pytest.approx(1.0) and target == pytest.approx(1.0)

    def test_two_ones_n2(self):
        # enumerate a in {0, 1}: |1 + w^a|^2 takes values 4 and 0, mean 2
        mean, target = check_complex_expectation(np.array([1.0, 1.0]), 1)
        assert mean == pytest.approx(2.0, abs=1e-12)
        assert target == pytest.approx(2.0)

    def test_random_exact(self, rng):
        x = complex_vector(rng, 256)
        mean, target = check_complex_expectation(x, 7)
        assert abs(mean - target) <= 1e-10 * target

    def test_rejects_even_sigma(self, rng):
        with pytest.raises(ValueError):
            check_complex_expectation(np.ones(4), 2)


class TestOmegaSum:
    def test_nonzero_index_vanishes(self):
        assert abs(check_omega_sum(8, 1)) <= 1e-12

    def test_zero_index_is_one(self):
        assert check_omega_sum(8, 0) == pytest.approx(1.0)

    def test_full_period_is_one(self):
        assert check_omega_sum(8, 8) == pytest.approx(1.0)

    def test_all_nonzero_residues(self):
        n = 256
        assert all(abs(check_omega_sum(n, i)) <= 1e-12 for i in range(1, n))
