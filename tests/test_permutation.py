import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquery.core import Signal, dft_oracle
from setquery.permutation import (
    PermutationParams,
    bucket_index,
    bucket_offset,
    permute_time_many,
    permuted_frequency,
    random_params,
    twiddle,
)
from setquery.permutation import _root_tables

from conftest import complex_vector


class TestPermutationParams:
    def test_rejects_even_sigma(self):
        with pytest.raises(ValueError):
            PermutationParams(sigma=2, a=0, b=0, n=8)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PermutationParams(sigma=1, a=8, b=0, n=8)

    def test_batch_rejects_any_bad_draw(self):
        good = np.array([1, 3, 5])
        PermutationParams(sigma=good, a=0, b=good, n=8)
        for sigma, b in [([1, 4, 5], good), ([1, 9, 5], good), (good, [0, 8, 1])]:
            with pytest.raises(ValueError):
                PermutationParams(sigma=np.array(sigma), a=0, b=np.array(b), n=8)

    def test_batch_broadcasts_against_indices(self):
        n = 64
        sigma, b = np.array([1, 3, 5]), np.array([0, 7, 63])
        batch = PermutationParams(sigma[:, None], 0, b[:, None], n)
        i = np.arange(n)
        for fn in (permuted_frequency, lambda p, i: bucket_index(p, 8, i),
                   lambda p, i: bucket_offset(p, 8, i)):
            rows = [fn(PermutationParams(int(s), 0, int(bb), n), i) for s, bb in zip(sigma, b)]
            assert np.array_equal(fn(batch, i), np.stack(rows))


class TestPermuteTime:
    def test_identity_params(self, rng):
        x = Signal(complex_vector(rng, 16))
        p = PermutationParams(sigma=1, a=0, b=0, n=16)
        for i in range(16):
            assert permute_time_many(x, p, [i])[0] == pytest.approx(complex(x.data[i]))

    def test_pure_shift(self, rng):
        # sigma=1, a=1, b=0: direct substitution gives (Px)_i = x_{(i-1) mod 8}
        x = Signal(complex_vector(rng, 8))
        p = PermutationParams(sigma=1, a=1, b=0, n=8)
        got = permute_time_many(x, p, np.arange(8))
        assert np.allclose(got, np.roll(x.data, 1))

    def test_reads_are_counted(self, rng):
        x = Signal(complex_vector(rng, 32))
        p = PermutationParams(sigma=5, a=3, b=7, n=32)
        permute_time_many(x, p, [11])
        assert x.samples_used == 1

    def test_spectrum_identity_random_params(self, rng):
        # permuting in time relabels the spectrum and adds a unit phase
        for n in (64, 256):
            x = complex_vector(rng, n)
            xhat = dft_oracle(x)
            sig = Signal(x)
            for _ in range(5):
                p = random_params(rng, n)
                perm = permute_time_many(sig, p, np.arange(n))
                lhs = dft_oracle(perm)[permuted_frequency(p, np.arange(n))]
                rhs = xhat * np.exp((-2j * np.pi / n) * p.sigma * p.a * np.arange(n))
                assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestTwiddle:
    @pytest.mark.parametrize("n", [1, 2, 8, 1 << 11, 1 << 16, 1 << 20])
    def test_matches_exp(self, n, rng):
        split = 1 << math.ceil(math.log2(n) / 2)  # the hi/lo boundary
        edges = [0, n - 1, split - 1, split, split + 1, n - split]
        e = np.concatenate([edges, rng.integers(0, n, 2000)]) % n
        assert np.max(np.abs(twiddle(n, e) - np.exp((-2j * np.pi / n) * e))) <= 4e-15
        # the exponent is taken mod n, negative or past n alike
        assert np.array_equal(twiddle(n, e - n), twiddle(n, e))
        assert np.array_equal(twiddle(n, e + 3 * n), twiddle(n, e))

    def test_tables_are_sqrt_n_and_read_only(self):
        n = 1 << 21
        hi, lo = _root_tables(n)
        assert hi.size + lo.size <= 2 * (1 << 11)
        for table in (hi, lo):
            with pytest.raises(ValueError):
                table[0] = 0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            twiddle(12, [1])


class TestPermutedFrequency:
    def test_identity(self):
        p = PermutationParams(sigma=1, a=0, b=0, n=8)
        assert [permuted_frequency(p, i) for i in range(8)] == list(range(8))

    def test_frozen_example(self):
        # sigma=3, b=0, n=8, i=5 -> 15 mod 8 = 7
        p = PermutationParams(sigma=3, a=0, b=0, n=8)
        assert permuted_frequency(p, 5) == 7

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from([16, 64, 256, 1024]),
        st.integers(0, 2**20),
        st.integers(0, 2**20),
    )
    def test_bijective_for_odd_sigma(self, n, sigma_seed, b_seed):
        sigma = (2 * (sigma_seed % (n // 2)) + 1) % n
        p = PermutationParams(sigma=sigma, a=0, b=b_seed % n, n=n)
        image = permuted_frequency(p, np.arange(n))
        assert len(np.unique(image)) == n


class TestBucketHash:
    def test_frozen_examples(self):
        p = PermutationParams(sigma=1, a=0, b=0, n=1024)
        assert bucket_index(p, 32, 0) == 0
        assert bucket_index(p, 32, 1000) == 31  # round(31.25)
        assert bucket_index(p, 32, 48) == 2  # round(1.5), half-up

    def test_offset_frozen_examples(self):
        p = PermutationParams(sigma=1, a=0, b=0, n=1024)
        assert bucket_offset(p, 32, 64) == 0  # exact bucket center
        assert bucket_offset(p, 32, 48) == -16  # 48 - 2*32

    def test_offset_bound_exhaustive(self):
        n = 256
        p = PermutationParams(sigma=171, a=9, b=77, n=n)
        for B in (2, 8, 32, 256):
            o = bucket_offset(p, B, np.arange(n))
            assert np.all(np.abs(o) <= n // (2 * B))

    def test_rejects_bad_bucket_count(self):
        p = PermutationParams(sigma=1, a=0, b=0, n=16)
        with pytest.raises(ValueError):
            bucket_index(p, 3, 0)

    def test_bucket_count_must_be_integral(self):
        p = PermutationParams(sigma=1, a=0, b=0, n=64)
        for f in (bucket_index, bucket_offset):
            with pytest.raises(ValueError, match="must be an integer"):
                f(p, 8.5, 13)  # not hashed with B = 8
            assert f(p, 8.0, 13) == f(p, 8, 13)

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from([64, 256, 1024]),
        st.integers(0, 2**20),
        st.integers(0, 2**20),
        st.sampled_from([2, 4, 8, 16]),
    )
    def test_hash_offset_reconstruct_pi(self, n, sigma_seed, b_seed, buckets):
        sigma = 2 * (sigma_seed % (n // 2)) + 1
        p = PermutationParams(sigma=sigma, a=0, b=b_seed % n, n=n)
        i = np.arange(n)
        h = bucket_index(p, buckets, i)
        o = bucket_offset(p, buckets, i)
        assert np.all(
            (h * (n // buckets) + o) % n == permuted_frequency(p, i)
        )


class TestRandomParams:
    def test_sigma_always_odd(self, rng):
        for _ in range(500):
            assert random_params(rng, 64).sigma % 2 == 1

    def test_marginals_uniform(self, rng):
        n, trials = 64, 10**5
        draws = [random_params(rng, n) for _ in range(trials)]
        # each odd sigma should appear with frequency 1/32 within 3 SEs
        freq = np.bincount([d.sigma for d in draws], minlength=n)[1::2] / trials
        se = np.sqrt((1 / 32) * (1 - 1 / 32) / trials)
        assert np.all(np.abs(freq - 1 / 32) <= 3.5 * se + 1e-12)
        for field in ("a", "b"):
            vals = np.array([getattr(d, field) for d in draws])
            counts = np.bincount(vals // 8, minlength=8) / trials  # 8 cells
            se = np.sqrt((1 / 8) * (7 / 8) / trials)
            assert np.all(np.abs(counts - 1 / 8) <= 4 * se)

    def test_pairwise_collision_proxy(self, rng):
        # fixed i != j: Pr over (sigma, b) of a shared bucket is <= 4/B
        n, B, trials = 1024, 64, 10**4
        i, j = 17, 401
        hits = 0
        sigma = rng.integers(0, n // 2, size=trials) * 2 + 1
        b = rng.integers(0, n, size=trials)
        w = n // B
        for s, bb in zip(sigma, b):
            p = PermutationParams(sigma=int(s), a=0, b=int(bb), n=n)
            hits += int(bucket_index(p, B, i) == bucket_index(p, B, j))
        rate = hits / trials
        se = np.sqrt(max(rate * (1 - rate), 1e-9) / trials)
        assert rate <= 4 / B + 3 * se
