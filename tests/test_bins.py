import tracemalloc

import numpy as np
import pytest

from setquery.bins import hash_to_bins
from setquery.core import Signal, SparseSpectrum, dft_oracle, inverse_fft, tail_norm
from setquery.filters import FilterPair, build_filter, load_filter, save_filter
from setquery.permutation import (
    PermutationParams,
    bucket_index,
    bucket_offset,
    modulation,
    random_params,
    twiddle,
)

from conftest import complex_vector


def explicit_bins(xhat, z, p, fp):
    """Independent oracle: per-bin sum over the dense residual spectrum."""
    n, B = fp.n, fp.buckets
    i = np.arange(n)
    resid = xhat - (z.to_dense() if z is not None else 0)
    h = bucket_index(p, B, i)
    o = bucket_offset(p, B, i)
    vals = resid * fp.response(-o) * np.exp((-2j * np.pi / n) * p.sigma * p.a * i)
    out = np.zeros(B, dtype=complex)
    np.add.at(out, h, vals)
    return out


def exp_phase_bins(x, z, p, fp):
    """The bin vector assembled tap by tap with the per-tap exp phases."""
    n, B = fp.n, fp.buckets
    t = fp.offsets % n
    samples = x.data[(p.sigma * (t - p.a)) % n]
    y = fp.taps * samples * np.exp((-2j * np.pi / n) * ((p.sigma * p.b * t) % n))
    u = np.zeros(B, dtype=complex)
    np.add.at(u, t % B, y)
    u_hat = np.fft.fft(u)
    if z is not None:
        s = z.support
        coeffs = np.array([z.get(int(i)) for i in s])
        phase = np.exp((-2j * np.pi / n) * ((p.sigma * p.a * s) % n))
        np.add.at(u_hat, bucket_index(p, B, s), -coeffs * fp.response(bucket_offset(p, B, s)) * phase)
    return u_hat


def per_tap_bins(x, z, p, fp):
    """The bin vector tap by tap: each tap's b phase looked up by twiddle,
    the product summed into bin offset mod B, then the B-point FFT."""
    n, B, t = fp.n, fp.buckets, fp.offsets
    y = fp.taps * x.data[(p.sigma * (t - p.a)) % n] * twiddle(n, ((p.sigma * p.b) % n) * t)
    u_hat = np.fft.fft(_bin_sums(t % B, y, B))
    if z is not None:
        s = z.support
        contrib = z.values * fp.response(bucket_offset(p, B, s)) * modulation(p, s)
        u_hat -= _bin_sums(bucket_index(p, B, s), contrib, B)
    return u_hat


def _bin_sums(bins, values, B):
    return np.bincount(bins, values.real, B) + 1j * np.bincount(bins, values.imag, B)


def make_instance(rng, n, B, delta, alpha, k, with_z, filter_cache):
    fp = filter_cache.get(n, B, delta, alpha)
    support = rng.choice(n, size=k, replace=False)
    xhat = np.zeros(n, dtype=complex)
    xhat[support] = np.exp(2j * np.pi * rng.random(k))
    xhat += complex_vector(rng, n, scale=0.01)
    x = Signal(inverse_fft(xhat))
    z = None
    if with_z:
        z = SparseSpectrum(n, {int(s): xhat[s] * 0.9 for s in support[: max(k // 2, 1)]})
    return fp, x, xhat, z


class TestContract:
    def test_zero_signal(self, rng, filter_cache):
        fp = filter_cache.get(256, 32, 1e-3, 0.25)
        u = hash_to_bins(Signal(np.zeros(256)), None, random_params(rng, 256), fp)
        assert np.max(np.abs(u)) == 0.0

    def test_scale_calibration_n64(self, rng, filter_cache):
        # pins the unnormalized-B-point-FFT scale against the dense oracle
        fp = filter_cache.get(64, 8, 1e-2, 0.25)
        x = complex_vector(rng, 64)
        sig = Signal(x)
        p = random_params(rng, 64)
        u = hash_to_bins(sig, None, p, fp)
        ref = explicit_bins(dft_oracle(x), None, p, fp)
        assert np.max(np.abs(u - ref)) <= 1e-2 * np.sum(np.abs(dft_oracle(x)))

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("with_z", [False, True])
    def test_per_bin_deviation(self, n, with_z, rng, filter_cache):
        for _ in range(10):
            B = int(rng.choice([32, 64]))
            delta = float(rng.choice([1e-2, 1e-3]))
            alpha = float(rng.choice([0.25, 0.125]))
            k = int(rng.integers(1, B // 8 + 1))
            fp, x, xhat, z = make_instance(
                rng, n, B, delta, alpha, k, with_z, filter_cache
            )
            p = random_params(rng, n)
            u = hash_to_bins(x, z, p, fp)
            ref = explicit_bins(dft_oracle(x), z, p, fp)
            assert np.max(np.abs(u - ref)) <= delta * np.sum(np.abs(xhat))

    def test_single_tone(self, filter_cache):
        n, B, delta = 1024, 32, 1e-3
        fp = filter_cache.get(n, B, delta, 0.25)
        f = 137
        xhat = np.zeros(n, dtype=complex)
        xhat[f] = 1.0
        x = Signal(inverse_fft(xhat))
        p = PermutationParams(sigma=1, a=0, b=0, n=n)
        u = hash_to_bins(x, None, p, fp)
        hf = bucket_index(p, B, f)
        of = bucket_offset(p, B, f)
        assert abs(u[hf] - fp.response(-of)) <= delta
        others = np.abs(np.delete(u, hf))
        assert np.max(others) <= delta

    def test_exact_estimate_cancels(self, rng, filter_cache):
        n, B, delta = 1024, 32, 1e-3
        fp = filter_cache.get(n, B, delta, 0.25)
        support = rng.choice(n, size=4, replace=False)
        xhat = np.zeros(n, dtype=complex)
        xhat[support] = 1 + 1j
        x = Signal(inverse_fft(xhat))
        z = SparseSpectrum.from_dense(xhat)
        u = hash_to_bins(x, z, random_params(rng, n), fp)
        assert np.max(np.abs(u)) <= delta * np.sum(np.abs(xhat))

    def test_linearity(self, rng, filter_cache):
        n = 256
        fp = filter_cache.get(n, 32, 1e-3, 0.25)
        p = random_params(rng, n)
        x1 = complex_vector(rng, n)
        x2 = complex_vector(rng, n)
        u1 = hash_to_bins(Signal(x1), None, p, fp)
        u2 = hash_to_bins(Signal(x2), None, p, fp)
        u12 = hash_to_bins(Signal(x1 + x2), None, p, fp)
        assert np.max(np.abs(u12 - (u1 + u2))) <= 1e-10


    @pytest.mark.parametrize("with_z", [False, True])
    def test_matches_exp_phase_bins_round_two_filter(self, with_z, rng, filter_cache):
        # the 49k-tap round-2 filter of the sampling profile at n=2^16, k=32
        fp, x, _, z = make_instance(rng, 1 << 16, 1024, 0.2, 0.1, 32, with_z, filter_cache)
        for _ in range(3):
            p = random_params(rng, x.n)
            want = exp_phase_bins(x, z, p, fp)
            got = hash_to_bins(x, z, p, fp)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def run_filter(name, tmp_path, rng):
    """A filter whose L taps stand in one of the ways the fold lays them out."""
    def hand_built(n, B, offsets):
        return FilterPair(n, B, 1e-3, 0.25, offsets, rng.standard_normal(offsets.size))

    if name == "L<B":
        return hand_built(1024, 64, np.arange(-20, 17))
    if name == "inside one row":
        return hand_built(1024, 64, np.arange(3, 20))
    if name == "head, whole rows, no tail":
        return hand_built(1024, 32, np.arange(-10, 64))
    if name == "L=4B":
        return hand_built(1024, 32, np.arange(-64, 64))
    if name == "L%B>0, t0>0":
        return hand_built(1024, 32, np.arange(5, 105))
    if name == "built":
        return build_filter(1024, 32, 1e-3, 0.25)
    if name == "B=n":
        return build_filter(1024, 1024, 1e-3, 0.005)
    if name in ("B=256", "B=512"):  # either side of the direct column phase's cutoff
        return build_filter(1 << 14, int(name[2:]), 1e-3, 0.25)
    save_filter(build_filter(2048, 64, 1e-2, 0.25), tmp_path / "w.fil")
    return load_filter(tmp_path / "w.fil")


class TestFold:
    @pytest.mark.parametrize("name", ["L<B", "inside one row", "head, whole rows, no tail",
                                      "L=4B", "L%B>0, t0>0", "built", "B=n", "loaded",
                                      "B=256", "B=512"])
    def test_matches_per_tap_bins(self, name, tmp_path, rng):
        fp = run_filter(name, tmp_path, rng)
        n, L, B = fp.n, fp.support_size, fp.buckets
        assert {"L<B": L < B, "L=4B": L == 4 * B, "B=n": B == n}.get(name, L % B > 0)
        x = Signal(complex_vector(rng, n))
        support = rng.choice(n, size=6, replace=False)
        z = SparseSpectrum.from_arrays(n, support, complex_vector(rng, 6))
        for _ in range(5):
            p = random_params(rng, n)
            for estimate in (None, z):
                want = per_tap_bins(x, estimate, p, fp)
                got = hash_to_bins(x, estimate, p, fp)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_a_draw_shifted_in_b_reads_the_same_indices(self, rng, filter_cache, monkeypatch):
        fp = filter_cache.get(4096, 64, 0.2, 0.8)
        values = complex_vector(rng, fp.n)
        p = random_params(rng, fp.n)
        reads = []
        read_many = Signal.read_many

        def recording_read_many(self, indices):
            reads.append(np.array(indices))
            return read_many(self, indices)

        monkeypatch.setattr(Signal, "read_many", recording_read_many)
        for b in (p.b, (p.b + 1 + fp.n // 2) % fp.n):
            x = Signal(values)
            hash_to_bins(x, None, PermutationParams(p.sigma, p.a, b, fp.n), fp)
            assert x.samples_used == fp.support_size
        assert len(reads) == 2 and np.array_equal(reads[0], reads[1])

    @pytest.mark.parametrize("key, taps", [
        ((1 << 16, 1024, 0.2, 0.1), 49323),  # multi-round's round 2
        ((1 << 14, 1 << 14, 1e-3, 0.005), 1 << 14),  # dense-warm's B = n
    ])
    def test_warm_call_peak_memory(self, key, taps, rng, filter_cache):
        # at most 1.75 times the 16*L bytes of the complex read buffer: the
        # gather holds one length-L index array besides it.  At B = n the
        # fold's length-B sum is a second buffer as long as the read: 2.5
        ratio = 2.5 if key[1] == key[0] else 1.75
        fp = filter_cache.get(*key)
        assert fp.support_size == taps
        x = Signal(complex_vector(rng, fp.n))
        hash_to_bins(x.session(), None, random_params(rng, fp.n), fp)  # layout and tables
        view, p = x.session(), random_params(rng, fp.n)
        tracemalloc.start()
        try:
            hash_to_bins(view, None, p, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ratio * 16 * taps


class TestAccounting:
    def test_sample_count_at_most_support(self, rng, filter_cache):
        n = 1024
        fp = filter_cache.get(n, 32, 1e-2, 0.25)
        x = Signal(complex_vector(rng, n))
        hash_to_bins(x, None, random_params(rng, n), fp)
        assert x.samples_used <= fp.support_size

    def test_repeat_calls_same_params_add_nothing(self, rng, filter_cache):
        n = 1024
        fp = filter_cache.get(n, 32, 1e-2, 0.25)
        x = Signal(complex_vector(rng, n))
        p = random_params(rng, n)
        hash_to_bins(x, None, p, fp)
        first = x.samples_used
        hash_to_bins(x, None, p, fp)
        assert x.samples_used == first

    def test_rejects_mismatched_sizes(self, rng, filter_cache):
        fp = filter_cache.get(256, 32, 1e-3, 0.25)
        with pytest.raises(ValueError):
            hash_to_bins(Signal(np.zeros(512)), None, random_params(rng, 512), fp)
        with pytest.raises(ValueError):
            hash_to_bins(
                Signal(np.zeros(256)),
                SparseSpectrum(512),
                random_params(rng, 256),
                fp,
            )


class TestVarianceProxy:
    def test_isolated_coordinate_second_moment(self, rng, filter_cache):
        # For a well-isolated coordinate, the mean over the modulation shift a
        # of |u[h(i)] - xhat[i]*exp(-2j*pi*a*sigma*i/n)|^2 stays within
        # 2*rho^2/(alpha*B), rho^2 = Err(xhat', k)^2 + delta^2*n*l1(xhat)^2.
        n, B, delta, alpha, k = 256, 32, 1e-3, 0.25, 2
        fp = filter_cache.get(n, B, delta, alpha)
        xhat = complex_vector(rng, n, scale=0.05)
        spikes = rng.choice(n, size=k, replace=False)
        xhat[spikes] += 2.0
        target = int(rng.choice(np.setdiff1d(np.arange(n), spikes)))
        S = np.array([target])
        x = Signal(inverse_fft(xhat))
        l1 = np.sum(np.abs(xhat))
        rho_sq = tail_norm(xhat, k) ** 2 + delta**2 * n * l1**2
        bound = 2.0 * rho_sq / (alpha * B)

        # condition (sigma, b) on isolation of the target coordinate
        sigma_b = None
        while sigma_b is None:
            cand = random_params(rng, n)
            o = bucket_offset(cand, B, target)
            h_all = bucket_index(cand, B, np.arange(n))
            bucket = np.where(h_all == bucket_index(cand, B, target))[0]
            bucket_energy = np.sum(
                np.abs(xhat[np.setdiff1d(bucket, S)]) ** 2
            ) - np.abs(xhat[target]) ** 2
            if (
                abs(o) < (1 - alpha) * n / (2 * B)
                and bucket_energy < tail_norm(xhat, k) ** 2 / (alpha * B)
                and not np.any(np.isin(spikes, bucket))
            ):
                sigma_b = cand

        errs = []
        for _ in range(400):
            a = int(rng.integers(0, n))
            p = PermutationParams(sigma=sigma_b.sigma, a=a, b=sigma_b.b, n=n)
            u = hash_to_bins(x, None, p, fp)
            j = bucket_index(p, B, target)
            phase = np.exp((-2j * np.pi / n) * ((p.sigma * a % n) * target % n))
            errs.append(abs(u[j] - xhat[target] * phase) ** 2)
        errs = np.asarray(errs)
        se = errs.std(ddof=1) / np.sqrt(errs.size)
        assert errs.mean() <= bound + 3 * se
