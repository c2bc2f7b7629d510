"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each test also enforces its tolerance and runtime budget with asserts.
"""

import time

import numpy as np
import pytest

from setquery.bins import hash_to_bins
from setquery.core import Signal, SparseSpectrum, dft_oracle, fft, inverse_fft
from setquery.harness import ExperimentConfig, run_experiment
from setquery.permutation import (
    permute_time_many,
    permuted_frequency,
    random_params,
)
from setquery.query import set_query
from setquery.verification import (
    check_complex_expectation,
    check_omega_sum,
    check_pairwise_expectation,
    event_rate,
)

from conftest import complex_vector
from test_bins import explicit_bins


def verdict(name, ok, detail, elapsed, budget):
    line = (
        f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    print(line)
    assert ok, line
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]:
        x = complex_vector(rng, n)
        worst = max(worst, float(np.max(np.abs(fft(x) - dft_oracle(x)))))
    worst_parseval = 0.0
    for _ in range(1000):
        x = complex_vector(rng, 256)
        rel = abs(np.linalg.norm(fft(x)) - np.linalg.norm(x)) / np.linalg.norm(x)
        worst_parseval = max(worst_parseval, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and worst_parseval <= 1e-12
    verdict(
        "criterion 1 oracle agreement",
        ok,
        f"max fft dev {worst:.2e} (<=1e-9), parseval {worst_parseval:.2e} (<=1e-12)",
        elapsed,
        10,
    )


def test_criterion_2_spectrum_permutation_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in (64, 256):
        i = np.arange(n)
        for _ in range(50):
            x = complex_vector(rng, n)
            xhat = dft_oracle(x)
            p = random_params(rng, n)
            perm = permute_time_many(Signal(x), p, i)
            lhs = dft_oracle(perm)[permuted_frequency(p, i)]
            rhs = xhat * np.exp((-2j * np.pi / n) * p.sigma * p.a * i)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 2 spectrum-permutation identity",
        worst <= 1e-9,
        f"max per-entry dev {worst:.2e} (<=1e-9) over 100 draws",
        elapsed,
        10,
    )


def test_criterion_3_filter_properties(filter_cache):
    t0 = time.perf_counter()
    reports = []
    ok = True
    for n in (1024, 4096):
        for B in (32, 64):
            for delta in (1e-2, 1e-3):
                for alpha in (0.25, 0.125):
                    fp = filter_cache.get(n, B, delta, alpha)
                    i = np.arange(n)
                    d = np.abs(((i + n // 2) % n) - n // 2)
                    resp = fp.response(i)
                    spectrum = dft_oracle(fp.window_dense())
                    leak = float(np.max(np.abs(spectrum - resp)))
                    flat_dev = float(
                        np.max(np.abs(spectrum[d <= fp.flat_radius] - 1.0))
                    )
                    budget = 4.0 * B * np.log(n / delta) / alpha
                    props = (
                        fp.support_size <= budget
                        and np.all(resp[d <= fp.flat_radius] == 1.0)
                        and np.all(resp[d >= fp.stop_radius] == 0.0)
                        and np.all((resp >= 0) & (resp <= 1))
                        and leak <= delta
                        and flat_dev <= delta
                    )
                    ok = ok and bool(props)
                    reports.append(fp.support_constant)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 3 filter properties",
        ok,
        f"16 builds, all five properties hold; c_f in "
        f"[{min(reports):.2f}, {max(reports):.2f}]",
        elapsed,
        60,
    )


def test_criterion_4_hash_to_bins_contract(filter_cache):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    checked = 0
    ok = True
    for n in (256, 1024):
        for _ in range(50):
            B = int(rng.choice([32, 64]))
            delta = float(rng.choice([1e-2, 1e-3]))
            alpha = float(rng.choice([0.25, 0.125]))
            k = int(rng.integers(1, B // 8 + 1))
            fp = filter_cache.get(n, B, delta, alpha)
            support = rng.choice(n, size=k, replace=False)
            xhat = np.zeros(n, dtype=complex)
            xhat[support] = np.exp(2j * np.pi * rng.random(k))
            xhat += complex_vector(rng, n, scale=0.01)
            x = Signal(inverse_fft(xhat))
            z = None
            if rng.random() < 0.5:
                z = SparseSpectrum(
                    n, {int(s): xhat[s] * 0.9 for s in support[: max(k // 2, 1)]}
                )
            p = random_params(rng, n)
            u = hash_to_bins(x, z, p, fp)
            ref = explicit_bins(dft_oracle(x), z, p, fp)
            dev = float(np.max(np.abs(u - ref)))
            ok = ok and dev <= delta * float(np.sum(np.abs(xhat)))
            checked += 1
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 4 hash-to-bins contract",
        ok and checked == 100,
        f"{checked} instances within delta*l1 of the explicit sum",
        elapsed,
        60,
    )


def test_criterion_5_event_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    trials = 10**4
    ok = True
    details = []

    n = 1024
    for B in (32, 64, 128):
        for size in (4, 8, 16):
            S = rng.choice(n, size=size, replace=False)
            st = event_rate("collision", int(S[0]), S, n, B, trials, rng)
            ok = ok and st.within_bound
    details.append("collision 9/9")

    n_off = 1 << 16  # wide buckets: integer offsets need n/B >> 1/alpha
    for B in (32, 64, 128):
        for alpha in (1 / 8, 1 / 16):
            st = event_rate("offset", 1, [1], n_off, B, trials, rng, alpha=alpha)
            ok = ok and st.within_bound
    details.append("offset 6/6")

    n = 1024
    resid = complex_vector(rng, n, scale=0.05)
    spikes = rng.choice(n, size=2, replace=False)
    resid[spikes] += 3.0
    S = rng.choice(np.setdiff1d(np.arange(n), spikes), size=8, replace=False)
    for B in (32, 64, 128):
        for alpha in (1 / 8, 1 / 16):
            st = event_rate(
                "noise", int(S[0]), S, n, B, trials, rng,
                alpha=alpha, residual_spectrum=resid, k=2,
            )
            ok = ok and st.within_bound
    details.append("noise 6/6")

    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 5 event bounds",
        ok,
        f"{', '.join(details)} all within bound +3se over {trials} draws",
        elapsed,
        120,
    )


def test_criterion_6_appendix_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    x = complex_vector(rng, 256)
    mean, target = check_complex_expectation(x, 9)
    complex_ok = abs(mean - target) <= 1e-10 * target

    omega_worst = max(abs(check_omega_sum(1024, i)) for i in range(1, 1024))
    omega_ok = omega_worst <= 1e-12

    m, tgt, se = check_pairwise_expectation(rng.standard_normal(16), 10**5, rng)
    pairwise_ok = abs(m - tgt) <= 3 * se

    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 6 appendix identities",
        complex_ok and omega_ok and pairwise_ok,
        f"complex exact ({abs(mean-target):.1e}), omega sum <= {omega_worst:.1e}, "
        f"pairwise |dev|/se = {abs(m-tgt)/se:.2f}",
        elapsed,
        30,
    )


# the end-to-end configuration that criteria 7 and 10 judge
END_TO_END = ExperimentConfig(
    n=4096, k=8, eps=0.5, delta=1e-3, gamma=0.25, const_c=4.0,
    alpha_const=200.0, trials=100, seed=707,
    signal_model="sparse-plus-gaussian", noise_sigma=0.01,
    query_model="superset",
)


@pytest.fixture(scope="module")
def end_to_end():
    """The END_TO_END run and its seconds, made once for both criteria that judge it.

    Each criterion adds those seconds to its own, so its runtime budget still
    covers the run.
    """
    t0 = time.perf_counter()
    res = run_experiment(END_TO_END)
    return res, time.perf_counter() - t0


def test_criterion_7_end_to_end_error_bound(end_to_end):
    res, run_seconds = end_to_end
    t0 = time.perf_counter() - run_seconds
    proof_rate = res.summary["success_rate_proof"]
    theorem_rate = res.summary["success_rate_theorem"]
    vacuous_proof = res.summary["vacuous_fraction_proof"]

    # paper constants are not reproducible at desk scale (B_1 > n); one smoke
    # trial drives the clamped degenerate path end to end
    smoke = run_experiment(
        ExperimentConfig(
            n=1024, k=4, eps=0.5, delta=1e-3, gamma=1 / 1000, const_c=1000.0,
            alpha_const=200.0, trials=1, seed=7, signal_model="planted-sparse",
            query_model="exact-support",
        )
    )
    smoke_ok = smoke.records[0].clamped and smoke.summary["success_rate_proof"] == 1.0

    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 7 end-to-end error bound",
        proof_rate >= 0.9 and smoke_ok,
        f"proof-form rate {proof_rate:.2f} (>=0.9; vacuous_fraction_proof "
        f"{vacuous_proof:.2f}, the all-zero estimate's rate); theorem-form rate "
        f"{theorem_rate:.2f} (reported); clamped smoke trial ok",
        elapsed,
        120,
    )


def test_criterion_8_sample_complexity_scaling():
    t0 = time.perf_counter()
    delta = 0.2
    profile = dict(
        delta=delta, gamma=1 / 16, const_c=1.0, alpha_const=1.25,
        signal_model="planted-sparse", noise_sigma=0.0,
        query_model="exact-support", trials=1, seed=808,
    )
    constants = {}
    sublinear_ok = True
    for n in (1024, 4096):
        for k in (4, 8, 16):
            for eps in (0.25, 0.5):
                res = run_experiment(ExperimentConfig(n=n, k=k, eps=eps, **profile))
                samples = res.summary["samples_max"]
                constants[(n, k, eps)] = samples / (k / eps * np.log(n / delta))
                if n == 4096 and samples >= n / 2:
                    sublinear_ok = False
    vals = np.array(list(constants.values()))
    mean_c = float(vals.mean())
    stable = bool(vals.max() <= 1.5 * mean_c and vals.min() >= 0.5 * mean_c)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 8 sample-complexity scaling",
        stable and sublinear_ok,
        f"fitted c in [{vals.min():.2f}, {vals.max():.2f}] around mean "
        f"{mean_c:.2f} (+-50%); all n=4096 points < n/2",
        elapsed,
        300,
    )


def test_criterion_9_exact_sparse_recovery(filter_cache):
    t0 = time.perf_counter()
    n, k = 4096, 8
    good = 0
    worst = 0.0
    for seed_seq in np.random.SeedSequence(909).spawn(100):
        rng = np.random.default_rng(seed_seq)
        support = rng.choice(n, size=k, replace=False)
        xhat = np.zeros(n, dtype=complex)
        xhat[support] = np.exp(2j * np.pi * rng.random(k))
        x = Signal(inverse_fft(xhat))
        rep = set_query(
            x, support, eps=0.5, delta=1e-3, gamma=0.25, const_c=4.0,
            rng=rng, filters=filter_cache,
        )
        rel = max(
            abs(rep.estimate.get(int(t)) - xhat[t]) / abs(xhat[t]) for t in support
        )
        worst = max(worst, rel)
        good += int(rel <= 1e-3)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 9 exact-sparse recovery",
        good >= 95,
        f"{good}/100 trials with every coefficient within 1e-3 relative "
        f"(worst {worst:.1e})",
        elapsed,
        60,
    )


def test_criterion_10_gate_an_all_zero_estimate_fails(end_to_end):
    # Criterion 7's proof-form rhs exceeds ||xhat_S||^2 on every trial, so
    # answering zeros passes it; the theorem form at the same config does not
    # let zeros through, which makes it the informative end-to-end gate.
    res, run_seconds = end_to_end
    t0 = time.perf_counter() - run_seconds
    theorem_rate = res.summary["success_rate_theorem"]
    vacuous = res.summary["vacuous_fraction_theorem"]
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 10 informative end-to-end gate",
        theorem_rate >= 0.9 and vacuous <= 0.1,
        f"theorem-form rate {theorem_rate:.2f} (>=0.9); vacuous_fraction_theorem "
        f"{vacuous:.2f} (<=0.1), the all-zero estimate's rate",
        elapsed,
        120,
    )
