"""Experiment orchestration: synthetic signals, trial runs, claim suites.

Signal models
-------------
``planted-sparse``        exactly k unit-magnitude tones with random phases.
``sparse-plus-gaussian``  planted tones plus i.i.d. complex Gaussian noise of
                          per-component deviation ``noise_sigma`` in every
                          frequency bin.
``adversarial-near-bucket`` tones planted in close pairs (closer than half a
                          first-round bucket width) to stress collisions.

Query models
------------
``exact-support``  the query set is exactly the planted support.
``superset``       half the queried frequencies carry planted tones, the rest
                   are unplanted (exercises the out-of-set error term).
``disjoint``       the query set misses the planted support entirely.

Trials are dispatched to a thread pool; each trial derives its own RNG
stream from the master seed, so results are deterministic for a fixed
config regardless of thread count, and records are emitted in trial order.
With ``include_timing=False`` the emitted JSON is byte-identical across
repeat runs; timing fields are the only nondeterministic payload.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .core import Signal, dft_oracle, fft, inverse_fft, restrict
from .filters import FilterCache, build_filter
from .permutation import permute_time_many, permuted_frequency, random_params
from .query import IterationStats, compute_schedule, set_query
from .verification import (
    EventStats,
    check_complex_expectation,
    check_omega_sum,
    check_pairwise_expectation,
    event_rate,
    well_isolated_rate,
)

__all__ = [
    "SIGNAL_MODELS",
    "QUERY_MODELS",
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentResult",
    "generate_signal",
    "build_query_set",
    "run_experiment",
    "ClaimCheck",
    "run_verification_suite",
    "summary_to_csv",
]

SIGNAL_MODELS = ("planted-sparse", "sparse-plus-gaussian", "adversarial-near-bucket")
QUERY_MODELS = ("exact-support", "superset", "disjoint")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    n: int = 4096
    k: int = 8
    eps: float = 0.5
    delta: float = 1e-3
    gamma: float = 0.25
    const_c: float = 4.0
    alpha_const: float = 200.0
    trials: int = 100
    seed: int = 0
    signal_model: str = "sparse-plus-gaussian"
    noise_sigma: float = 0.01
    query_model: str = "superset"
    threads: int = 1
    include_timing: bool = True

    def validate(self) -> None:
        try:
            compute_schedule(
                self.k, self.eps, self.delta, self.n, self.gamma,
                self.const_c, self.alpha_const,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.k > self.n:
            raise ConfigError(f"k={self.k} exceeds n={self.n}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.signal_model not in SIGNAL_MODELS:
            raise ConfigError(f"unknown signal model {self.signal_model!r}")
        if self.query_model not in QUERY_MODELS:
            raise ConfigError(f"unknown query model {self.query_model!r}")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError(
                f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}"
            )
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")


def planted_count(query_model: str, k: int) -> int:
    """Number of planted tones for a query set of size k."""
    return max(1, k // 2) if query_model == "superset" else k


def generate_signal(
    model: str,
    n: int,
    k: int,
    rng: np.random.Generator,
    noise_sigma: float = ExperimentConfig.noise_sigma,
    near_bucket_width: int | None = None,
) -> tuple[Signal, np.ndarray, np.ndarray]:
    """Synthesize (signal, exact spectrum, planted support).

    The time-domain samples are the inverse unitary transform of the
    constructed spectrum, so the returned spectrum is exact ground truth.
    """
    if k > n:
        raise ConfigError(f"cannot plant {k} tones in n={n} bins")
    spectrum = np.zeros(n, dtype=np.complex128)
    if model == "adversarial-near-bucket":
        gap = max(1, (near_bucket_width or max(n // 64, 2)) // 2 - 1)
        anchors = rng.choice(n // 2, size=(k + 1) // 2, replace=False) * 2
        support = []
        for a in anchors:
            support.append(int(a))
            if len(support) < k:
                support.append(int((a + gap) % n))
        support = np.unique(np.asarray(support[:k], dtype=np.int64))
    else:
        support = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
    spectrum[support] = np.exp(2j * np.pi * rng.random(support.size))
    if model == "sparse-plus-gaussian":
        spectrum = spectrum + noise_sigma * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
    elif model not in SIGNAL_MODELS:
        raise ConfigError(f"unknown signal model {model!r}")
    return Signal(inverse_fft(spectrum)), spectrum, support


def build_query_set(
    query_model: str,
    support: np.ndarray,
    n: int,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Choose the size-k query set for a trial under the given model."""
    support = np.asarray(support, dtype=np.int64)
    if query_model == "exact-support":
        return np.sort(support)
    if query_model not in QUERY_MODELS:
        raise ConfigError(f"unknown query model {query_model!r}")
    free = np.delete(np.arange(n, dtype=np.int64), support)
    if query_model == "superset":
        extra = rng.choice(free, size=k - support.size, replace=False)
        return np.sort(np.concatenate([support, extra]))
    return np.sort(rng.choice(free, size=k, replace=False))  # disjoint


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    error_lhs: float
    error_baseline: float  # ||xhat_S||^2, the all-zero estimate's lhs
    error_rhs_theorem: float
    error_rhs_proof: float
    success_theorem: bool
    success_proof: bool
    samples: int
    wall_time_ns: int | None
    clamped: bool
    unresolved: int
    iterations: tuple[IterationStats, ...]

    def to_json_dict(self) -> dict:
        d = asdict(self)
        if self.wall_time_ns is None:
            del d["wall_time_ns"]
        return d


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list[TrialRecord]
    summary: dict

    def to_jsonl(self) -> str:
        """One JSON line per trial record, then the summary line."""
        lines = [json.dumps(r.to_json_dict(), sort_keys=True) for r in self.records]
        lines.append(json.dumps({"summary": self.summary}, sort_keys=True))
        return "\n".join(lines) + "\n"


def error_sides(
    estimate_dense: np.ndarray,
    spectrum: np.ndarray,
    query_set: np.ndarray,
    eps: float,
    delta: float,
) -> tuple[float, float, float]:
    """(lhs, theorem rhs, proof-form rhs) of the error guarantee.

    lhs is the squared l2 error on the query set; the theorem form is
    eps*l2(off-set)^2 + delta*l1^2; the proof form replaces the l1 term with
    eps*delta^2*n*l1^2 and is the inequality the analysis actually derives.
    """
    n = spectrum.shape[0]
    lhs = float(np.linalg.norm(restrict(estimate_dense - spectrum, query_set)) ** 2)
    off = spectrum - restrict(spectrum, query_set)
    off_energy = float(np.linalg.norm(off) ** 2)
    l1sq = float(np.sum(np.abs(spectrum))) ** 2
    rhs_theorem = eps * off_energy + delta * l1sq
    rhs_proof = eps * (off_energy + delta**2 * n * l1sq)
    return lhs, rhs_theorem, rhs_proof


def _near_bucket_width(config: ExperimentConfig) -> int:
    schedule = compute_schedule(
        config.k, config.eps, config.delta, config.n, config.gamma,
        config.const_c, config.alpha_const,
    )
    return config.n // schedule.rows[0].buckets


def run_trial(
    config: ExperimentConfig,
    trial: int,
    seed_seq: np.random.SeedSequence,
    filters: FilterCache,
) -> TrialRecord:
    rng = np.random.default_rng(seed_seq)
    planted = planted_count(config.query_model, config.k)
    x, spectrum, support = generate_signal(
        config.signal_model,
        config.n,
        planted,
        rng,
        noise_sigma=config.noise_sigma,
        near_bucket_width=_near_bucket_width(config)
        if config.signal_model == "adversarial-near-bucket"
        else None,
    )
    S = build_query_set(config.query_model, support, config.n, config.k, rng)
    report = set_query(
        x,
        S,
        eps=config.eps,
        delta=config.delta,
        gamma=config.gamma,
        const_c=config.const_c,
        alpha_const=config.alpha_const,
        rng=rng,
        filters=filters,
    )
    lhs, rhs_t, rhs_p = error_sides(
        report.estimate.to_dense(), spectrum, S, config.eps, config.delta
    )
    if report.samples_used != x.samples_used:
        raise AssertionError("trial sample ledger out of sync with signal counter")
    return TrialRecord(
        trial=trial,
        seed=config.seed,
        error_lhs=lhs,
        error_baseline=float(np.sum(np.abs(spectrum[S]) ** 2)),
        error_rhs_theorem=rhs_t,
        error_rhs_proof=rhs_p,
        success_theorem=lhs <= rhs_t,
        success_proof=lhs <= rhs_p,
        samples=report.samples_used,
        wall_time_ns=report.wall_time_ns if config.include_timing else None,
        clamped=report.clamped_any,
        unresolved=int(report.unresolved.size),
        iterations=tuple(report.iterations),
    )


def _usable_cpus() -> int:
    """CPUs this process may run on (``os.cpu_count()`` where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials of a config; deterministic for a fixed seed."""
    config.validate()
    filters = FilterCache()
    root = np.random.SeedSequence(config.seed)
    children = root.spawn(config.trials)

    # map queues every trial at once, and the pool starts a worker per queued
    # trial up to max_workers: no more than the CPUs or the trials
    workers = min(config.threads, config.trials, _usable_cpus())
    with ThreadPoolExecutor(max_workers=workers) as pool:
        records = list(
            pool.map(
                lambda i: run_trial(config, i, children[i], filters),
                range(config.trials),
            )
        )

    samples = np.array([r.samples for r in records])
    summary = {
        "trials": config.trials,
        "success_rate_theorem": float(np.mean([r.success_theorem for r in records])),
        "success_rate_proof": float(np.mean([r.success_proof for r in records])),
        # trials an all-zero estimate would pass: there the bound says nothing
        "vacuous_fraction_theorem": float(
            np.mean([r.error_baseline <= r.error_rhs_theorem for r in records])
        ),
        "vacuous_fraction_proof": float(
            np.mean([r.error_baseline <= r.error_rhs_proof for r in records])
        ),
        "samples_min": int(samples.min()),
        "samples_mean": float(samples.mean()),
        "samples_max": int(samples.max()),
        "clamped_fraction": float(np.mean([r.clamped for r in records])),
        "unresolved_mean": float(np.mean([r.unresolved for r in records])),
        # what the config measures, without the fields that control the run
        "config": {
            k: v for k, v in asdict(config).items()
            if k not in ("trials", "threads", "include_timing")
        },
    }
    if config.include_timing:
        times = np.array([r.wall_time_ns for r in records], dtype=np.float64)
        summary["wall_time_ns_p50"] = float(np.percentile(times, 50))
        summary["wall_time_ns_p90"] = float(np.percentile(times, 90))
        summary["wall_time_ns_max"] = float(times.max())
    return ExperimentResult(config=config, records=records, summary=summary)


def summary_to_csv(summaries: list[dict]) -> str:
    """Flatten experiment summaries into a CSV table (one row per config)."""
    rows = []
    for s in summaries:
        flat = dict(s.get("config", {}))
        flat.update({k: v for k, v in s.items() if k != "config"})
        rows.append(flat)
    keys = sorted({k for row in rows for k in row})
    out = [",".join(keys)]
    for row in rows:
        out.append(",".join(str(row.get(k, "")) for k in keys))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class ClaimCheck:
    name: str
    passed: bool
    measured: float
    bound: float
    std_err: float = 0.0
    details: str = ""

    @classmethod
    def of(cls, name: str, stats: EventStats) -> "ClaimCheck":
        """The check that a Monte Carlo event rate is within its bound."""
        return cls(name, stats.within_bound, stats.rate, stats.bound, stats.std_err)

    def line(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return (
            f"[{tag}] {self.name}: measured={self.measured:.6g} "
            f"bound={self.bound:.6g} (se={self.std_err:.2g}) {self.details}"
        )


def run_verification_suite(
    n: int = 1024,
    trials: int = 10**4,
    seed: int = 0,
    filter_delta: float = 1e-3,
) -> list[ClaimCheck]:
    """Drive every probabilistic claim check; failures reported, not raised.

    Event grids size n per event: collisions run at the configured n, offsets
    at n=2**16 (integer offsets need wide buckets before the continuum bound
    is meaningful), the noise event at the configured n via enumeration.
    """
    rng = np.random.default_rng(seed)
    checks: list[ClaimCheck] = []

    # transform sanity: Parseval and oracle agreement
    x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    parseval = abs(np.linalg.norm(fft(x)) - np.linalg.norm(x)) / np.linalg.norm(x)
    checks.append(ClaimCheck("parseval-256", parseval <= 1e-12, parseval, 1e-12))
    dev = float(np.max(np.abs(fft(x) - dft_oracle(x))))
    checks.append(ClaimCheck("fft-vs-oracle-256", dev <= 1e-9, dev, 1e-9))

    # spectrum permutation identity at n=64
    xs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    worst = 0.0
    for _ in range(10):
        p = random_params(rng, 64)
        perm = permute_time_many(Signal(xs), p, np.arange(64))
        lhs = dft_oracle(perm)[permuted_frequency(p, np.arange(64))]
        e = p.sigma * p.a * np.arange(64) % 64  # reduced: exp sees arguments below 2*pi
        rhs = dft_oracle(xs) * np.exp((-2j * np.pi / 64) * e)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(ClaimCheck("spectrum-permutation-identity", worst <= 1e-9, worst, 1e-9))

    # filter properties at (n, 32, filter_delta, 1/4)
    fp = build_filter(n, 32, filter_delta, 0.25)
    checks.append(
        ClaimCheck(
            "filter-leakage",
            fp.leakage <= filter_delta,
            fp.leakage,
            filter_delta,
            details=f"support={fp.support_size} c_f={fp.support_constant:.3f}",
        )
    )

    # event rates
    for B in (32, 64, 128):
        for size in (4, 8, 16):
            S = rng.choice(n, size=size, replace=False)
            st = event_rate("collision", int(S[0]), S, n, B, trials, rng)
            checks.append(ClaimCheck.of(f"collision-B{B}-S{size}", st))
    n_off = 1 << 16
    for B in (32, 64, 128):
        for alpha in (1 / 8, 1 / 16):
            st = event_rate("offset", 1, [1], n_off, B, trials, rng, alpha=alpha)
            checks.append(ClaimCheck.of(f"offset-B{B}-a{alpha:g}", st))
    resid = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.05
    spikes = rng.choice(n, size=2, replace=False)
    resid[spikes] += 3.0
    S = rng.choice(np.setdiff1d(np.arange(n), spikes), size=8, replace=False)
    for B in (32, 64, 128):
        for alpha in (1 / 8, 1 / 16):
            st = event_rate(
                "noise", int(S[0]), S, n, B, trials, rng,
                alpha=alpha, residual_spectrum=resid, k=2,
            )
            checks.append(ClaimCheck.of(f"noise-B{B}-a{alpha:g}", st))

    # union-bound composition: isolation failure rate <= 6*alpha
    st = well_isolated_rate(int(S[0]), S, resid, n, 64, 1 / 8, 2, 2000, rng)
    checks.append(ClaimCheck.of("well-isolated-union", st))

    # expectation identities
    mean, target, se = check_pairwise_expectation(rng.standard_normal(16), 10**5, rng)
    checks.append(
        ClaimCheck(
            "pairwise-sign-expectation", abs(mean - target) <= 3 * se,
            mean, target, se,
        )
    )
    xs = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    mean, target = check_complex_expectation(xs, 7)
    checks.append(
        ClaimCheck(
            "complex-modulation-expectation",
            abs(mean - target) <= 1e-10 * target, mean, target,
        )
    )
    worst = max(abs(check_omega_sum(n, i)) for i in range(1, min(n, 1024)))
    checks.append(ClaimCheck("omega-geometric-sum", worst <= 1e-12, worst, 1e-12))
    return checks
