import json

import numpy as np
import pytest

from setquery.cli import main
from setquery.harness import (
    ConfigError,
    ExperimentConfig,
    build_query_set,
    generate_signal,
    run_experiment,
    run_verification_suite,
    summary_to_csv,
)


class TestGenerateSignal:
    def test_planted_sparse_support(self, rng):
        x, spectrum, support = generate_signal("planted-sparse", 256, 4, rng)
        nz = np.nonzero(spectrum)[0]
        assert np.array_equal(nz, support) and support.size == 4
        assert np.allclose(np.abs(spectrum[support]), 1.0)

    def test_signal_matches_spectrum(self, rng):
        from setquery.core import dft_oracle

        x, spectrum, _ = generate_signal("planted-sparse", 128, 3, rng)
        assert np.max(np.abs(dft_oracle(x.data) - spectrum)) <= 1e-10

    def test_noise_energy_concentration(self, rng):
        # noise l2^2 over n bins: mean 2*n*sigma^2, sd 2*sigma^2*sqrt(n)
        n, sigma = 1024, 0.01
        x, spectrum, support = generate_signal(
            "sparse-plus-gaussian", n, 2, rng, noise_sigma=sigma
        )
        noise = spectrum.copy()
        noise[support] -= spectrum[support] / np.abs(spectrum[support])
        energy = np.linalg.norm(noise) ** 2
        mean, sd = 2 * n * sigma**2, 2 * sigma**2 * np.sqrt(2 * n)
        assert abs(energy - mean) <= 5 * sd + 2.5  # tone/noise overlap slack

    def test_near_bucket_pairs(self, rng):
        width = 64
        x, spectrum, support = generate_signal(
            "adversarial-near-bucket", 1024, 4, rng, near_bucket_width=width
        )
        gaps = np.abs(np.subtract.outer(support, support))
        gaps = np.minimum(gaps, 1024 - gaps)
        off_diag = gaps[np.triu_indices_from(gaps, k=1)]
        assert np.min(off_diag) < width / 2

    def test_rejects_overfull(self, rng):
        with pytest.raises(ConfigError):
            generate_signal("planted-sparse", 16, 17, rng)


class TestQueryModels:
    def test_exact_support(self, rng):
        _, _, support = generate_signal("planted-sparse", 256, 6, rng)
        S = build_query_set("exact-support", support, 256, 6, rng)
        assert np.array_equal(S, np.sort(support))

    def test_superset_contains_support(self, rng):
        _, _, support = generate_signal("planted-sparse", 256, 4, rng)
        S = build_query_set("superset", support, 256, 8, rng)
        assert S.size == 8
        assert set(support.tolist()) < set(S.tolist())

    def test_disjoint_misses_support(self, rng):
        _, _, support = generate_signal("planted-sparse", 256, 4, rng)
        S = build_query_set("disjoint", support, 256, 4, rng)
        assert S.size == 4
        assert not set(support.tolist()) & set(S.tolist())


class TestRunExperiment:
    def test_planted_sparse_all_succeed(self):
        cfg = ExperimentConfig(
            n=512, k=4, eps=0.5, delta=1e-3, trials=10, seed=11,
            signal_model="planted-sparse", noise_sigma=0.0,
            query_model="exact-support",
        )
        res = run_experiment(cfg)
        assert res.summary["success_rate_proof"] == 1.0
        assert all(r.error_lhs >= 0 for r in res.records)
        assert all(r.samples <= cfg.n for r in res.records)

    def test_byte_identical_without_timing(self):
        cfg = ExperimentConfig(n=256, k=4, trials=5, seed=3, include_timing=False)
        a = run_experiment(cfg).to_jsonl()
        b = run_experiment(cfg).to_jsonl()
        assert a == b

    def test_seed_changes_records(self):
        base = dict(n=256, k=4, trials=5, include_timing=False)
        a = run_experiment(ExperimentConfig(seed=1, **base)).to_jsonl()
        b = run_experiment(ExperimentConfig(seed=2, **base)).to_jsonl()
        assert a != b

    def test_threads_do_not_change_results(self):
        base = dict(n=256, k=4, trials=8, seed=5, include_timing=False)
        a = run_experiment(ExperimentConfig(threads=1, **base)).to_jsonl()
        b = run_experiment(ExperimentConfig(threads=4, **base)).to_jsonl()
        assert a == b

    def test_records_are_valid_jsonl(self):
        cfg = ExperimentConfig(n=256, k=4, trials=3, seed=7)
        out = run_experiment(cfg).to_jsonl()
        lines = out.strip().split("\n")
        assert len(lines) == 4  # 3 records + summary
        parsed = [json.loads(line) for line in lines]
        assert all("error_lhs" in p for p in parsed[:-1])
        assert "summary" in parsed[-1]
        assert all("wall_time_ns" in p for p in parsed[:-1])

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n=256, k=4, eps=1.5).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(n=256, k=300).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(signal_model="nope").validate()

    def test_summary_csv_has_config_columns(self):
        cfg = ExperimentConfig(n=256, k=4, trials=2, seed=1)
        res = run_experiment(cfg)
        csv = summary_to_csv([res.summary])
        header, row = csv.strip().split("\n")
        assert "success_rate_proof" in header and "n" in header.split(",")


class TestVerificationSuite:
    def test_quick_suite_passes(self):
        checks = run_verification_suite(n=256, trials=2000, seed=0)
        failed = [c.name for c in checks if not c.passed]
        assert failed == []
        names = {c.name for c in checks}
        assert "omega-geometric-sum" in names
        assert any(name.startswith("collision-") for name in names)


class TestCli:
    def test_bad_config_exits_2(self, capsys):
        assert main(["query", "--n", "256", "--k", "4", "--eps", "1.5"]) == 2
        for flag, value in [
            ("--const-c", "inf"), ("--const-c", "nan"),
            ("--alpha-const", "inf"), ("--alpha-const", "nan"),
            ("--gamma", "inf"), ("--gamma", "nan"),
            ("--noise-sigma", "inf"), ("--noise-sigma", "nan"),
        ]:
            args = ["query", "--n", "1024", "--trials", "1", flag, value]
            assert main(args) == 2, (flag, value)

    def test_verify_bucket_count_above_n_exits_2(self, capsys):
        assert main(["verify", "--n", "64", "--trials", "1000"]) == 2
        assert "bucket count 128 must divide n=64" in capsys.readouterr().err

    def test_bench_gate_reads_theorem_rate(self, capsys):
        # sampling profile: every proof-form check passes, the theorem form
        # does not (half the query set is unplanted)
        code = main([
            "bench", "--n", "4096", "--k", "8", "--eps", "0.5", "--delta", "0.2",
            "--gamma", "0.0625", "--const-c", "1", "--alpha-const", "1.25",
            "--signal-model", "planted-sparse", "--query-model", "superset",
            "--trials", "20", "--no-timing", "--require-success-rate", "0.9",
        ])
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])["summary"]
        assert summary["success_rate_proof"] == 1.0
        assert summary["success_rate_theorem"] < 0.9
        assert code == 1

    def test_bench_gate_rejects_bad_input(self, capsys):
        grid = ["bench", "--n", "256", "--k", "4", "--eps", "0.5", "--trials", "1"]
        for rate in ["nan", "-0.5", "1.5", "inf"]:
            assert main(grid + ["--require-success-rate", rate]) == 2, rate
        for flag in ["--n", "--k", "--eps"]:
            assert main(grid + [flag, ""]) == 2, flag
        assert capsys.readouterr().out == ""

    def test_query_writes_jsonl(self, tmp_path):
        out = tmp_path / "records.jsonl"
        code = main([
            "query", "--n", "256", "--k", "4", "--trials", "2",
            "--seed", "1", "--out", str(out), "--no-timing",
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        json.loads(lines[0])

    def test_query_csv_summary(self, tmp_path):
        out = tmp_path / "summary.csv"
        code = main([
            "query", "--n", "256", "--k", "4", "--trials", "2",
            "--seed", "1", "--format", "csv", "--out", str(out),
        ])
        assert code == 0
        assert "success_rate_proof" in out.read_text()

    def test_filter_info_save_load(self, tmp_path):
        cache = tmp_path / "w.fil"
        out = tmp_path / "info.json"
        assert main([
            "filter-info", "--n", "256", "--b", "32", "--delta", "1e-2",
            "--alpha", "0.25", "--save", str(cache), "--out", str(out),
        ]) == 0
        assert main([
            "filter-info", "--load", str(cache), "--out", str(out),
        ]) == 0
        info = json.loads(out.read_text())
        assert info["n"] == 256 and info["buckets"] == 32

    def test_filter_info_bad_cache_exits_2(self, tmp_path):
        bad = tmp_path / "bad.fil"
        header = np.array([1000.0, 8.0, 1e-2, 0.25], dtype="<f8")  # n not a power of two
        bad.write_bytes(b"SQFL" + header.tobytes())
        assert main(["filter-info", "--load", str(bad)]) == 2

    def test_bench_grid_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main([
            "bench", "--n", "256", "--k", "2,4", "--eps", "0.5",
            "--trials", "1", "--seed", "2", "--format", "csv",
            "--out", str(out), "--no-timing",
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3  # header + two grid points
