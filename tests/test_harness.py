import functools
import json
import tracemalloc

import numpy as np
import pytest

from setquery import cli, harness
from setquery.cli import main
from setquery.harness import (
    ConfigError,
    ExperimentConfig,
    build_query_set,
    generate_signal,
    planted_count,
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

    def test_exact_support_allocates_nothing_of_length_n(self, rng):
        # the free frequencies (8 bytes each, 8 MiB at this n) are only
        # built for the models that draw from them
        support = np.arange(8, dtype=np.int64) * 1000
        tracemalloc.start()
        try:
            S = build_query_set("exact-support", support, 1 << 20, 8, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(S, support)
        assert peak < 1 << 20

    def test_rejects_unknown_model(self, rng):
        with pytest.raises(ConfigError):
            build_query_set("nope", np.arange(4), 256, 4, rng)

    @pytest.mark.parametrize("query_model, n", [
        ("exact-support", 1024),
        ("superset", 1024),
        ("disjoint", 1024),
        ("superset", 1 << 18),  # the sampling profile's set-up
    ])
    def test_matches_set_difference_reference(self, query_model, n):
        k = 8
        _, _, support = generate_signal(
            "planted-sparse", n, planted_count(query_model, k), np.random.default_rng(7)
        )
        S = build_query_set(query_model, support, n, k, np.random.default_rng(8))
        # the free frequencies as np.setdiff1d computes them
        rng = np.random.default_rng(8)
        free = np.setdiff1d(np.arange(n, dtype=np.int64), support)
        if query_model == "exact-support":
            want = np.sort(support)
        elif query_model == "superset":
            extra = rng.choice(free, size=k - support.size, replace=False)
            want = np.sort(np.concatenate([support, extra]))
        else:
            want = np.sort(rng.choice(free, size=k, replace=False))
        assert S.dtype == want.dtype and np.array_equal(S, want)


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

    def test_pool_starts_at_most_the_trials_and_the_cpus(self, monkeypatch):
        started = []

        class SerialPool:  # records max_workers and starts no thread
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", SerialPool)
        res = run_experiment(ExperimentConfig(n=256, k=4, trials=3, threads=10**6))
        assert len(res.records) == 3
        assert len(started) == 1 and 1 <= started[0] <= 3

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

    @pytest.mark.parametrize("query_model", ["superset", "exact-support"])
    def test_baseline_is_the_all_zero_estimates_error(self, monkeypatch, query_model):
        # error_sides sees each trial's truth as run_trial drew it; judge the
        # all-zero estimate on that same truth
        error_sides, zero_lhs = harness.error_sides, []

        def spy(estimate, spectrum, S, eps, delta):
            zero_lhs.append(error_sides(np.zeros_like(spectrum), spectrum, S, eps, delta)[0])
            return error_sides(estimate, spectrum, S, eps, delta)

        monkeypatch.setattr(harness, "error_sides", spy)
        cfg = ExperimentConfig(n=1024, k=8, trials=12, seed=4, query_model=query_model,
                               include_timing=False)
        res = run_experiment(cfg)
        got = [r.error_baseline for r in res.records]
        assert got == pytest.approx(zero_lhs, rel=1e-12)
        for form in ("theorem", "proof"):
            rhs = [getattr(r, f"error_rhs_{form}") for r in res.records]
            want = float(np.mean([b <= r for b, r in zip(got, rhs)]))
            assert res.summary[f"vacuous_fraction_{form}"] == want

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

    def test_overflowing_schedule_clamps_buckets(self, capsys):
        args = ["query", "--eps", "1e-310", "--gamma", "0.001", "--const-c", "1000",
                "--no-timing"]
        assert main(args) == 0
        record = json.loads(capsys.readouterr().out.split("\n")[0])
        assert record["clamped"] and record["iterations"][0]["buckets"] == 4096

    def test_gamma_near_one_runs(self, capsys):
        # (10*gamma)**i would overflow near round 309 of the 2,079 rounds
        # that log_{1/gamma} k allows; the schedule ends at its B = n row
        args = ["query", "--n", "4096", "--k", "8", "--gamma", "0.999", "--trials", "1",
                "--no-timing"]
        assert main(args) == 0
        record = json.loads(capsys.readouterr().out.split("\n")[0])
        assert [it["buckets"] for it in record["iterations"]] == [4096]

    def test_filter_build_failure_exits_1(self, capsys):
        sampling = ["--n", "16384", "--gamma", "0.0625", "--const-c", "1",
                    "--alpha-const", "1.25", "--no-timing"]
        for args in [
            ["filter-info", "--delta", "1e-320"],
            ["verify", "--delta", "1e-320"],
            ["query", "--delta", "1e-300"] + sampling,
            ["query", "--delta", "1e-320"] + sampling,
        ]:
            assert main(args) == 1, args
            assert capsys.readouterr().err.startswith("filter build failed: "), args

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

    def test_bench_gate_refuses_a_vacuous_theorem_rate(self, capsys):
        # exact-support sampling profile: both rates are 1.0, but the all-zero
        # estimate would pass every trial too (most of S stays unresolved)
        code = main([
            "bench", "--n", "4096", "--k", "8", "--eps", "0.5", "--delta", "0.2",
            "--gamma", "0.0625", "--const-c", "1", "--alpha-const", "1.25",
            "--signal-model", "planted-sparse", "--query-model", "exact-support",
            "--trials", "20", "--no-timing", "--require-success-rate", "0.9",
        ])
        out, err = capsys.readouterr()
        summary = json.loads(out.strip().split("\n")[-1])["summary"]
        assert min(summary["success_rate_theorem"], summary["success_rate_proof"]) >= 0.9
        assert summary["vacuous_fraction_theorem"] > 0.1
        assert code == 1
        assert "n=4096 k=8 eps=0.5" in err
        for key in ("success_rate_theorem", "success_rate_proof",
                    "vacuous_fraction_theorem", "vacuous_fraction_proof"):
            assert f"{key}={summary[key]}" in err, key

    def test_bench_gate_passes_an_informative_point(self, capsys):
        # the acceptance suite's END_TO_END config, at 20 trials: the
        # theorem form is informative on every trial and met on every trial
        code = main([
            "bench", "--n", "4096", "--k", "8", "--eps", "0.5", "--delta", "1e-3",
            "--gamma", "0.25", "--const-c", "4", "--alpha-const", "200",
            "--signal-model", "sparse-plus-gaussian", "--noise-sigma", "0.01",
            "--query-model", "superset", "--trials", "20", "--seed", "707",
            "--no-timing", "--require-success-rate", "0.9",
        ])
        out, err = capsys.readouterr()
        summary = json.loads(out.strip().split("\n")[-1])["summary"]
        assert summary["vacuous_fraction_theorem"] <= 0.1
        assert (code, err) == (0, "")

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

    def test_unusable_path_or_n_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.fil"  # a 36-byte cache file whose header says n = 2**50
        big.write_bytes(b"SQFL" + np.array([2.0**50, 32.0, 1e-3, 0.25], dtype="<f8").tobytes())
        # numpy refuses a length-2**50 array before touching memory: it is
        # beyond the address space; a smaller n could be overcommitted
        for args in [
            ["filter-info", "--load", str(tmp_path / "missing.fil")],
            ["query", "--n", "256", "--k", "4", "--out", str(tmp_path / "no-dir" / "x.jsonl")],
            ["query", "--n", str(2**50)],
            ["filter-info", "--load", str(big)],
        ]:
            assert main(args) == 2, args
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("cannot run: ") and err.count("\n") == 1, args

    def test_unwritable_out_exits_2_before_any_trial(self, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "run_experiment", ran.append)
        # the parser reads the suite's defaults from its signature
        suite = functools.wraps(cli.run_verification_suite)(lambda **kw: ran.append(kw))
        monkeypatch.setattr(cli, "run_verification_suite", suite)
        out = str(tmp_path / "no-dir" / "x.jsonl")
        for args in [["query", "--n", "65536", "--k", "32", "--trials", "20"],
                     ["verify", "--n", "256", "--trials", "10"]]:
            assert main(args + ["--out", out]) == 2, args
            assert capsys.readouterr().err.startswith("cannot run: ")
        assert ran == []

    def test_out_is_written_only_when_the_command_returns(self, tmp_path, capsys):
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        old.write_text("kept\n")
        for out in (old, new):
            assert main(["bench", "--require-success-rate", "2", "--out", str(out)]) == 2
        assert old.read_text() == "kept\n" and not new.exists()
        cache = tmp_path / "w.fil"
        assert main(["filter-info", "--n", "256", "--b", "16", "--save", str(cache)]) == 0
        assert main(["filter-info", "--load", str(cache), "--out", str(cache)]) == 0
        assert json.loads(cache.read_text())["n"] == 256

    def test_filter_info_gapped_cache_exits_2(self, tmp_path, capsys):
        cache = tmp_path / "w.fil"
        assert main(["filter-info", "--n", "1024", "--b", "32", "--save", str(cache),
                     "--out", str(tmp_path / "info.json")]) == 0
        raw = cache.read_bytes()
        pairs = np.frombuffer(raw, dtype="<f8", offset=4 + 32).reshape(-1, 2)
        cache.write_bytes(raw[: 4 + 32] + np.delete(pairs, 1, axis=0).tobytes())
        assert main(["filter-info", "--load", str(cache)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "one run" in err

    @pytest.mark.parametrize("row, col, value", [
        (10, 1, float("nan")), (10, 1, float("inf")), (0, 0, -505.5), (0, 0, 1e30),
    ])
    def test_filter_info_malformed_pair_exits_2(self, tmp_path, capsys, row, col, value):
        cache = tmp_path / "w.fil"
        assert main(["filter-info", "--n", "1024", "--b", "32", "--save", str(cache),
                     "--out", str(tmp_path / "info.json")]) == 0
        raw = cache.read_bytes()
        values = np.frombuffer(raw, dtype="<f8", offset=4).copy()
        values[4 + 2 * row + col] = value
        cache.write_bytes(raw[:4] + values.tobytes())
        assert main(["filter-info", "--load", str(cache)]) == 2
        assert capsys.readouterr().out == ""

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
