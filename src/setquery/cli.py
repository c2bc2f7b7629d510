"""Command-line front end.

Subcommands: ``query`` (a one-point ``bench``), ``bench`` (grid experiment),
``verify`` (claim suite), ``filter-info`` (build and report a filter).  Exit
codes: 0 success, 1 acceptance failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

from .filters import FilterBuildError, build_filter, load_filter, save_filter
from .harness import (
    QUERY_MODELS,
    SIGNAL_MODELS,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    run_verification_suite,
    summary_to_csv,
)

EXIT_OK = 0
EXIT_ACCEPTANCE_FAILURE = 1
EXIT_BAD_CONFIG = 2


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _add_run_flags(sub: argparse.ArgumentParser, grid: bool, trials: int) -> None:
    d = ExperimentConfig()
    if grid:
        sub.add_argument("--n", type=_int_list, default=[1024, 4096])
        sub.add_argument("--k", type=_int_list, default=[4, 8, 16])
        sub.add_argument("--eps", type=_float_list, default=[0.25, 0.5])
    else:
        sub.add_argument("--n", type=int, default=d.n)
        sub.add_argument("--k", type=int, default=d.k)
        sub.add_argument("--eps", type=float, default=d.eps)
    sub.add_argument("--delta", type=float, default=d.delta)
    sub.add_argument("--gamma", type=float, default=d.gamma)
    sub.add_argument("--const-c", type=float, default=d.const_c)
    sub.add_argument("--alpha-const", type=float, default=d.alpha_const)
    # the CLI's own trial counts, far below the config's: quick by default
    sub.add_argument("--trials", type=int, default=trials)
    sub.add_argument("--seed", type=int, default=d.seed)
    sub.add_argument("--signal-model", default=d.signal_model, choices=SIGNAL_MODELS)
    sub.add_argument("--noise-sigma", type=float, default=d.noise_sigma)
    sub.add_argument("--query-model", default=d.query_model, choices=QUERY_MODELS)
    sub.add_argument("--out", default=None, help="write output here instead of stdout")
    sub.add_argument("--format", default="jsonl", choices=["jsonl", "csv"])
    sub.add_argument("--threads", type=int, default=d.threads)
    sub.add_argument("--no-timing", action="store_true",
                     help="omit wall times for byte-identical reruns")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _run_grid(args, ns, ks, epss, require_rate: float | None = None) -> int:
    """Run every (n, k, eps) point, emit records or summaries, apply the gate."""
    results = [
        run_experiment(ExperimentConfig(
            n=n, k=k, eps=eps, delta=args.delta, gamma=args.gamma,
            const_c=args.const_c, alpha_const=args.alpha_const,
            trials=args.trials, seed=args.seed, signal_model=args.signal_model,
            noise_sigma=args.noise_sigma, query_model=args.query_model,
            threads=args.threads, include_timing=not args.no_timing,
        ))
        for n in ns for k in ks for eps in epss
    ]
    if args.format == "csv":
        _emit(summary_to_csv([r.summary for r in results]), args.out)
    else:
        _emit("".join(r.to_jsonl() for r in results), args.out)
    failed = require_rate is not None and any(
        min(r.summary["success_rate_theorem"], r.summary["success_rate_proof"])
        < require_rate
        for r in results
    )
    return EXIT_ACCEPTANCE_FAILURE if failed else EXIT_OK


def _cmd_query(args) -> int:
    return _run_grid(args, [args.n], [args.k], [args.eps])


def _cmd_bench(args) -> int:
    if not (args.n and args.k and args.eps):
        raise ConfigError("--n, --k and --eps each need at least one value")
    rate = args.require_success_rate
    if rate is not None and not 0.0 <= rate <= 1.0:
        raise ConfigError(f"--require-success-rate must lie in [0, 1], got {rate}")
    return _run_grid(args, args.n, args.k, args.eps, rate)


def _cmd_verify(args) -> int:
    checks = run_verification_suite(
        n=args.n, trials=args.trials, seed=args.seed, filter_delta=args.delta
    )
    report = "\n".join(c.line() for c in checks) + "\n"
    _emit(report, args.out)
    if not all(c.passed for c in checks):
        return EXIT_ACCEPTANCE_FAILURE
    return EXIT_OK


def _cmd_filter_info(args) -> int:
    try:
        if args.load:
            fp = load_filter(args.load)
        else:
            fp = build_filter(args.n, args.b, args.delta, args.alpha)
    except FilterBuildError as exc:
        sys.stderr.write(f"filter build failed: {exc}\n")
        return EXIT_ACCEPTANCE_FAILURE
    if args.save:
        save_filter(fp, args.save)
    info = {
        "n": fp.n,
        "buckets": fp.buckets,
        "delta": fp.delta,
        "alpha": fp.alpha,
        "support": fp.support_size,
        "support_constant": fp.support_constant,
        "leakage": fp.leakage,
        "flat_radius": fp.flat_radius,
        "stop_radius": fp.stop_radius,
    }
    _emit(json.dumps(info, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setquery",
        description="Estimate Fourier coefficients on a query set from few samples.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    q = subs.add_parser("query", help="run one experiment config")
    _add_run_flags(q, grid=False, trials=1)
    q.set_defaults(func=_cmd_query)

    b = subs.add_parser("bench", help="run a (n, k, eps) grid of experiments")
    _add_run_flags(b, grid=True, trials=3)
    b.add_argument("--require-success-rate", type=float, default=None,
                   help="exit 1 if any grid point's theorem-form or proof-form "
                        "success rate is lower")
    b.set_defaults(func=_cmd_bench)

    v = subs.add_parser("verify", help="run the probabilistic claim suite")
    v.add_argument("--n", type=int, default=1024)
    v.add_argument("--trials", type=int, default=10**4)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--delta", type=float, default=1e-3)
    v.add_argument("--out", default=None)
    v.set_defaults(func=_cmd_verify)

    f = subs.add_parser("filter-info", help="build or load a filter and report it")
    f.add_argument("--n", type=int, default=1024)
    f.add_argument("--b", type=int, default=32)
    f.add_argument("--delta", type=float, default=1e-3)
    f.add_argument("--alpha", type=float, default=0.25)
    f.add_argument("--save", default=None, help="write binary filter cache here")
    f.add_argument("--load", default=None, help="read filter from a cache file")
    f.add_argument("--out", default=None)
    f.set_defaults(func=_cmd_filter_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
