"""Command-line front end.

Subcommands: ``query`` (a one-point ``bench``), ``bench`` (grid experiment),
``verify`` (claim suite), ``filter-info`` (build and report a filter).  Exit
codes: 0 success, 1 acceptance failure, 2 invalid configuration, an
unreadable or unwritable path, or an n too large to allocate.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import os
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


def _run_grid(args, out, ns, ks, epss, require_rate: float | None = None) -> int:
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
        out.write(summary_to_csv([r.summary for r in results]))
    else:
        out.write("".join(r.to_jsonl() for r in results))
    if require_rate is None:
        return EXIT_OK
    failed = [r for r in results if not _passes(r.summary, require_rate)]
    for r in failed:
        s, c = r.summary, r.config
        sys.stderr.write(
            f"gate failed at n={c.n} k={c.k} eps={c.eps}: "
            f"success_rate_theorem={s['success_rate_theorem']} "
            f"success_rate_proof={s['success_rate_proof']} "
            f"vacuous_fraction_theorem={s['vacuous_fraction_theorem']} "
            f"vacuous_fraction_proof={s['vacuous_fraction_proof']}\n"
        )
    return EXIT_ACCEPTANCE_FAILURE if failed else EXIT_OK


def _passes(summary: dict, rate: float) -> bool:
    """Whether a grid point clears ``--require-success-rate rate``.

    Both success rates must reach ``rate``, and at most ``1 - rate`` of the
    trials may be ones where the all-zero estimate also meets the theorem
    form's bound, so the gated rate is not carried by a vacuous bound.  The
    proof form's vacuous fraction is not gated: its rhs exceeds the
    all-zero estimate's error on every trial the suite runs.
    """
    return (
        min(summary["success_rate_theorem"], summary["success_rate_proof"]) >= rate
        and summary["vacuous_fraction_theorem"] <= 1.0 - rate
    )


def _cmd_query(args, out) -> int:
    return _run_grid(args, out, [args.n], [args.k], [args.eps])


def _cmd_bench(args, out) -> int:
    if not (args.n and args.k and args.eps):
        raise ConfigError("--n, --k and --eps each need at least one value")
    rate = args.require_success_rate
    if rate is not None and not 0.0 <= rate <= 1.0:
        raise ConfigError(f"--require-success-rate must lie in [0, 1], got {rate}")
    return _run_grid(args, out, args.n, args.k, args.eps, rate)


def _cmd_verify(args, out) -> int:
    checks = run_verification_suite(
        n=args.n, trials=args.trials, seed=args.seed, filter_delta=args.delta
    )
    out.write("\n".join(c.line() for c in checks) + "\n")
    if not all(c.passed for c in checks):
        return EXIT_ACCEPTANCE_FAILURE
    return EXIT_OK


def _cmd_filter_info(args, out) -> int:
    if args.load:
        fp = load_filter(args.load)
    else:
        fp = build_filter(args.n, args.b, args.delta, args.alpha)
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
    out.write(json.dumps(info, indent=2, sort_keys=True) + "\n")
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
                        "success rate is lower, or its theorem-form vacuous "
                        "fraction is above 1 - R")
    b.set_defaults(func=_cmd_bench)

    v = subs.add_parser("verify", help="run the probabilistic claim suite")
    d = inspect.signature(run_verification_suite).parameters  # the suite's defaults
    v.add_argument("--n", type=int, default=d["n"].default)
    v.add_argument("--trials", type=int, default=d["trials"].default)
    v.add_argument("--seed", type=int, default=d["seed"].default)
    v.add_argument("--delta", type=float, default=d["filter_delta"].default)
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


def _check_writable(path: str) -> None:
    """Raise ``OSError`` if ``path`` cannot be opened for writing; change no file."""
    existed = os.path.lexists(path)
    open(path, "a").close()
    if not existed:
        os.remove(path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is None:
            return args.func(args, sys.stdout)
        _check_writable(args.out)  # before any work, so a path it cannot write costs nothing
        out = io.StringIO()
        code = args.func(args, out)
        # written only once the command returns, so a run that fails keeps the old file
        with open(args.out, "w") as fh:
            fh.write(out.getvalue())
        return code
    except (ConfigError, ValueError) as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return EXIT_BAD_CONFIG
    except (OSError, MemoryError) as exc:  # a path it cannot use, an n it cannot allocate
        sys.stderr.write(f"cannot run: {exc}\n")
        return EXIT_BAD_CONFIG
    except FilterBuildError as exc:
        sys.stderr.write(f"filter build failed: {exc}\n")
        return EXIT_ACCEPTANCE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
