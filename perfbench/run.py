"""setquery benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the package from the
checkout's ``src/`` and refuses to run without it (exit code 2).  One
workload runs in one process, so ``peak_rss_mb`` belongs to it;
``--workload all`` runs each workload in its own child process.

The output is readable lines, one ``env`` JSON line, and as the last line a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
reports the per-layer metrics: it traces one set-up, measures half the
seconds untraced and half traced, and writes every span to
``perfbench/results/``.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
# BLAS and OpenMP pools are pinned to one thread (at most nproc) before numpy loads.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metric -> better direction.
BETTER = {
    "query_ms_p50": "lower",
    "query_ms_p90": "lower",
    "queries_per_s": "higher",
    "samples_per_query": "lower",
    "samples_max": "lower",
    "resolved_frac": "higher",
    "theorem_pass_rate": "higher",
    "proof_pass_rate": "higher",
    "setup_s": "lower",
    "peak_rss_mb": "lower",
    "unresolved_mean": "lower",
    "failed_frac": "lower",
}
# Printed, but left out of the result line: each is exactly 0 on some
# workload, so it cannot be bounded as a share of a median.  dense_check_ms
# is 0 wherever n > 4096, where the dense leakage check does not run.
READABLE_ONLY = {"unresolved_mean", "failed_frac", "filters.build_filter.dense_check_ms"}


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(args, samples: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "samples": samples,
    }


def measure(wl, args) -> tuple[dict, dict, object]:
    """Untraced run: (metrics, sample counts, tally)."""
    import workloads as W

    tally = W.Tally()
    setups: list[float] = []
    while len(setups) < W.SETUP_MIN_REPEATS or sum(setups) < W.SETUP_MIN_SECONDS:
        inputs = cache = None  # let the previous set-up go before the next
        inputs, cache, seconds = W.setup(wl, args.seed)
        setups.append(seconds)
    judged = W.judge_pool(wl, inputs, cache, tally)
    timings = W.timed_loop(wl, inputs, cache, judged, args.seconds, tally)
    metrics = {
        **W.latency_metrics(timings),
        **judged.metrics(wl.k),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (tally.failed / tally.attempted, "ratio"),
    }
    samples = {
        "query_ms_p50": f"{len(timings)} calls in {len(W.windows(timings))} windows",
        "query_ms_p90": len(timings),
        "judged_queries": len(inputs.seeds),
        "setup_s": len(setups),
    }
    return metrics, samples, tally


def trace(wl, args) -> tuple[dict, dict, object]:
    """Traced run: (per-layer metrics, sample counts, tally); writes the spans."""
    import workloads as W
    from tracer import Tracer, layer_metrics

    tally = W.Tally()
    tracer = Tracer()
    with tracer:
        inputs, cache, _ = W.setup(wl, args.seed)
    judged = W.judge_pool(wl, inputs, cache, tally)
    half = args.seconds / 2
    untraced = W.timed_loop(wl, inputs, cache, judged, half, tally)
    before = tally.attempted
    with tracer:
        traced = W.timed_loop(wl, inputs, cache, judged, half, tally, tracer=tracer)
    calls = tally.attempted - before
    metrics = layer_metrics(tracer.spans, calls, tracer.absent)
    if untraced and traced:
        p50 = W.p50_ms(traced)
        metrics["trace.query_ms_p50"] = (p50, "ms")
        metrics["trace.overhead_ms"] = (p50 - W.p50_ms(untraced), "ms")
    samples = {
        "untraced_queries": len(untraced),
        "traced_queries": calls,
        "traced_windows": len(W.windows(traced)),
        "spans": len(tracer.spans),
    }

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{wl.name}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        header = {"absent": sorted(tracer.absent), "metrics": metrics, "env": environment(args, samples)}
        fh.write(json.dumps(header) + "\n")
        for s in tracer.spans:
            fh.write(json.dumps([s.name, s.query, s.parent, s.start, s.end, s.counts]) + "\n")
    print(f"spans written to {path}")
    if tracer.absent:
        print("absent (name no longer exists): " + ", ".join(sorted(tracer.absent)))
    return metrics, samples, tally


def report(wl_name: str, metrics: dict, samples: dict, tally, args) -> dict:
    print(f"workload {wl_name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        better = BETTER.get(name, "")
        n = samples.get(name)
        note = f"  (n={n})" if n is not None else ""
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {better}{note}")
    for reason, count in tally.failures.items():
        print(f"  FAILED x{count}: {reason}")
    print("env " + json.dumps(environment(args, samples)))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in READABLE_ONLY
        },
    }


def run_all(args, names) -> int:
    """Each workload in its own process; a combined verdict line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    if not (SRC / "setquery" / "__init__.py").is_file():
        print(f"error: no setquery package at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import setquery

    if Path(setquery.__file__).resolve().parent != SRC / "setquery":
        print(f"error: setquery imported from {setquery.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    wl = WORKLOADS[args.workload]
    metrics, samples, tally = (trace if args.trace else measure)(wl, args)
    print(json.dumps(report(wl.name, metrics, samples, tally, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
