"""Fixed-seed experiment records pinned against committed JSONL.

Each file under ``tests/data/`` is the ``--no-timing`` output of one
``setquery query`` run; its summary line holds the config that made it.  A
rerun must give every count, flag and per-round entry exactly, and every
float within ``pytest.approx(want, rel=1e-9)``: max(1e-9*|want|, 1e-12),
as approx keeps its default absolute 1e-12.  So a float of magnitude 1e-3
or more is held to a relative 1e-9, and a smaller one only to an absolute
1e-12: any rounding-level value, such as an exact recovery's
``error_lhs``, passes.  A change meant to keep behaviour cannot drift the
estimator's outputs unnoticed above that floor.

- golden_accuracy.jsonl: ``query --n 4096 --trials 20`` (accuracy defaults)
- golden_sampling.jsonl: ``query --n 16384 --trials 5 --delta 0.2
  --gamma 0.0625 --const-c 1 --alpha-const 1.25`` (sampling profile)
- golden_multiround.jsonl: the sampling profile at ``--n 65536 --k 32
  --trials 4 --signal-model planted-sparse``, where round 2 subtracts a
  nonempty estimate

The claim suite is pinned the same way: golden_verify.jsonl holds
``asdict(check)`` for each check of ``run_verification_suite(n=1024,
trials=1000, seed=0)``, one JSON object per line, numpy scalars as Python
ones.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from setquery.harness import ExperimentConfig, run_experiment, run_verification_suite

DATA = Path(__file__).resolve().parent / "data"
VERIFY = DATA / "golden_verify.jsonl"
RECORDS = sorted(set(DATA.glob("golden_*.jsonl")) - {VERIFY})
# rounding-level residuals, pinned only through ``passed``
RESIDUALS = {
    "parseval-256", "fft-vs-oracle-256", "spectrum-permutation-identity",
    "omega-geometric-sum",
}
# Monte Carlo event rates: hit counts over seeded draws, so exact
RATES = ("collision-", "offset-", "noise-", "well-isolated-")


def matches(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and got == pytest.approx(want, rel=1e-9)
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(matches(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(matches, got, want))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.stem)
def test_records_match_golden(path):
    want = [json.loads(line) for line in path.read_text().splitlines()]
    summary = want[-1]["summary"]
    config = ExperimentConfig(
        **summary["config"], trials=summary["trials"], include_timing=False
    )
    got = [json.loads(line) for line in run_experiment(config).to_jsonl().splitlines()]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert matches(g, w), (g, w)


def test_claim_suite_matches_golden():
    want = [json.loads(line) for line in VERIFY.read_text().splitlines()]
    got = [
        json.loads(json.dumps(asdict(c), default=lambda v: v.item()))
        for c in run_verification_suite(n=1024, trials=1000, seed=0)
    ]
    assert [g["name"] for g in got] == [w["name"] for w in want]
    for g, w in zip(got, want):
        exact = ["name", "passed", "bound", "details"]
        if w["name"].startswith(RATES):
            exact += ["measured", "std_err"]
        assert {k: g[k] for k in exact} == {k: w[k] for k in exact}
        if w["name"] not in RESIDUALS:
            assert matches(g["measured"], w["measured"]), (g, w)
