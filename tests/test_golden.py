"""Fixed-seed experiment records pinned against committed JSONL.

Each file under ``tests/data/`` is the ``--no-timing`` output of one
``setquery query`` run; its summary line holds the config that made it.  A
rerun must give every count, flag and per-round entry exactly, and every
float to a relative 1e-9, so a change meant to keep behaviour cannot drift
the estimator's outputs unnoticed.

- golden_accuracy.jsonl: ``query --n 4096 --trials 20`` (accuracy defaults)
- golden_sampling.jsonl: ``query --n 16384 --trials 5 --delta 0.2
  --gamma 0.0625 --const-c 1 --alpha-const 1.25`` (sampling profile)
- golden_multiround.jsonl: the sampling profile at ``--n 65536 --k 32
  --trials 4 --signal-model planted-sparse``, where round 2 subtracts a
  nonempty estimate
"""

import json
from pathlib import Path

import pytest

from setquery.harness import ExperimentConfig, run_experiment

DATA = Path(__file__).resolve().parent / "data"


def matches(got, want) -> bool:
    if isinstance(want, float):
        return isinstance(got, float) and got == pytest.approx(want, rel=1e-9)
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(matches(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(matches, got, want))
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("path", sorted(DATA.glob("golden_*.jsonl")), ids=lambda p: p.stem)
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
