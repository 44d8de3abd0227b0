"""The decision rule of ``scripts/bench_compare.py``, on synthetic runs."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "bench_compare.py"

BOUNDS = {"wall_s": 0.25}


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_compare"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["bench_compare"]


def _runs(*walls, correct=True):
    return {
        "design-flow": [
            {"correct": correct, "metrics": {"wall_s": {"value": w, "unit": "s"}}}
            for w in walls
        ]
    }


def _decide(module, base, change):
    rows, problems = module.compare(base, change, BOUNDS)
    (verdict,) = [row[-1] for row in rows]
    return verdict, problems


def test_identical_runs_pass(bench_compare):
    runs = _runs(5.0, 5.2, 4.9, 5.1, 5.0)
    assert _decide(bench_compare, runs, runs) == ("ok", [])


def test_overlapping_runs_worse_beyond_bound_are_unresolved(bench_compare):
    base = _runs(5.0, 5.1, 4.9, 5.0, 9.0)
    change = _runs(7.0, 7.2, 6.9, 7.1, 4.8)
    assert _decide(bench_compare, base, change) == ("unresolved", [])


def test_every_run_worse_beyond_bound_fails(bench_compare):
    base = _runs(5.0, 5.1, 4.9, 5.0, 5.2)
    change = _runs(7.0, 7.2, 6.9, 7.1, 6.6)
    verdict, problems = _decide(bench_compare, base, change)
    assert verdict == "regressed"
    assert len(problems) == 1 and "design-flow wall_s" in problems[0]


def test_every_run_worse_within_bound_passes(bench_compare):
    base = _runs(5.0, 5.1, 4.9, 5.0, 5.2)
    change = _runs(5.5, 5.6, 5.4, 5.5, 5.3)
    assert _decide(bench_compare, base, change) == ("ok", [])


def test_incorrect_change_run_fails(bench_compare):
    runs = _runs(5.0, 5.2, 4.9, 5.1, 5.0)
    change = _runs(5.0, 5.2, 4.9, 5.1, 5.0)
    change["design-flow"][3]["correct"] = False
    verdict, problems = _decide(bench_compare, runs, change)
    assert verdict == "ok"
    assert problems == ["design-flow: a run reported correct: false"]
