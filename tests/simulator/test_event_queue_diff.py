"""Byte-identity differential harness for the event-queue engine.

The committed goldens under ``tests/simulator/golden/`` are the sole
oracle: bench traces, fault campaigns, the 30-certificate verify
corpus, and open-loop load points, frozen from the pristine
pre-event-queue engine and compared as canonical JSON.  They catch
regressions anywhere in the stack — engine scheduling, fabric, packet
bookkeeping, serialization — because every payload field participates
in the comparison.

The vendored ``legacy_engine`` cross-checks and their hypothesis lanes
were retired once the nightly differential job had soaked; regenerate
the goldens with ``scripts/gen_simulator_golden.py`` when a payload
*shape* change lands (and diff the unchanged fields against the
previous fixtures).  Slow-lane cases carry ``@pytest.mark.slow``; the
full test run includes them on every push, and ``-m "not slow"``
deselects them.
"""

import json
from pathlib import Path

import pytest

from repro.simulator import simulate
from repro.simulator.openloop import run_open_loop
from repro.verify.dynamic import replay_pattern
from tests.simulator import diff_corpus

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden(filename: str) -> dict:
    return json.loads((GOLDEN_DIR / filename).read_text())


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _params(cases):
    return [
        pytest.param(
            case,
            id=case.name,
            marks=[pytest.mark.slow] if case.lane == diff_corpus.SLOW else [],
        )
        for case in cases
    ]


class TestGoldenIdentity:
    """Current engine vs the committed pre-rewrite goldens."""

    @pytest.mark.parametrize("case", _params(diff_corpus.TRACE_CASES))
    def test_trace_case_matches_golden(self, case):
        payload = diff_corpus.run_trace_case(case, simulate)
        assert _canon(payload) == _canon(_golden("traces.json")[case.name])

    @pytest.mark.parametrize("case", _params(diff_corpus.verify_corpus_cases()))
    def test_verify_corpus_replay_matches_golden(self, case):
        payload = diff_corpus.run_replay_case(case, replay_pattern)
        assert _canon(payload) == _canon(_golden("replays.json")[case.name])

    @pytest.mark.parametrize("case", _params(diff_corpus.openloop_cases()))
    def test_openloop_point_matches_golden(self, case):
        payload = diff_corpus.run_openloop_case(case, run_open_loop)
        assert _canon(payload) == _canon(_golden("openloop.json")[case.name])


class TestGoldenCoverage:
    """The fixture files must stay in lockstep with the corpus — a
    case added to ``diff_corpus`` without regenerating the goldens
    would otherwise silently skip comparison (KeyError says why)."""

    def test_every_corpus_case_has_a_golden(self):
        traces = _golden("traces.json")
        assert {c.name for c in diff_corpus.TRACE_CASES} == set(traces)
        replays = _golden("replays.json")
        assert {c.name for c in diff_corpus.verify_corpus_cases()} == set(replays)
        openloop = _golden("openloop.json")
        assert {c.name for c in diff_corpus.openloop_cases()} == set(openloop)

    def test_openloop_goldens_carry_percentiles(self):
        """Schema canary: every open-loop golden payload must have the
        p50/p95/p99 fields added with CACHE_SCHEMA 3."""
        for name, payload in _golden("openloop.json").items():
            for field in ("p50_latency", "p95_latency", "p99_latency"):
                assert field in payload, (name, field)
