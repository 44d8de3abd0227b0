"""Dynamic cross-validation: certificates vs the flit-level engine."""

import pytest

from repro.eval.runner import prepare
from repro.model import CommunicationPattern, Message
from repro.simulator.config import SimConfig
from repro.topology.builders import mesh
from repro.verify import certify, cross_validate, injection_scale, replay_pattern
from repro.verify.dynamic import replay_mismatches
from repro.workloads.nas import BENCHMARK_NAMES, PAPER_LARGE_SIZE, PAPER_SMALL_SIZES
from tests.simulator import diff_corpus


def _pattern(messages, name="replay-pattern"):
    return CommunicationPattern.from_messages(messages, name=name)


class TestContentionCounter:
    """The engine's contention_stalls counter feeds cross-validation:
    it must fire on inter-packet contention and stay zero without it."""

    def test_lone_packet_records_no_contention(self):
        report = replay_pattern(mesh(3, 1), _pattern([Message(0, 2, 0.0, 1.0)]))
        assert report.delivered_packets == 1
        assert report.contention_stalls == 0
        assert report.deadlocks_detected == 0

    def test_colliding_packets_record_contention(self):
        # 0->2 and 1->2 both traverse the S1->S2 link at the same time.
        report = replay_pattern(
            mesh(3, 1),
            _pattern([Message(0, 2, 0.0, 1.0), Message(1, 2, 0.0, 1.0)]),
        )
        assert report.delivered_packets == 2
        assert report.contention_stalls > 0

    def test_disjoint_schedule_removes_contention(self):
        # Same colliding pair, but the schedule separates them; the
        # injection scale must spread them far enough apart to drain.
        report = replay_pattern(
            mesh(3, 1),
            _pattern([Message(0, 2, 0.0, 1.0), Message(1, 2, 2.0, 3.0)]),
        )
        assert report.delivered_packets == 2
        assert report.contention_stalls == 0


class TestInjectionScale:
    def test_all_overlapping_needs_no_scaling(self):
        pattern = _pattern([Message(0, 1, 0.0, 1.0), Message(1, 2, 0.5, 1.5)])
        assert injection_scale(pattern, SimConfig(), 4, 1) == 1

    def test_disjoint_messages_scale_past_service_bound(self):
        pattern = _pattern([Message(0, 1, 0.0, 1.0), Message(1, 2, 2.0, 3.0)])
        config = SimConfig()
        scale = injection_scale(pattern, config, 4, 1)
        flits = config.flits_for(1024)
        assert scale * 2.0 >= (flits + 4 + 4) * (2 + 4)


class TestCrossValidation:
    def test_cg8_generated_certificate_validates(self):
        setup = prepare("cg", 8)
        top = setup.topology("generated")
        cert = certify(top, setup.benchmark.pattern)
        assert cert.contention_free and cert.deadlock_free
        report, mismatches = cross_validate(
            cert, top, setup.benchmark.pattern,
            link_delays=setup.link_delays("generated"),
        )
        assert mismatches == []
        assert report.delivered_packets == report.messages
        assert report.contention_stalls == 0
        assert report.deadlocks_detected == 0

    def test_mesh_contention_is_not_a_mismatch(self):
        # The mesh certificate already reports contention, so observed
        # stalls must not be flagged; deadlock recovery still would be.
        setup = prepare("cg", 8)
        top = setup.topology("mesh")
        cert = certify(top, setup.benchmark.pattern)
        assert not cert.contention_free
        report, mismatches = cross_validate(cert, top, setup.benchmark.pattern)
        assert report.contention_stalls > 0
        assert mismatches == []


@pytest.mark.slow
class TestCorpusCrossValidation:
    """Acceptance sweep: every NAS benchmark at both paper scales.

    The replays are the differential corpus's (same setup, default
    ``SimConfig`` and link delays), shared with the golden replay test
    so each case replays once per test run.
    """

    CASES = {case.name: case for case in diff_corpus.verify_corpus_cases()}

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    @pytest.mark.parametrize("size", ["small", "large"])
    def test_certificates_match_engine(self, name, size):
        n = PAPER_SMALL_SIZES[name] if size == "small" else PAPER_LARGE_SIZE
        setup = prepare(name, n)
        for kind in ("generated", "mesh", "torus"):
            top = setup.topology(kind)
            cert = certify(top, setup.benchmark.pattern)
            assert cert.deadlock_free, f"{name}-{n}-{kind} not deadlock-free"
            if kind == "generated":
                assert cert.contention_free, f"{name}-{n} generated contends"
            report = diff_corpus.replay_case_report(
                self.CASES[f"{name}-{n}-{kind}"], replay_pattern
            )
            mismatches = replay_mismatches(cert, report)
            assert mismatches == [], f"{name}-{n}-{kind}: {mismatches}"
