"""Tests for end-to-end certification and certificate serialization."""

import json

import pytest

from repro.errors import PatternError
from repro.eval.runner import prepare
from repro.eval.serialize import canonical_json
from repro.model import Communication, CommunicationPattern, Message
from repro.synthesis import DesignConstraints
from repro.topology import Route, TableRouting, make_route
from repro.topology.builders import ring
from repro.verify import (
    CERTIFICATE_SCHEMA,
    FINDING_NAMES,
    DatelineClasses,
    certify,
    classifier_for,
    schedule_slices,
)


def _cg8():
    return prepare("cg", 8)


def _all_overlapping(messages):
    return CommunicationPattern.from_messages(messages, name="sim-pattern")


class TestCertifyCorpusEntry:
    def test_generated_cg8_fully_certified(self):
        setup = _cg8()
        cert = certify(
            setup.topology("generated"),
            setup.benchmark.pattern,
            max_degree=DesignConstraints().max_degree,
        )
        assert tuple(f.name for f in cert.findings) == FINDING_NAMES
        assert cert.ok(require_contention_free=True)
        assert cert.contention_free
        assert cert.deadlock_free
        assert cert.deadlock_method == "acyclic"

    def test_mesh_cg8_deadlock_free_but_contended(self):
        setup = _cg8()
        cert = certify(setup.topology("mesh"), setup.benchmark.pattern)
        assert cert.deadlock_free
        assert not cert.contention_free
        contention = cert.finding("contention")
        assert contention.status == "fail"
        # The witness names concrete overlapping pairs and channels.
        violation = contention.witness["violations"][0]
        assert violation["shared_channels"]
        assert cert.ok(require_contention_free=False)
        assert not cert.ok(require_contention_free=True)

    def test_torus_cg8_uses_dateline_classes(self):
        setup = _cg8()
        top = setup.topology("torus")
        assert isinstance(classifier_for(top), DatelineClasses)
        cert = certify(top, setup.benchmark.pattern)
        assert cert.deadlock_free
        assert cert.finding("deadlock").details["vc_classes"] == 2

    def test_torus_without_datelines_is_cyclic(self):
        # The same torus certified with a single VC class must fail:
        # the wraparound rings form dependency cycles.  This is the
        # negative control for the dateline discipline.
        setup = _cg8()
        top = setup.topology("torus")
        from repro.verify import SingleClass

        cert = certify(top, setup.benchmark.pattern, classifier=SingleClass())
        deadlock = cert.finding("deadlock")
        assert deadlock.status == "fail"
        assert deadlock.witness["length"] >= 2


class TestCyclicFixture:
    """A deliberately deadlock-prone routing must fail with a witness."""

    def _cyclic_ring(self):
        top = ring(4)
        sw = [top.network.switch_of(p) for p in range(4)]
        comms = [Communication(p, (p + 2) % 4) for p in range(4)]
        routes = [
            make_route(
                top.network,
                c,
                [sw[c.source], sw[(c.source + 1) % 4], sw[c.dest]],
            )
            for c in comms
        ]
        pattern = _all_overlapping(
            [Message(c.source, c.dest, 0.0, 1.0) for c in comms]
        )
        return top, TableRouting(routes), pattern

    def test_clockwise_ring_fails_with_cycle_witness(self, capsys):
        top, routing, pattern = self._cyclic_ring()
        cert = certify(top, pattern, routing=routing)
        deadlock = cert.finding("deadlock")
        assert deadlock.status == "fail"
        assert not cert.deadlock_free
        assert cert.deadlock_method == "none"
        # All four two-hop routes overlap at t=0; the witness names the
        # slice and the live communications trapped in the cycle.
        assert deadlock.witness["slice_time"] == 0.0
        assert deadlock.witness["length"] == 4
        assert len(deadlock.witness["live_communications"]) == 4
        print(cert.render())
        out = capsys.readouterr().out
        assert "dependency cycle" in out
        assert "link:" in out

    def test_schedule_separation_rescues_cyclic_routing(self):
        # The same routing is safe when the schedule never lets the
        # four messages coexist: slicing certifies it with the global
        # cycle recorded as informational witness.
        top, routing, _ = self._cyclic_ring()
        comms = [Communication(p, (p + 2) % 4) for p in range(4)]
        pattern = _all_overlapping(
            [
                Message(c.source, c.dest, float(i), float(i) + 0.5)
                for i, c in enumerate(comms)
            ]
        )
        cert = certify(top, pattern, routing=routing)
        assert cert.deadlock_free
        assert cert.deadlock_method == "schedule"
        assert cert.finding("deadlock").witness["unscheduled_cycle"]["length"] == 4


class TestScheduleSlices:
    def test_slices_are_maximal_live_sets(self):
        pattern = _all_overlapping(
            [
                Message(0, 1, 0.0, 1.0),
                Message(1, 2, 0.5, 1.5),
                Message(2, 3, 2.0, 3.0),
            ]
        )
        slices = schedule_slices(pattern)
        assert [sorted(str(c) for c in live) for _, live in slices] == [
            ["(0,1)"],
            ["(0,1)", "(1,2)"],
            ["(2,3)"],
        ]

    def test_duplicate_live_sets_are_dropped(self):
        pattern = _all_overlapping(
            [Message(0, 1, 0.0, 5.0), Message(0, 1, 1.0, 5.0)]
        )
        assert len(schedule_slices(pattern)) == 1


class TestCertificateSerialization:
    def test_canonical_json_round_trip(self):
        setup = _cg8()
        cert = certify(setup.topology("generated"), setup.benchmark.pattern)
        payload = json.loads(cert.to_json())
        assert payload["schema_version"] == CERTIFICATE_SCHEMA
        assert payload == cert.to_dict()
        assert canonical_json(payload) + "\n" == cert.to_json()

    def test_certificates_byte_stable_across_builds(self):
        setup = _cg8()
        blobs = {
            certify(setup.topology(kind), setup.benchmark.pattern).to_json()
            for _ in range(2)
            for kind in ("generated", "mesh", "torus")
        }
        # Two fresh builds of three topologies: three distinct blobs.
        assert len(blobs) == 3

    def test_render_lists_every_finding(self):
        setup = _cg8()
        cert = certify(setup.topology("generated"), setup.benchmark.pattern)
        text = cert.render()
        for name in FINDING_NAMES:
            assert name in text


class TestCorruptedRoutes:
    def test_missing_link_becomes_routes_valid_failure(self):
        top = ring(4)
        sw = [top.network.switch_of(p) for p in range(4)]
        comm = Communication(0, 1)
        good = make_route(top.network, comm, [sw[0], sw[1]])
        bad = Route(
            comm=comm,
            switch_path=good.switch_path,
            hops=(("link", 999, 0),),
            resources=good.resources,
        )
        pattern = _all_overlapping([Message(0, 1, 0.0, 1.0)])
        cert = certify(top, pattern, routing=TableRouting([bad]))
        finding = cert.finding("routes_valid")
        assert finding.status == "fail"
        assert "999" in finding.witness["error"]
        assert not cert.ok()


class TestCertificateValidation:
    def test_unknown_finding_status_rejected(self):
        from repro.verify import Finding, VerificationError

        with pytest.raises(VerificationError):
            Finding(name="x", status="maybe", summary="?")

    def test_bad_source_pattern_rejected_upstream(self):
        with pytest.raises(PatternError):
            Message(0, 0, 0.0, 1.0)
