"""Resilience campaigns: repair-or-disconnect, transient recovery.

These are the subsystem's acceptance tests: a permanent link failure on
a minimal generated network must resolve to either a successful route
repair or a reported disconnection (never a hang), and transient
failures must recover through retransmission with every message
delivered.
"""

import pytest

from repro.eval import prepare, resilience_table, run_resilience
from repro.faults import FaultScenario, LinkFault, build_campaign
from repro.model import Communication
from repro.simulator import SimConfig
from repro.workloads import benchmark


@pytest.fixture(scope="module")
def setup():
    return prepare("cg", 8, seed=0)


def _single_link_report(setup, kind, **kw):
    topology = setup.topology(kind)
    return run_resilience(
        setup.benchmark.program,
        topology,
        build_campaign(topology.network),
        link_delays=setup.link_delays(kind),
        **kw,
    )


class TestProgramPairs:
    def test_pairs_are_distinct_and_sorted(self):
        pairs = benchmark("cg", 8).program.communication_pairs()
        assert pairs == tuple(sorted(set(pairs)))
        assert all(isinstance(p, Communication) for p in pairs)
        assert pairs  # cg actually communicates


class TestPermanentFaults:
    def test_minimal_generated_network_repairs_or_disconnects(self, setup):
        # The acceptance scenario: the generated network is minimal, so
        # a permanent single-link failure must resolve — repaired routes
        # that deliver everything, or a first-class disconnection report.
        # The test finishing at all is the never-hangs half.
        report = _single_link_report(setup, "generated")
        assert report.num_scenarios == len(setup.topology("generated").network.links)
        for outcome in report.outcomes:
            assert outcome.status in ("ok", "disconnected")
            if outcome.status == "ok":
                assert outcome.delivered_fraction == 1.0
                assert outcome.inflation is not None
                assert outcome.inflation >= 1.0
            else:
                assert outcome.disconnected_pairs > 0
                assert outcome.delivered_fraction < 1.0
                assert outcome.execution_cycles is None

    def test_campaign_is_deterministic(self, setup):
        first = _single_link_report(setup, "generated")
        second = _single_link_report(setup, "generated")
        assert first.outcomes == second.outcomes
        assert first.baseline.execution_cycles == second.baseline.execution_cycles

    def test_report_renders(self, setup):
        report = _single_link_report(setup, "generated")
        text = resilience_table(report, "generated single-link")
        assert "scenario" in text and "status" in text
        assert report.summary() in text


class TestTransientFaults:
    def test_transient_fault_recovers_with_full_delivery(self, setup):
        # A long outage on a busy mesh link with a tight deadlock
        # threshold: packets stalled at the dead link time out, regress,
        # and retransmit until the link heals — then everything lands.
        topology = setup.topology("mesh")
        scenario = FaultScenario.of(LinkFault(0, start=0, end=5_000))
        report = run_resilience(
            setup.benchmark.program,
            topology,
            [scenario],
            config=SimConfig(deadlock_threshold=100),
            link_delays=setup.link_delays("mesh"),
        )
        (outcome,) = report.outcomes
        assert outcome.status == "ok"
        assert outcome.delivered_fraction == 1.0
        assert outcome.retransmissions >= 1
        # Transient faults are not routed around — the repair pass left
        # the table alone so retransmission is what saved the run.
        assert outcome.rerouted_pairs == 0
        assert outcome.inflation > 1.0
