"""Behavioural tests of the flit-level simulator."""

import pytest

from repro.errors import SimulationError
from repro.simulator import SimConfig, simulate
from repro.topology import crossbar, mesh, mesh_for, torus
from repro.verify import replay_pattern
from repro.workloads import PhaseProgramBuilder
from repro.workloads.nas import benchmark

from tests.simulator.diff_corpus import _idle_heavy


def _cfg(**kw):
    base = dict(deadlock_threshold=500, max_cycles=2_000_000)
    base.update(kw)
    return SimConfig(**base)


def _single_message_program(size=64):
    b = PhaseProgramBuilder(4, "one")
    b.phase([(0, 3, size)])
    return b.build()


class TestBasics:
    def test_single_message_delivers(self):
        r = simulate(_single_message_program(), crossbar(4), _cfg())
        assert r.delivered_packets == 1
        assert r.deadlocks_detected == 0

    def test_execution_time_accounts_for_serialization(self):
        """A bigger message must take proportionally longer to stream."""
        small = simulate(_single_message_program(64), crossbar(4), _cfg())
        big = simulate(_single_message_program(640), crossbar(4), _cfg())
        extra_flits = big.config.flits_for(640) - big.config.flits_for(64)
        assert big.execution_cycles >= small.execution_cycles + extra_flits

    def test_overheads_accrue_in_comm_time(self):
        cfg = _cfg(send_overhead=10, recv_overhead=10)
        r = simulate(_single_message_program(), crossbar(4), cfg)
        # Sender pays 10, receiver pays 10 + waiting.
        assert r.comm_cycles_per_process[0] == 10
        assert r.comm_cycles_per_process[3] >= 10

    def test_compute_only_program(self):
        b = PhaseProgramBuilder(2, "quiet")
        b.compute(5000)
        r = simulate(b.build(), crossbar(2), _cfg())
        assert r.execution_cycles == 5000
        assert r.delivered_packets == 0

    def test_process_count_mismatch_rejected(self):
        b = PhaseProgramBuilder(4, "x")
        b.phase([(0, 1, 64)])
        with pytest.raises(SimulationError):
            simulate(b.build(), crossbar(8), _cfg())

    def test_unmatched_recv_detected(self):
        from repro.workloads.events import Program, RecvEvent

        program = Program(
            name="stuck", num_processes=2, events=((), (RecvEvent(source=0),))
        )
        with pytest.raises(SimulationError, match="waits for message"):
            simulate(program, crossbar(2), _cfg())


class TestOrderingAndMatching:
    def test_fifo_matching_same_pair(self):
        # Two messages 0->1 of different sizes; receives match in order.
        b = PhaseProgramBuilder(2, "fifo")
        b.phase([(0, 1, 64)], tag="first")
        b.phase([(0, 1, 256)], tag="second")
        r = simulate(b.build(), crossbar(2), _cfg())
        assert r.delivered_packets == 2

    def test_exchange_completes(self):
        b = PhaseProgramBuilder(2, "exch")
        b.phase([(0, 1, 128), (1, 0, 128)])
        r = simulate(b.build(), crossbar(2), _cfg())
        assert r.delivered_packets == 2

    def test_many_phases_all_deliver(self):
        b = PhaseProgramBuilder(4, "multi")
        for i in range(10):
            b.compute(50)
            b.phase([(0, 1, 64), (1, 2, 64), (2, 3, 64), (3, 0, 64)])
        r = simulate(b.build(), crossbar(4), _cfg())
        assert r.delivered_packets == 40


class TestContentionEffects:
    def test_shared_link_slower_than_disjoint(self):
        """Two messages forced over one mesh link take longer than the
        same two messages on disjoint paths."""
        line = mesh(4, 1)
        b1 = PhaseProgramBuilder(4, "conflict")
        b1.phase([(0, 3, 512), (1, 2, 512)])  # share link S1->S2
        conflicted = simulate(b1.build(), line, _cfg())

        b2 = PhaseProgramBuilder(4, "disjoint")
        b2.phase([(0, 1, 512), (3, 2, 512)])  # disjoint links
        clean = simulate(b2.build(), line, _cfg())
        assert conflicted.execution_cycles > clean.execution_cycles

    def test_crossbar_beats_mesh_under_contention(self):
        b = PhaseProgramBuilder(4, "load")
        for _ in range(3):
            b.phase([(0, 3, 512), (1, 2, 512)])
            b.phase([(3, 0, 512), (2, 1, 512)])
        cfg = _cfg()
        xbar = simulate(b.build(), crossbar(4), cfg)
        line = simulate(b.build(), mesh(4, 1), cfg)
        assert xbar.execution_cycles <= line.execution_cycles

    def test_link_utilization_reported(self):
        r = simulate(_single_message_program(), mesh(2, 2), _cfg())
        assert r.link_utilization
        assert all(0.0 <= u <= 1.0 for u in r.link_utilization.values())

    def test_trailing_send_utilization_bounded(self):
        """A send with no matching receive leaves the network draining
        after every process has finished; channel busy cycles accrued
        during that drain must be normalized over the cycles actually
        simulated, not the (shorter) execution time — the busy fraction
        can never exceed 1.0."""
        from repro.workloads.events import Program, SendEvent

        program = Program(
            name="trail",
            num_processes=2,
            events=((SendEvent(dest=1, size_bytes=512),), ()),
        )
        r = simulate(program, crossbar(2), _cfg())
        assert r.delivered_packets == 1
        # Execution ends at the sender's overhead; streaming ~129 flits
        # takes far longer, so the old execution-cycle normalization
        # reported utilizations well above 1.0 here.
        assert r.execution_cycles < r.config.flits_for(512)
        assert r.link_utilization
        assert all(0.0 <= u <= 1.0 for u in r.link_utilization.values())
        assert max(r.link_utilization.values()) > 0.0


class TestTorusAdaptive:
    def test_torus_wrap_messages_deliver(self):
        b = PhaseProgramBuilder(16, "wrap")
        b.phase([(0, 3, 256), (3, 0, 256), (12, 15, 256), (15, 12, 256)])
        r = simulate(b.build(), torus(4, 4), _cfg())
        assert r.delivered_packets == 4

    def test_adaptive_full_permutation(self):
        b = PhaseProgramBuilder(16, "perm")
        b.phase([(i, (i + 5) % 16, 256) for i in range(16)])
        r = simulate(b.build(), torus(4, 4), _cfg())
        assert r.delivered_packets == 16

    def test_mesh_full_permutation(self):
        b = PhaseProgramBuilder(16, "perm")
        b.phase([(i, (i + 5) % 16, 256) for i in range(16)])
        r = simulate(b.build(), mesh_for(16), _cfg())
        assert r.delivered_packets == 16


class TestLinkDelays:
    def test_longer_links_slow_delivery(self):
        top1 = mesh(2, 1)
        fast = simulate(_two_node_program(), top1, _cfg())
        top2 = mesh(2, 1)
        link_id = top2.network.links[0].link_id
        slow = simulate(
            _two_node_program(), top2, _cfg(), link_delays={link_id: 8}
        )
        assert slow.execution_cycles > fast.execution_cycles


def _two_node_program():
    b = PhaseProgramBuilder(2, "two")
    b.phase([(0, 1, 256)])
    return b.build()


class TestDeadlockRecovery:
    def test_recovery_preserves_delivery(self):
        """Even with a tiny deadlock threshold (spurious detections),
        every message is eventually delivered via retransmission."""
        b = PhaseProgramBuilder(16, "stress")
        for k in (1, 5, 7):
            b.phase([(i, (i + k) % 16, 256) for i in range(16)])
        cfg = _cfg(deadlock_threshold=60, max_cycles=5_000_000)
        r = simulate(b.build(), torus(4, 4), cfg)
        # A killed packet never delivers; its retransmission does, so
        # each logical message is delivered exactly once.
        assert r.delivered_packets == 48

    def test_no_deadlocks_on_paper_workload(self):
        """The paper observed zero deadlocks across all runs; CG on the
        torus with the paper threshold reproduces that."""
        from repro.workloads import cg

        b = cg(16, iterations=1)
        r = simulate(b.program, torus(4, 4), SimConfig())
        assert r.deadlocks_detected == 0
        assert r.delivered_packets == b.program.total_messages


class TestIdleHeavy:
    def test_neighbour_stream_on_mesh16x16_is_pinned(self):
        """Pins the retired benchmark gate's idle-heavy-mesh16x16 case:
        one neighbour stream on 256 nodes, so 254 NICs idle every cycle
        (the trace golden holds only the 8x8 variant)."""
        r = simulate(**_idle_heavy(256, (16, 16), 2000))
        assert r.execution_cycles == 34022
        assert r.delivered_packets == 2000
        assert r.flit_hops == 68000
        assert r.deadlocks_detected == 0
        assert r.retransmissions == 0


class TestMaxCyclesGuard:
    @pytest.mark.parametrize(
        "run, message",
        [
            (
                lambda bench, top, cfg: simulate(bench.program, top, cfg),
                r"simulation exceeded 10 cycles \(cg-8 on mesh-4x2\); likely livelock",
            ),
            (
                lambda bench, top, cfg: replay_pattern(top, bench.pattern, config=cfg),
                r"pattern replay exceeded 10 cycles; likely livelock",
            ),
        ],
        ids=["simulate", "replay_pattern"],
    )
    def test_exceeding_max_cycles_raises(self, run, message):
        """cg-8 needs thousands of cycles, so a ten-cycle budget trips
        each driver's livelock guard instead of returning a result."""
        with pytest.raises(SimulationError, match=message):
            run(benchmark("cg", 8), mesh(4, 2), SimConfig(max_cycles=10))
