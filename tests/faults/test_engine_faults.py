"""Engine-level fault injection: flit loss, stalls, NIC pauses, recovery."""

from repro.faults import FaultScenario, FaultState, LinkFault, SwitchFault
from repro.simulator import Engine, SimConfig
from repro.simulator.simulation import routing_policy_for
from repro.topology import mesh


def _engine(*faults, top=None, **cfg_kw):
    top = top or mesh(2, 1)
    config = SimConfig(**cfg_kw)
    state = FaultState(top.network, FaultScenario.of(*faults)) if faults else None
    return Engine(top, routing_policy_for(top), config, fault_state=state), config


def _run(engine, max_cycles=20_000):
    deliveries = []
    engine.set_delivery_handler(lambda s, d, q, t: deliveries.append((s, d, t)))
    t = 0
    while engine.busy() and t < max_cycles:
        engine.step(t)
        t += 1
    assert not engine.busy(), f"engine still busy after {max_cycles} cycles"
    return deliveries


class TestInFlightLoss:
    def test_flit_killed_on_dead_channel_triggers_retransmit(self):
        # A long wormhole is mid-link when the fault hits: the arriving
        # flit is lost, the packet dies, and retransmission redelivers
        # once the channel heals.
        engine, config = _engine(
            LinkFault(0, start=4, end=200), deadlock_threshold=100
        )
        engine.submit(source=0, dest=1, size_bytes=400, inject_cycle=0, seq=0)
        deliveries = _run(engine)
        assert engine.fault_packet_kills >= 1
        assert engine.retransmissions >= 1
        assert engine.delivered_packets == 1
        assert deliveries[0][:2] == (0, 1)
        # Killed flits drained without leaking credits or VC ownership.
        assert engine.flits_in_network == 0
        for ch in engine.channels.values():
            assert ch.credits == [ch.buffer_depth] * config.num_vcs
            assert all(owner is None for owner in ch.owner)

    def test_permanent_fault_before_injection_stalls_not_hangs(self):
        # The only link is dead from cycle 0: flits queue up behind it,
        # the deadlock timeout kills the packet, and each retransmission
        # meets the same wall.  The engine must keep cycling (bounded
        # here by observation, not delivery).
        engine, _ = _engine(LinkFault(0), deadlock_threshold=50)
        engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=0, seq=0)
        for t in range(2_000):
            engine.step(t)
        assert engine.delivered_packets == 0
        assert engine.deadlocks_detected >= 1
        assert engine.retransmissions >= 1


class TestStallBeforeDeadChannel:
    def test_timeout_recovery_redelivers_after_transient(self):
        # Flits never enter the dead channel (VC allocation filters it);
        # they stall upstream until the deadlock timeout regresses the
        # packet, and the retransmission lands after recovery.
        engine, _ = _engine(
            LinkFault(0, start=0, end=400), deadlock_threshold=100
        )
        engine.submit(source=0, dest=1, size_bytes=40, inject_cycle=0, seq=0)
        deliveries = _run(engine)
        assert engine.delivered_packets == 1
        assert deliveries[0][2] >= 400  # nothing crossed during the outage


class TestNicPause:
    def test_dead_injection_channel_pauses_the_nic(self):
        # A transient switch fault takes the source's injection channel
        # down; injection simply waits it out — no kill, no deadlock.
        engine, _ = _engine(
            SwitchFault(0, start=0, end=60), deadlock_threshold=4000
        )
        engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=0, seq=0)
        deliveries = _run(engine)
        assert engine.delivered_packets == 1
        assert engine.retransmissions == 0
        assert engine.deadlocks_detected == 0
        assert deliveries[0][2] >= 60


class TestTransitions:
    def test_next_cycle_stops_at_fault_transitions(self):
        engine, _ = _engine(LinkFault(0, start=10, end=20))
        # Transitions only matter while there is traffic to unblock.
        assert engine.next_cycle(0) is None
        engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=1000, seq=0)
        assert engine.next_cycle(0) == 10
        assert engine.next_cycle(10) == 20
        assert engine.next_cycle(20) == 1000

    def test_faultless_engine_has_no_transitions(self):
        engine, _ = _engine()
        engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=1000, seq=0)
        assert engine.next_cycle(0) == 1000
