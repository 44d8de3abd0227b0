"""Unit tests for the engine's internals: credits, deadlock recovery,
idle bookkeeping."""

import pytest

from repro.errors import SimulationError
from repro.simulator import Engine, SimConfig
from repro.simulator.simulation import routing_policy_for
from repro.topology import crossbar, mesh


def _engine(top=None, **cfg_kw):
    top = top or mesh(2, 1)
    config = SimConfig(**cfg_kw)
    return Engine(top, routing_policy_for(top), config), config


class TestFabricConstruction:
    def test_channel_inventory(self):
        engine, _ = _engine(mesh(2, 2))
        # 4 links x 2 directions + 4 inj + 4 ej.
        assert len(engine.channels) == 4 * 2 + 4 + 4

    def test_router_ports(self):
        engine, _ = _engine(mesh(2, 2))
        # Corner switch: 2 link inputs + 1 injection input.
        r = engine.routers[0]
        assert len(r.inputs) == 3
        assert len(r.output_channels) == 3

    def test_crossbar_has_only_endpoint_channels(self):
        engine, _ = _engine(crossbar(4))
        assert len(engine.channels) == 8


class TestSubmitAndStep:
    def test_submit_prepares_route(self):
        engine, _ = _engine()
        pid = engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=0, seq=0)
        pkt = engine._packets[pid]
        assert pkt.route_hops is not None
        assert pkt.dest_switch == engine.network.switch_of(1)

    def test_full_transfer_returns_all_credits(self):
        engine, config = _engine()
        deliveries = []
        engine.set_delivery_handler(lambda s, d, q, t: deliveries.append((s, d, q, t)))
        engine.submit(source=0, dest=1, size_bytes=16, inject_cycle=0, seq=0)
        t = 0
        while engine.busy() and t < 10_000:
            engine.step(t)
            t += 1
        assert deliveries and deliveries[0][:3] == (0, 1, 0)
        assert engine.flits_in_network == 0
        # Every channel's credits must be fully restored.
        for ch in engine.channels.values():
            assert ch.credits == [ch.buffer_depth] * config.num_vcs
            assert all(owner is None for owner in ch.owner)

    def test_flit_conservation(self):
        engine, config = _engine()
        engine.submit(source=0, dest=1, size_bytes=40, inject_cycle=0, seq=0)
        engine.submit(source=1, dest=0, size_bytes=40, inject_cycle=0, seq=0)
        t = 0
        while engine.busy() and t < 10_000:
            engine.step(t)
            t += 1
        total_flits = 2 * config.flits_for(40)
        assert engine.delivered_packets == 2
        assert engine.flit_hops >= total_flits  # at least one hop each

    def test_next_times_for_idle_skip(self):
        engine, _ = _engine()
        assert engine.next_cycle(0) is None
        engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=500, seq=0)
        assert engine.next_cycle(0) == 500
        # A driver's own wake-up competes with the engine's.
        assert engine.next_cycle(0, 200) == 200
        # Never earlier than the cycle after the idle one.
        assert engine.next_cycle(600) == 601


class TestDeadlockRecovery:
    def test_recovery_requires_presence(self):
        engine, _ = _engine(deadlock_threshold=10)
        # No traffic: forcing the recovery path must raise the
        # accounting error rather than kill thin air.
        engine.flits_in_network = 1  # corrupt on purpose
        with pytest.raises(SimulationError):
            engine._recover_deadlock(100)

    def test_kill_and_retransmit_bookkeeping(self):
        engine, config = _engine(deadlock_threshold=50)
        deliveries = []
        engine.set_delivery_handler(lambda s, d, q, t: deliveries.append(q))
        engine.submit(source=0, dest=1, size_bytes=400, inject_cycle=0, seq=0)
        # Run a few cycles so flits enter the network, then force
        # recovery and let it finish.
        for t in range(5):
            engine.step(t)
        assert engine.flits_in_network > 0
        engine._recover_deadlock(4)
        assert engine.deadlocks_detected == 1
        assert engine.retransmissions == 1
        t = 5
        while engine.busy() and t < 50_000:
            engine.step(t)
            t += 1
        # The retransmitted packet carries the same seq and delivers.
        assert deliveries == [0]
        assert engine.flits_in_network == 0
