"""Deadlock detection -> regressive recovery, exercised end to end.

The recovery discipline (Section 3.3 of the paper's simulator setup):
when no flit moves for ``deadlock_threshold`` cycles, the youngest
in-flight packet is killed, its buffered flits drain, its resources are
released, and the source retransmits it after a backoff.  These tests
create real stalls — the destination's ejection channel is held by a
phantom owner — and watch ``step()`` run the whole cycle.
"""

from repro.simulator import Engine, SimConfig
from repro.simulator.simulation import routing_policy_for
from repro.topology import mesh


def _engine(**cfg_kw):
    top = mesh(2, 1)
    config = SimConfig(**cfg_kw)
    return Engine(top, routing_policy_for(top), config), config


def _block_ejection(engine, processor):
    ch = engine.channels[("ej", processor)]
    saved = list(ch.owner)
    ch.owner = [10**9] * len(ch.owner)  # phantom owner on every VC
    return ch, saved


def _step_until(engine, predicate, start=0, limit=10_000):
    for t in range(start, limit):
        engine.step(t)
        if predicate():
            return t
    raise AssertionError(f"condition not reached within {limit} cycles")


class TestDetection:
    def test_stall_past_threshold_triggers_recovery(self):
        engine, config = _engine(deadlock_threshold=50)
        _block_ejection(engine, 1)
        engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=0, seq=0)
        t = _step_until(engine, lambda: engine.deadlocks_detected > 0)
        # Detection waited out the full timeout, not less.
        assert t >= config.deadlock_threshold
        assert engine.deadlocks_detected == 1
        assert engine.retransmissions == 1

    def test_no_false_positives_while_traffic_flows(self):
        engine, _ = _engine(deadlock_threshold=50)
        engine.submit(source=0, dest=1, size_bytes=400, inject_cycle=0, seq=0)
        _step_until(engine, lambda: not engine.busy())
        assert engine.deadlocks_detected == 0
        assert engine.retransmissions == 0


class TestIdleSkip:
    def test_far_future_event_does_not_delay_detection(self):
        # Regression: an idle skip that jumped to the next event alone
        # slept through the horizon and detected this stall only after
        # the second packet's injection at cycle 10,000.
        engine, config = _engine(deadlock_threshold=50)
        _block_ejection(engine, 1)
        engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=0, seq=0)
        engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=10_000, seq=1)
        t = 0
        while engine.deadlocks_detected == 0 and t < 20_000:
            t = t + 1 if engine.step(t) else engine.next_cycle(t)
        assert engine.deadlocks_detected == 1
        assert config.deadlock_threshold <= t < 100


class TestVictimSelection:
    def test_youngest_stuck_packet_is_killed(self):
        engine, _ = _engine(deadlock_threshold=50)
        _block_ejection(engine, 1)
        old = engine._packets[
            engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=0, seq=0)
        ]
        young = engine._packets[
            engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=5, seq=1)
        ]
        _step_until(engine, lambda: engine.deadlocks_detected > 0)
        assert young.killed
        assert not old.killed


class TestRetransmission:
    def test_replacement_keeps_identity_and_backs_off(self):
        engine, config = _engine(deadlock_threshold=50)
        _block_ejection(engine, 1)
        victim = engine._packets[
            engine.submit(source=0, dest=1, size_bytes=40, inject_cycle=0, seq=7)
        ]
        t = _step_until(engine, lambda: engine.deadlocks_detected > 0)
        replacement = engine._packets[max(engine._packets)]
        assert victim.killed
        assert replacement.packet_id != victim.packet_id
        assert (replacement.source, replacement.dest, replacement.seq) == (0, 1, 7)
        assert replacement.num_flits == victim.num_flits
        assert replacement.inject_cycle == t + config.retransmit_backoff
        assert replacement.route_hops is not None  # re-prepared by routing

    def test_retransmission_delivers_after_unblock(self):
        engine, config = _engine(deadlock_threshold=50)
        ch, saved = _block_ejection(engine, 1)
        engine.submit(source=0, dest=1, size_bytes=40, inject_cycle=0, seq=3)
        deliveries = []
        engine.set_delivery_handler(lambda s, d, q, t: deliveries.append((s, d, q)))
        t = _step_until(engine, lambda: engine.deadlocks_detected > 0)
        ch.owner = saved
        _step_until(engine, lambda: not engine.busy(), start=t + 1)
        assert deliveries == [(0, 1, 3)]
        assert engine.delivered_packets == 1
        # Killed flits drained; every credit and VC came back.
        assert engine.flits_in_network == 0
        for cid, channel in engine.channels.items():
            assert channel.credits == [channel.buffer_depth] * config.num_vcs
            assert all(owner is None for owner in channel.owner)

    def test_repeated_stall_retries_each_timeout(self):
        engine, config = _engine(deadlock_threshold=50)
        _block_ejection(engine, 1)
        engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=0, seq=0)
        _step_until(engine, lambda: engine.deadlocks_detected >= 3)
        assert engine.retransmissions == engine.deadlocks_detected
        # Exactly one live (non-killed, undelivered) copy at any time.
        live = [
            p
            for p in engine._packets.values()
            if not p.killed and not p.delivered
        ]
        assert len(live) == 1

    def test_registry_holds_only_live_packets(self):
        """Delivered and killed packets leave the engine's registry, so
        a run that keeps recovering scans and keeps only what is live."""
        engine, _ = _engine(deadlock_threshold=50)
        _block_ejection(engine, 1)
        submitted = 2
        for seq in range(submitted):
            engine.submit(source=0, dest=1, size_bytes=4, inject_cycle=seq, seq=seq)
        _step_until(engine, lambda: engine.deadlocks_detected >= 20, limit=50_000)
        live = (
            submitted
            + engine.retransmissions
            - engine.delivered_packets
            - engine.deadlocks_detected
            - engine.fault_packet_kills
        )
        assert live == submitted
        assert len(engine._packets) == live
        assert not any(p.killed or p.delivered for p in engine._packets.values())
