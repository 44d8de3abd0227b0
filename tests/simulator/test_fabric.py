"""Unit tests for channels, routers and NICs."""

import heapq

import pytest

from repro.errors import SimulationError
from repro.simulator import SimConfig
from repro.simulator.fabric import Channel, Nic, Router
from repro.simulator.packet import Flit, Packet


def _packet(pid=0, flits=3):
    return Packet(
        packet_id=pid,
        source=0,
        dest=1,
        size_bytes=8,
        num_flits=flits,
        seq=0,
        inject_cycle=0,
    )


def _channel(delay=1, config=None):
    config = config or SimConfig()
    return Channel.build(("link", 0, 0), ("router", 0), ("router", 1), delay, config)


class TestChannel:
    def test_build_initializes_credits(self):
        cfg = SimConfig(num_vcs=3, vc_buffer_flits=4)
        ch = _channel(config=cfg)
        assert ch.credits == [4, 4, 4]
        assert ch.owner == [None, None, None]

    def test_long_links_get_round_trip_buffers(self):
        """Buffer depth covers the credit round trip so long links keep
        full bandwidth."""
        cfg = SimConfig(vc_buffer_flits=4)
        ch = _channel(delay=5, config=cfg)
        assert ch.buffer_depth == 10
        assert ch.credits[0] == 10

    def test_zero_delay_rejected(self):
        with pytest.raises(SimulationError):
            _channel(delay=0)

    def test_free_vc_order(self):
        ch = _channel()
        assert ch.free_vc() == 0
        ch.owner[0] = 7
        assert ch.free_vc() == 1
        ch.owner[1] = 8
        ch.owner[2] = 9
        assert ch.free_vc() is None

    def test_busy_vcs(self):
        ch = _channel()
        assert ch.busy_vcs() == 0
        ch.owner[1] = 3
        assert ch.busy_vcs() == 1


class TestRouter:
    def _router(self):
        cfg = SimConfig(num_vcs=2, vc_buffer_flits=2)
        r = Router(0, cfg)
        link = Channel.build(("link", 0, 0), ("router", 1), ("router", 0), 1, cfg)
        r.add_input(link)
        return r, link, cfg

    def test_slot_table_is_built_with_the_inputs(self):
        """Every input VC is a slot, in (channel id, VC) scan order, as
        soon as its input is added — no lazy build on the first visit —
        and each slot's buffer is its channel's receiver-side VC."""
        r, link, cfg = self._router()
        inj = Channel.build(("inj", 0), ("nic", 0), ("router", 0), 1, cfg)
        r.add_input(inj)
        assert [(channel.cid, vc) for channel, vc, _ in r.slots] == [
            (("inj", 0), 0),
            (("inj", 0), 1),
            (("link", 0, 0), 0),
            (("link", 0, 0), 1),
        ]
        assert all(ivc is channel.rx[vc] for channel, vc, ivc in r.slots)
        assert r.slots[2][0] is link

    def test_round_robin_arbitration(self):
        r, _, cfg = self._router()
        out = _channel(config=cfg)
        assert r.arbitrate(out, [0, 1, 2]) == 0
        assert r.arbitrate(out, [0, 1, 2]) == 1
        assert r.arbitrate(out, [0, 1, 2]) == 2
        assert out.rr == 3
        assert r.arbitrate(out, [0, 1, 2]) == 0  # wraps
        assert out.rr == 1

    def test_arbitrate_empty_raises(self):
        r, _, cfg = self._router()
        with pytest.raises(SimulationError):
            r.arbitrate(_channel(config=cfg), [])


class TestNic:
    def _nic(self):
        return Nic(0, Channel.build(("inj", 0), ("nic", 0), ("router", 0), 1, SimConfig()))

    def test_queue_and_pending_cycles(self):
        """``Nic.pending`` is one heap keyed (inject_cycle, packet_id):
        its head is the next packet to stream, whatever the enqueue
        order."""
        nic = self._nic()
        late, early_b, early_a = _packet(pid=1), _packet(pid=3), _packet(pid=2)
        late.inject_cycle = 50
        for packet in (late, early_b, early_a):
            nic.enqueue(packet)
        order = []
        while nic.pending:
            order.append(heapq.heappop(nic.pending)[1:])
        assert order == [(2, early_a), (3, early_b), (1, late)]

    def test_abort_stream_returns_vc(self):
        nic = self._nic()
        pkt = _packet(pid=3)
        nic.streaming = (pkt, 2)
        assert nic.abort_stream(3) == 2
        assert nic.streaming is None

    def test_abort_stream_ignores_other_packets(self):
        nic = self._nic()
        pkt = _packet(pid=3)
        nic.streaming = (pkt, 2)
        assert nic.abort_stream(99) is None
        assert nic.streaming is not None


class TestFlit:
    def test_head_and_tail_flags(self):
        pkt = _packet(flits=3)
        assert Flit(pkt, 0).is_head
        assert not Flit(pkt, 0).is_tail
        assert Flit(pkt, 2).is_tail

    def test_single_flit_packet_is_head_and_tail(self):
        pkt = _packet(flits=1)
        f = Flit(pkt, 0)
        assert f.is_head and f.is_tail
