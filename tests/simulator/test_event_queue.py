"""Property tests for the simulator's global event queue.

The engine's byte-identity guarantee rests on two invariants of
:class:`repro.simulator.events.EventQueue`, a calendar queue (see
docs/SIMULATOR.md): pops never go backwards in time, and same-time
events pop in push order (each time's list is appended in push order,
so source ordering is fixed at push time).  Hypothesis drives random
push/pop interleavings at them.  The engine-level checks the dispatch
loop owns (time skew, arrival into the input VC, buffer overflow) are
tested through ``Engine.step`` at the end.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.faults import FaultScenario, FaultState, LinkFault
from repro.simulator import Engine, SimConfig
from repro.simulator.events import CREDIT, FLIT, NIC_WAKE, EventQueue
from repro.simulator.packet import Flit, Packet
from repro.simulator.simulation import routing_policy_for
from repro.topology import mesh

times = st.integers(min_value=0, max_value=50)
kinds = st.sampled_from([FLIT, CREDIT, NIC_WAKE])


class TestBasics:
    def test_kinds_are_distinct(self):
        assert len({FLIT, CREDIT, NIC_WAKE}) == 3

    def test_empty_queue(self):
        q = EventQueue()
        assert not q
        assert len(q) == 0
        assert q.peek_time() is None
        assert q.pop() is None

    def test_push_counts_pending_events(self):
        q = EventQueue()
        q.push(5, FLIT, None)
        q.push(3, CREDIT, None)
        q.push(5, NIC_WAKE, 0)
        assert len(q) == 3 and q
        assert q.peek_time() == 3
        # One list per distinct time, one heap entry per list.
        assert sorted(q.calendar) == sorted(q.calendar.times) == [3, 5]

    def test_pop_returns_full_event(self):
        q = EventQueue()
        q.push(7, CREDIT, ("cid", 1))
        assert q.peek_time() == 7
        assert q.pop() == (7, CREDIT, ("cid", 1))
        assert q.pop() is None
        assert not q.calendar and not q.calendar.times


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(st.tuples(times, kinds), max_size=64))
    def test_pop_times_nondecreasing(self, events):
        q = EventQueue()
        for time, kind in events:
            q.push(time, kind, None)
        popped = []
        while q:
            popped.append(q.pop()[0])
        assert popped == sorted(popped)
        assert len(popped) == len(events)

    @settings(max_examples=200, deadline=None)
    @given(events=st.lists(st.tuples(times, kinds), max_size=64))
    def test_same_time_ties_pop_in_insertion_order(self, events):
        """The full pop order is exactly sorted-by-(time, push index):
        each time's list keeps push order, so tie order is
        deterministic and independent of event kind."""
        q = EventQueue()
        for idx, (time, kind) in enumerate(events):
            q.push(time, kind, idx)
        expected = sorted(
            ((time, idx) for idx, (time, _) in enumerate(events)),
        )
        popped = []
        while q:
            time, _, idx = q.pop()
            popped.append((time, idx))
        assert popped == expected

    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("push"), times),
                st.tuples(st.just("pop"), st.just(0)),
            ),
            max_size=80,
        )
    )
    def test_interleaved_ops_match_reference_model(self, ops):
        """Under any interleaving of push/pop, the queue agrees with a
        naive dict-of-pending reference model keyed on push index."""
        q = EventQueue()
        pending = {}  # push index -> time
        pushed = 0
        for op, arg in ops:
            if op == "push":
                q.push(arg, FLIT, pushed)
                pending[pushed] = arg
                pushed += 1
            else:
                event = q.pop()
                if pending:
                    expected = min(pending.items(), key=lambda kv: (kv[1], kv[0]))
                    assert event is not None
                    assert (event[2], event[0]) == (expected[0], expected[1])
                    del pending[expected[0]]
                else:
                    assert event is None
            assert len(q) == len(pending)
            expected_peek = min(pending.values()) if pending else None
            assert q.peek_time() == expected_peek


class TestRetime:
    """``EventQueue.retime``, the fast-forward's window shift."""

    @settings(max_examples=200, deadline=None)
    @given(
        events=st.lists(st.tuples(times, kinds), max_size=64),
        last=times,
        k=st.integers(min_value=1, max_value=30),
    )
    def test_pop_order_is_unchanged_apart_from_the_shift(self, events, last, k):
        events = [(time, kind) for time, kind in events if not last < time <= last + k]
        q = EventQueue()
        for idx, (time, kind) in enumerate(events):
            q.push(time, kind, idx)
        q.retime(last, k)
        heap = q.calendar.times
        assert sorted(heap) == sorted(q.calendar)
        assert all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
        expected = sorted(
            (time + k if time <= last else time, idx)
            for idx, (time, _) in enumerate(events)
        )
        popped = []
        while q:
            time, _, idx = q.pop()
            popped.append((time, idx))
        assert popped == expected

    def test_merging_times_is_refused(self):
        q = EventQueue()
        q.push(3, FLIT, 0)
        q.push(6, CREDIT, 1)
        with pytest.raises(ValueError, match="would merge"):
            q.retime(3, 3)
        assert sorted(q.calendar.times) == [3, 6]


def _engine(*faults, **cfg_kw):
    top = mesh(2, 1)
    state = FaultState(top.network, FaultScenario.of(*faults)) if faults else None
    return Engine(top, routing_policy_for(top), SimConfig(**cfg_kw), fault_state=state)


def _flit(engine, index=0):
    packet = Packet(
        packet_id=99,
        source=0,
        dest=1,
        size_bytes=64,
        num_flits=engine.config.flits_for(64),
        seq=0,
        inject_cycle=0,
    )
    return Flit(packet, index)


class TestEngineDispatch:
    """The checks and orderings the engine's dispatch loop owns, driven
    through ``Engine.step``."""

    LINK = ("link", 0, 0)  # router 0 -> router 1

    @pytest.mark.parametrize("kind", [FLIT, CREDIT])
    def test_past_due_flit_or_credit_is_time_skew(self, kind):
        engine = _engine()
        channel = engine.channels[self.LINK]
        payload = (channel, 0, _flit(engine)) if kind == FLIT else (channel, 0)
        engine._events.push(5, kind, payload)
        with pytest.raises(SimulationError, match="engine time skew: event at 5 processed at 6"):
            engine.step(6)

    def test_past_due_nic_wake_is_exempt(self):
        engine = _engine()
        engine._events.push(5, NIC_WAKE, 0)
        engine.step(6)
        assert engine.nic_wakeups == 1
        assert not engine._events

    def test_arriving_flit_lands_in_its_input_vc(self):
        """A FLIT event lands in ``channel.rx[vc]`` of the receiving
        router and puts that router in the active set."""
        engine = _engine()
        channel = engine.channels[self.LINK]
        # A body flit with no VC assignment cannot move on, so it is
        # still buffered after the router pass of the same step.
        flit = _flit(engine, 1)
        engine._events.push(0, FLIT, (channel, 1, flit))
        assert not engine._active_routers
        engine.step(0)
        assert list(channel.rx[1].buffer) == [flit]
        assert not channel.rx[0].buffer
        assert engine._active_routers == {1}

    def test_arrival_into_full_input_vc_is_buffer_overflow(self):
        engine = _engine()
        channel = engine.channels[self.LINK]
        buffer = channel.rx[0].buffer
        buffer.extend(_flit(engine, i) for i in range(channel.buffer_depth))
        engine._events.push(0, FLIT, (channel, 0, _flit(engine)))
        with pytest.raises(
            SimulationError, match=r"buffer overflow at S1 \('link', 0, 0\) vc0"
        ):
            engine.step(0)

    def test_push_for_the_time_being_dispatched_runs_in_that_step(self, monkeypatch):
        """A fault kill during dispatch with no backoff pushes the
        retransmission's NIC_WAKE for the very cycle being dispatched;
        it lands in a fresh time list and still runs in that step."""
        engine = _engine(LinkFault(0, start=4, end=None), retransmit_backoff=0)
        wakes = []
        push = EventQueue.push

        def recording_push(queue, time, kind, payload):
            if kind == NIC_WAKE:
                wakes.append(time)
            push(queue, time, kind, payload)

        monkeypatch.setattr(EventQueue, "push", recording_push)
        engine.submit(source=0, dest=1, size_bytes=64, inject_cycle=0, seq=0)
        t = 0
        while not engine.fault_packet_kills and t < 1000:
            engine.step(t)
            t += 1
        assert engine.fault_packet_kills == 1
        killed_at = t - 1
        assert wakes[-1] == killed_at
        next_time = engine._events.peek_time()
        assert next_time is None or next_time > killed_at
