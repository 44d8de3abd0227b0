"""Property tests for the simulator's global event queue.

The engine's byte-identity guarantee rests on two invariants of
:class:`repro.simulator.events.EventQueue` (see docs/SIMULATOR.md):
pops never go backwards in time, and same-time events pop in insertion
order (one global sequence counter, so source ordering is fixed at
push time).  Hypothesis drives random push/pop interleavings at them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.events import CREDIT, FLIT, NIC_WAKE, EventQueue

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

    def test_push_returns_monotonic_seqs(self):
        q = EventQueue()
        seqs = [q.push(5, FLIT, None), q.push(3, CREDIT, None), q.push(9, NIC_WAKE, 0)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3
        assert len(q) == 3 and q

    def test_pop_returns_full_event(self):
        q = EventQueue()
        seq = q.push(7, CREDIT, ("cid", 1))
        assert q.peek_time() == 7
        assert q.pop() == (7, seq, CREDIT, ("cid", 1))
        assert q.pop() is None



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
        the global sequence counter makes tie order deterministic and
        independent of event kind."""
        q = EventQueue()
        for time, kind in events:
            q.push(time, kind, None)
        expected = sorted(
            ((time, idx) for idx, (time, _) in enumerate(events)),
        )
        popped = []
        while q:
            time, seq, _, _ = q.pop()
            popped.append((time, seq))
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
        naive dict-of-pending reference model."""
        q = EventQueue()
        pending = {}  # seq -> time
        for op, arg in ops:
            if op == "push":
                seq = q.push(arg, FLIT, None)
                pending[seq] = arg
            else:
                event = q.pop()
                if pending:
                    expected = min(pending.items(), key=lambda kv: (kv[1], kv[0]))
                    assert event is not None
                    assert (event[1], event[0]) == (expected[0], expected[1])
                    del pending[expected[0]]
                else:
                    assert event is None
            assert len(q) == len(pending)
            expected_peek = min(pending.values()) if pending else None
            assert q.peek_time() == expected_peek
