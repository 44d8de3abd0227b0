"""The simulator's global event queue.

One binary heap carries every scheduled occurrence in the engine —
flit arrivals, credit returns, and NIC wake-ups — keyed strictly on
``(time, insertion sequence)``.  The determinism rules (pinned by the
hypothesis property tests in ``tests/simulator/test_event_queue.py``
and documented in ``docs/SIMULATOR.md``):

* events pop in nondecreasing time order;
* events scheduled for the same time pop in insertion order — the
  sequence number is a single global counter, so the relative order of
  any two events is fixed at push time regardless of kind;
* every pushed event pops: the queue has no cancellation.

The event *kind* is deliberately not part of the sort key: the
pre-event-queue engine interleaved same-cycle flit and credit
deliveries purely by push order, and byte identity requires preserving
exactly that order.

There is no cancellation because the engine must never drop a
scheduled event: a killed packet's in-flight flits still arrive and are
dropped *at the receiver*, so their buffer credits return through the
normal path — removing them from the queue would leak credits.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

# Event kinds.  Values are engine-internal; the queue itself orders
# only on (time, seq) and treats the kind as payload.
FLIT = 0
CREDIT = 1
NIC_WAKE = 2

Event = Tuple[int, int, int, object]  # (time, seq, kind, payload)


class EventQueue:
    """Deterministic min-heap of ``(time, seq, kind, payload)`` events.

    Hot loops may pop the raw :attr:`_heap` directly (the engine does);
    everyone else should stick to the methods.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0

    def push(self, time: int, kind: int, payload: object) -> int:
        """Schedule an event; returns its sequence number."""
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, kind, payload))
        return seq

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending event, or ``None``."""
        return self._heap[0][0] if self._heap else None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, or ``None``."""
        return heapq.heappop(self._heap) if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
