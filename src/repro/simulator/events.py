"""The simulator's global event queue: a calendar queue.

Every scheduled occurrence in the engine — flit arrivals, credit
returns, and NIC wake-ups — lives in one calendar (R. Brown, "Calendar
queues", CACM 31(10), 1988): a dict from each pending time to the FIFO
list of its ``(kind, payload)`` events, plus a binary heap of the
distinct pending times.  The determinism rules (pinned by the
hypothesis property tests in ``tests/simulator/test_event_queue.py``
and documented in ``docs/SIMULATOR.md``):

* events pop in nondecreasing time order;
* events scheduled for the same time pop in push order — each time's
  list is appended in push order, so the relative order of any two
  events is fixed at push time regardless of kind, with no sequence
  counter and no heap operation per event;
* every pushed event pops: the queue has no cancellation.

The event *kind* is deliberately not part of the order: the
pre-event-queue engine interleaved same-cycle flit and credit
deliveries purely by push order, and byte identity requires preserving
exactly that order.

A push is one line, ``calendar[time].append((kind, payload))``: the
calendar's ``__missing__`` opens the list of a new time and pushes that
time onto the heap.  A dispatcher pops the smallest due time from the
heap, removes its list from the calendar and runs the whole list.  An
event pushed meanwhile for that time (or an earlier one) opens a fresh
list with its own heap entry, so it still runs in the same dispatch,
after every event pushed before it for that time.

There is no cancellation because the engine must never drop a
scheduled event: a killed packet's in-flight flits still arrive and are
dropped *at the receiver*, so their buffer credits return through the
normal path — removing them from the queue would leak credits.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

# Event kinds.  Values are engine-internal; the queue itself orders
# only on (time, push order) and treats the kind as payload.
FLIT = 0
CREDIT = 1
NIC_WAKE = 2

Event = Tuple[int, int, object]  # (time, kind, payload)


class Calendar(dict):
    """``time -> [(kind, payload), ...]`` whose missing times open a
    fresh list and push the time onto the shared heap of times.

    The dict's keys and the heap's entries are always the same set of
    times, each once: a time enters the heap only when it enters the
    dict, and a dispatcher removes both together.
    """

    __slots__ = ("times",)

    def __init__(self) -> None:
        super().__init__()
        self.times: List[int] = []

    def __missing__(self, time: int) -> List[Tuple[int, object]]:
        bucket: List[Tuple[int, object]] = []
        self[time] = bucket
        heapq.heappush(self.times, time)
        return bucket


class EventQueue:
    """Deterministic calendar queue of ``(time, kind, payload)`` events.

    Hot loops push through :attr:`calendar` directly and dispatch whole
    time lists (the engine does); everyone else should stick to the
    methods.
    """

    __slots__ = ("calendar",)

    def __init__(self) -> None:
        self.calendar = Calendar()

    def push(self, time: int, kind: int, payload: object) -> None:
        """Schedule an event after every event already pushed for ``time``."""
        self.calendar[time].append((kind, payload))

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending event, or ``None``."""
        times = self.calendar.times
        return times[0] if times else None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, or ``None``.

        One event at a time, for callers outside the engine's dispatch
        loop; it shifts the time's list, so it is not a hot path.
        """
        calendar = self.calendar
        times = calendar.times
        if not times:
            return None
        time = times[0]
        bucket = calendar[time]
        kind, payload = bucket.pop(0)
        if not bucket:
            heapq.heappop(times)
            del calendar[time]
        return time, kind, payload

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.calendar.values())

    def __bool__(self) -> bool:
        return bool(self.calendar.times)
