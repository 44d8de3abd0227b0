"""Hardware model of the flit-level simulator: channels, routers, NICs.

The fabric mirrors the paper's assumptions: wormhole switching, a
configurable number of virtual channels per physical channel with
credit-based flow control, full internal crossbars (so contention is
modeled on the links, not inside switches — Definition 6's premise),
and one flit per physical channel per cycle.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simulator.config import SimConfig
from repro.simulator.packet import ChannelId, Flit, Packet

Endpoint = Tuple[str, int]  # ("router", switch_id) or ("nic", processor_id)


@dataclass(slots=True)
class Channel:
    """One directed physical channel with per-VC sender-side state.

    ``credits[vc]`` counts free buffer slots at the receiver;
    ``owner[vc]`` is the packet currently allocated the virtual channel
    (wormhole: held from head until tail departs the sender).
    """

    cid: ChannelId
    src: Endpoint
    dst: Endpoint
    delay: int
    buffer_depth: int
    credits: List[int]
    owner: List[Optional[int]]

    @classmethod
    def build(cls, cid: ChannelId, src: Endpoint, dst: Endpoint, delay: int, config: SimConfig) -> "Channel":
        if delay < 1:
            raise SimulationError(f"channel {cid} needs delay >= 1, got {delay}")
        # Buffers cover the credit round trip (2 x delay) so a longer
        # link is slower in latency but not throttled in bandwidth.
        depth = max(config.vc_buffer_flits, 2 * delay)
        return cls(
            cid=cid,
            src=src,
            dst=dst,
            delay=delay,
            buffer_depth=depth,
            credits=[depth] * config.num_vcs,
            owner=[None] * config.num_vcs,
        )

    def free_vc(self) -> Optional[int]:
        """Lowest unallocated VC, or ``None``."""
        for vc, owner in enumerate(self.owner):
            if owner is None:
                return vc
        return None

    def busy_vcs(self) -> int:
        """Number of allocated VCs — the congestion signal adaptive
        routing uses to pick among candidate outputs."""
        return sum(1 for owner in self.owner if owner is not None)


@dataclass(slots=True)
class InputVC:
    """Receiver-side buffer of one virtual channel.

    ``assignment`` holds ``(packet_id, out_channel, out_vc)`` for the
    packet currently being forwarded out of this VC.
    """

    buffer: Deque[Flit] = field(default_factory=deque)
    assignment: Optional[Tuple[int, ChannelId, int]] = None

    @property
    def front(self) -> Optional[Flit]:
        return self.buffer[0] if self.buffer else None


class Router:
    """One switch: input VCs per incoming channel, round-robin output
    arbitration over its outgoing channels."""

    def __init__(self, switch_id: int, config: SimConfig) -> None:
        self.switch_id = switch_id
        self._config = config
        self.inputs: Dict[ChannelId, List[InputVC]] = {}
        self.output_channels: List[ChannelId] = []
        self._rr: Dict[ChannelId, int] = {}
        # Every (cid, vc, ivc) input slot in scan order (channel id, then
        # VC), rebuilt as the fabric adds inputs and fixed afterwards,
        # so a router visit walks one prebuilt list.
        self.slots: List[Tuple[ChannelId, int, InputVC]] = []

    def add_input(self, cid: ChannelId) -> None:
        self.inputs[cid] = [InputVC() for _ in range(self._config.num_vcs)]
        self.slots = [
            (c, vc, ivc) for c in sorted(self.inputs) for vc, ivc in enumerate(self.inputs[c])
        ]

    def add_output(self, cid: ChannelId) -> None:
        self.output_channels.append(cid)
        self._rr[cid] = 0

    def accept(self, cid: ChannelId, vc: int, flit: Flit, depth: int) -> None:
        """Store an arriving flit in the addressed input VC."""
        buf = self.inputs[cid][vc]
        if len(buf.buffer) >= depth:
            raise SimulationError(
                f"buffer overflow at S{self.switch_id} {cid} vc{vc}: "
                "credit accounting is broken"
            )
        buf.buffer.append(flit)

    def arbitrate(self, cid: ChannelId, requesters: List[int]) -> int:
        """Round-robin winner among requester indices for an output."""
        if not requesters:
            raise SimulationError("arbitrate called with no requesters")
        start = self._rr[cid]
        requesters = sorted(requesters)
        for r in requesters:
            if r >= start:
                winner = r
                break
        else:
            winner = requesters[0]
        self._rr[cid] = winner + 1
        return winner


class Nic:
    """Network interface of one processor.

    The inject side streams queued packets into the processor's
    injection channel, one flit per cycle, holding one VC per packet.
    The eject side is an infinite sink (the NIC drains arriving flits
    immediately; credits return with the channel delay).
    """

    def __init__(self, processor: int, inject_channel: ChannelId) -> None:
        self.processor = processor
        self.inject_channel = inject_channel
        self.queue: Deque[Packet] = deque()
        self.streaming: Optional[Tuple[Packet, int]] = None  # (packet, vc)
        # Sorted inject times of queued packets, maintained on
        # enqueue/dequeue so idle-advance scheduling can binary-search
        # instead of rescanning the whole queue every stalled cycle.
        self._inject_times: List[int] = []
        # Min-heap of (inject_cycle, packet_id, packet) over queued
        # packets, so selecting the next packet to stream is a peek
        # instead of a min() scan of the queue.  Entries go stale when
        # a packet is dequeued; ``_queued_ids`` marks the live ones and
        # :meth:`peek_eligible` pops stale heads lazily.
        self._pending: List[Tuple[int, int, Packet]] = []
        self._queued_ids: set = set()

    def enqueue(self, packet: Packet) -> None:
        self.queue.append(packet)
        insort(self._inject_times, packet.inject_cycle)
        heappush(self._pending, (packet.inject_cycle, packet.packet_id, packet))
        self._queued_ids.add(packet.packet_id)

    def dequeue(self, packet: Packet) -> None:
        """Remove a packet selected for streaming from the queue."""
        self.queue.remove(packet)
        idx = bisect_right(self._inject_times, packet.inject_cycle) - 1
        # Equal times are interchangeable; remove any one slot.
        self._inject_times.pop(idx)
        self._queued_ids.discard(packet.packet_id)

    def peek_eligible(self, t: int) -> Optional[Packet]:
        """The queued packet with the smallest ``(inject_cycle,
        packet_id)`` whose inject time has arrived, or ``None``.

        Identical to ``min(eligible)`` over the queue — the heap order
        is exactly that key — without scanning it.
        """
        pending, queued = self._pending, self._queued_ids
        while pending and pending[0][1] not in queued:
            heappop(pending)
        if pending and pending[0][0] <= t:
            return pending[0][2]
        return None

    def pending_inject_cycles(self) -> List[int]:
        """Inject times of queued packets (for idle-skip scheduling)."""
        return list(self._inject_times)

    def next_inject_after(self, after: int) -> Optional[int]:
        """Earliest queued inject time strictly greater than ``after``,
        found by binary search over the sorted time cache."""
        idx = bisect_right(self._inject_times, after)
        return self._inject_times[idx] if idx < len(self._inject_times) else None

    def abort_stream(self, packet_id: int) -> Optional[int]:
        """Stop streaming a killed packet; returns its VC if it held one."""
        if self.streaming is not None and self.streaming[0].packet_id == packet_id:
            vc = self.streaming[1]
            self.streaming = None
            return vc
        return None
