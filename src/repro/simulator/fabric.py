"""Hardware model of the flit-level simulator: channels, routers, NICs.

The fabric mirrors the paper's assumptions: wormhole switching, a
configurable number of virtual channels per physical channel with
credit-based flow control, full internal crossbars (so contention is
modeled on the links, not inside switches — Definition 6's premise),
and one flit per physical channel per cycle.

Each piece of state has one home.  A :class:`Channel` holds everything
about one directed channel: sender-side credits and VC owners, the
receiver-side input VC buffers, the switch allocator's round-robin
pointer for it, and its busy-cycle count.  A :class:`Router` holds only
its slot table over the input VCs of its incoming channels, and a
:class:`Nic` keeps its queue as one heap.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simulator.config import SimConfig
from repro.simulator.packet import ChannelId, Flit, Packet

Endpoint = Tuple[str, int]  # ("router", switch_id) or ("nic", processor_id)


@dataclass(slots=True)
class Channel:
    """One directed physical channel and all of its state.

    ``credits[vc]`` counts free buffer slots at the receiver;
    ``owner[vc]`` is the packet currently allocated the virtual channel
    (wormhole: held from head until tail departs the sender).  ``rx[vc]``
    is the receiver's input VC buffer (empty for ejection channels: the
    NIC consumes flits on arrival).  ``rr`` is the round-robin pointer
    of the switch allocator for this output, and ``busy_cycles`` counts
    the cycles a flit entered the channel.
    """

    cid: ChannelId
    src: Endpoint
    dst: Endpoint
    delay: int
    buffer_depth: int
    credits: List[int]
    owner: List[Optional[int]]
    rx: List[InputVC] = field(default_factory=list, repr=False)
    busy_cycles: int = 0
    rr: int = 0

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
    assignment: Optional[Tuple[int, Channel, int]] = None


class Router:
    """One switch: the input VCs of its incoming channels, walked as
    one slot table.  Its outgoing channels carry their own arbitration
    state."""

    def __init__(self, switch_id: int, config: SimConfig) -> None:
        self.switch_id = switch_id
        self._config = config
        # Every (channel, vc, ivc) input slot in scan order (channel id,
        # then VC), kept sorted as the fabric adds inputs and fixed
        # afterwards, so a router visit walks one prebuilt list.
        self.slots: List[Tuple[Channel, int, InputVC]] = []

    def add_input(self, channel: Channel) -> None:
        channel.rx = [InputVC() for _ in range(self._config.num_vcs)]
        self.slots.extend((channel, vc, ivc) for vc, ivc in enumerate(channel.rx))
        self.slots.sort(key=lambda slot: (slot[0].cid, slot[1]))

    def arbitrate(self, channel: Channel, requesters: List[int]) -> int:
        """Round-robin winner among requester indices for an output."""
        if not requesters:
            raise SimulationError("arbitrate called with no requesters")
        start = channel.rr
        requesters = sorted(requesters)
        for r in requesters:
            if r >= start:
                winner = r
                break
        else:
            winner = requesters[0]
        channel.rr = winner + 1
        return winner


class Nic:
    """Network interface of one processor.

    The inject side streams queued packets into the processor's
    injection channel, one flit per cycle, holding one VC per packet.
    The eject side is an infinite sink (the NIC drains arriving flits
    immediately; credits return with the channel delay).
    """

    def __init__(self, processor: int, inject_channel: Channel) -> None:
        self.processor = processor
        self.inject_channel = inject_channel
        self.streaming: Optional[Tuple[Packet, int]] = None  # (packet, vc)
        # Min-heap of (inject_cycle, packet_id, packet) over queued
        # packets: the head streams next once its inject cycle has
        # come, and until then its cycle is when the NIC wakes.
        self.pending: List[Tuple[int, int, Packet]] = []

    def enqueue(self, packet: Packet) -> None:
        heappush(self.pending, (packet.inject_cycle, packet.packet_id, packet))

    def abort_stream(self, packet_id: int) -> Optional[int]:
        """Stop streaming a killed packet; returns its VC if it held one."""
        if self.streaming is not None and self.streaming[0].packet_id == packet_id:
            vc = self.streaming[1]
            self.streaming = None
            return vc
        return None
