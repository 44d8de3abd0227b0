"""Packets and flits.

A message is transported as a single wormhole packet: a header flit
carrying the routing information followed by payload flits and a tail
flit (for one-flit payloads the last payload flit is the tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

ChannelId = Tuple  # ("inj", p) | ("ej", p) | ("link", link_id, direction)


@dataclass(slots=True)
class Packet:
    """One in-flight message instance.

    Attributes:
        packet_id: unique per injection attempt (retransmissions get a
            fresh id).
        source: source processor.
        dest: destination processor.
        size_bytes: payload size.
        num_flits: header + payload flits.
        seq: per (source, dest) sequence number, used by receive
            matching so out-of-order arrivals cannot mis-match.
        inject_cycle: when the packet entered the NIC queue.
        route_hops: for source-routed networks, the ordered channel ids
            the packet must traverse after injection (inter-switch hops
            then the ejection channel).  ``None`` for per-hop adaptive
            routing.
        dest_switch: destination's switch, used by adaptive routing.
        killed: set by regressive deadlock recovery; all of the packet's
            flits drain and are discarded.
    """

    packet_id: int
    source: int
    dest: int
    size_bytes: int
    num_flits: int
    seq: int
    inject_cycle: int
    route_hops: Optional[Tuple[ChannelId, ...]] = None
    dest_switch: int = -1
    killed: bool = False
    delivered: bool = False
    flits_sent: int = 0


class Flit:
    """One flit of a packet.

    A plain slotted class, not a dataclass: flits are the simulator's
    highest-volume allocation, and the head/tail flags are precomputed
    at construction because the router and engine hot loops test them
    on every flit they touch.
    """

    __slots__ = ("packet", "index", "is_head", "is_tail")

    def __init__(self, packet: Packet, index: int) -> None:
        self.packet = packet
        self.index = index
        self.is_head = index == 0
        self.is_tail = index == packet.num_flits - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit({self.packet.packet_id}:{self.index}{kind})"
