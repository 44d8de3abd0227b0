"""Event-queue simulation engine.

Models wormhole flit transport over the fabric of
:mod:`repro.simulator.fabric`: per-cycle virtual-channel allocation,
round-robin switch allocation (one flit per physical channel per
cycle), credit-based flow control with delay-accurate credit return,
and timeout-based deadlock detection with regressive recovery (killed
packets drain and are retransmitted from the source — the paper's
"detection and regressive recovery" discipline).

All scheduling flows through one global :class:`~repro.simulator.events.EventQueue`:
flit arrivals, credit returns, and NIC wake-ups (packet inject times,
retransmission backoffs, injection back-pressure releases) are events
keyed on ``(time, insertion seq)``.  Routers and NICs are stepped only
while members of the active sets, and every way a sleeping component
can become relevant again — an arriving flit, a returning credit, a
queued inject time, a fault transition — schedules or performs its
activation, so drivers can jump straight to
:meth:`Engine.next_cycle` across idle gaps.  The cycle-driven
semantics are unchanged (see ``docs/SIMULATOR.md`` for the event model
and its determinism rules); the byte-identity differential harness in
``tests/simulator/test_event_queue_diff.py`` holds this engine to the
committed goldens under ``tests/simulator/golden/`` (frozen from the
pre-event-queue engine).

Fault injection: when a :class:`~repro.faults.state.FaultState` is
supplied, every allocation and traversal decision consults it.  Flits
in flight on a failing channel are lost, and the affected packet is
killed and retransmitted through the same regressive-recovery path the
deadlock detector uses; packets blocked *before* a dead channel simply
stall until the timeout kills them (or the channel recovers, for
transient faults).  Credit/control signaling is assumed reliable, so
transient faults leave no accounting residue after recovery.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs import DISABLED, Observability
from repro.simulator.config import SimConfig
from repro.simulator.events import CREDIT, FLIT, NIC_WAKE, EventQueue
from repro.simulator.fabric import Channel, InputVC, Nic, Router
from repro.simulator.packet import ChannelId, Flit, Packet
from repro.simulator.routing import SimRouting
from repro.topology.builders import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.state import FaultState

DeliveryHandler = Callable[[int, int, int, int], None]  # (src, dst, seq, cycle)


class _SortedIdSet:
    """A set of ids handing out a lazily cached sorted view.

    The engine walks the active-router set in sorted order every cycle,
    while membership changes far less often than cycles pass; caching
    the sorted list and re-sorting only after a mutation replaces the
    per-cycle ``sorted(set)`` with a list reuse."""

    __slots__ = ("_members", "_ordered", "_dirty")

    def __init__(self) -> None:
        self._members: set = set()
        self._ordered: List[int] = []
        self._dirty = False

    def add(self, member: int) -> None:
        if member not in self._members:
            self._members.add(member)
            self._dirty = True

    def update(self, members) -> None:
        before = len(self._members)
        self._members.update(members)
        if len(self._members) != before:
            self._dirty = True

    def discard(self, member: int) -> None:
        if member in self._members:
            self._members.discard(member)
            self._dirty = True

    def ordered(self) -> List[int]:
        """Members in sorted order.

        The returned list is a snapshot: mutating the set marks the
        cache dirty for the *next* call but never touches a list
        already handed out, so callers may discard members while
        iterating it."""
        if self._dirty:
            self._ordered = sorted(self._members)
            self._dirty = False
        return self._ordered

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: int) -> bool:
        return member in self._members


class Engine:
    """The network fabric plus its event queue and progress tracking."""

    def __init__(
        self,
        topology: Topology,
        sim_routing: SimRouting,
        config: SimConfig,
        link_delays: Optional[Dict[int, int]] = None,
        fault_state: Optional["FaultState"] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        topology.network.validate()
        self.topology = topology
        self.network = topology.network
        self.routing = sim_routing
        self.config = config
        self.faults = fault_state
        self.channels: Dict[ChannelId, Channel] = {}
        self.routers: Dict[int, Router] = {}
        self.nics: Dict[int, Nic] = {}
        self._build_fabric(link_delays or {})

        # The single event queue.  It has no cancellation — killed
        # packets' flits must still arrive so their buffer credits
        # return through the normal path — so the dispatch loop pops
        # the raw heap directly.
        self._events = EventQueue()
        self._active_routers = _SortedIdSet()
        # Event-driven NIC stepping: a NIC is stepped only while in the
        # active set.  It sleeps when idle, when every queued packet
        # injects in the future (a NIC_WAKE event covers the earliest),
        # when blocked on an inject-channel credit (the credit's return
        # reactivates it), or when its inject channel is dead (a fault
        # transition reactivates it).
        self._active_nics: set = set()
        # packet_id -> {id(InputVC): InputVC} for every input VC whose
        # current assignment belongs to that packet; lets _kill_packet
        # release a victim's resources without scanning the fabric.
        self._vc_assignments: Dict[int, Dict[int, InputVC]] = {}
        self._packets: Dict[int, Packet] = {}
        self._next_packet_id = 0
        self.flits_in_network = 0
        self.last_progress = 0
        self.deadlocks_detected = 0
        # Cycles lost to *inter-packet* contention: a head flit finding
        # every VC of its candidate channels held by other packets, or
        # an allocated flit losing switch arbitration to another packet.
        # Self-induced credit stalls (a lone packet throttled by its own
        # credit round-trip on a long link) are deliberately excluded —
        # the static contention certificate promises the absence of
        # inter-packet interference, not of flow-control latency.
        self.contention_stalls = 0
        # Back-pressure: a router request blocked on a zero credit (once
        # per visited cycle), or a NIC parking on its inject credit.
        self.credit_stalls = 0
        self.retransmissions = 0
        self.fault_packet_kills = 0
        self.delivered_packets = 0
        self.flits_injected = 0
        self.flit_hops = 0
        self.nic_wakeups = 0
        self.packet_latencies: List[int] = []
        self._delivery_handler: Optional[DeliveryHandler] = None
        self._delivery_observers: List[DeliveryHandler] = []
        self._channel_busy_cycles: Dict[ChannelId, int] = {}
        # Index of the earliest fault transition not yet crossed;
        # FaultState.transitions is sorted, so crossing is an O(1)
        # pointer bump instead of a scan of every window boundary.
        self._transition_idx = 0
        # Highest cycle this engine has simulated, plus one — the busy
        # window link-utilization fractions normalize over (covers the
        # drain after the last process finishes, so utilization stays
        # in [0, 1] even for trailing-send programs).
        self.cycles_simulated = 0
        # Observability only samples; publish_metrics reports the
        # counters above, so observing never changes the schedule.
        self.obs = obs if obs is not None else DISABLED
        self._obs_on = self.obs.enabled
        self._next_sample = 0
        if self._obs_on:
            m = self.obs.metrics
            self._s_flits = m.series("sim.flits_in_network")
            self._s_active_routers = m.series("sim.active_routers")
            # Channel sampling order and metric names are fixed at
            # construction; the per-window loop only reads them.
            self._occ_channels: List[Tuple[ChannelId, str]] = [
                (cid, "sim.channel_occupancy." + ":".join(str(part) for part in cid))
                for cid in sorted(self.channels)
            ]

    # -- construction ---------------------------------------------------

    def _build_fabric(self, link_delays: Dict[int, int]) -> None:
        for s in self.network.switches:
            self.routers[s] = Router(s, self.config)
        for link in self.network.links:
            delay = max(1, link_delays.get(link.link_id, 1))
            fwd = Channel.build(
                ("link", link.link_id, 0), ("router", link.u), ("router", link.v), delay, self.config
            )
            bwd = Channel.build(
                ("link", link.link_id, 1), ("router", link.v), ("router", link.u), delay, self.config
            )
            self.channels[fwd.cid] = fwd
            self.channels[bwd.cid] = bwd
            self.routers[link.u].add_output(fwd.cid)
            self.routers[link.v].add_input(fwd.cid)
            self.routers[link.v].add_output(bwd.cid)
            self.routers[link.u].add_input(bwd.cid)
        for p in range(self.network.num_processors):
            s = self.network.switch_of(p)
            inj = Channel.build(("inj", p), ("nic", p), ("router", s), 1, self.config)
            ej = Channel.build(("ej", p), ("router", s), ("nic", p), 1, self.config)
            self.channels[inj.cid] = inj
            self.channels[ej.cid] = ej
            self.routers[s].add_input(inj.cid)
            self.routers[s].add_output(ej.cid)
            self.nics[p] = Nic(p, inj.cid)

    def set_delivery_handler(self, handler: DeliveryHandler) -> None:
        self._delivery_handler = handler

    def add_delivery_observer(self, observer: DeliveryHandler) -> None:
        """Register an extra per-delivery callback.

        The handler slot belongs to the process replay; observers let
        invariant tests watch deliveries without stealing it.
        """
        self._delivery_observers.append(observer)

    # -- packet submission ------------------------------------------------

    def submit(self, source: int, dest: int, size_bytes: int, inject_cycle: int, seq: int) -> int:
        """Queue a message for injection; returns the packet id."""
        packet = Packet(
            packet_id=self._next_packet_id,
            source=source,
            dest=dest,
            size_bytes=size_bytes,
            num_flits=self.config.flits_for(size_bytes),
            seq=seq,
            inject_cycle=inject_cycle,
        )
        self._next_packet_id += 1
        self.routing.prepare(packet, self.network)
        self._packets[packet.packet_id] = packet
        self.nics[source].enqueue(packet)
        self._events.push(inject_cycle, NIC_WAKE, source)
        return packet.packet_id

    # -- scheduling helpers ----------------------------------------------

    def _activate_nic(self, processor: int) -> None:
        """Move a NIC into the active set (idempotent)."""
        if processor not in self._active_nics:
            self._active_nics.add(processor)
            self.nic_wakeups += 1

    def next_cycle(self, t: int, *also: int) -> Optional[int]:
        """The next cycle to visit after a cycle ``t`` in which nothing
        moved, or ``None`` when there is nothing to wait for.

        Candidates: the earliest event (flit and credit arrivals, NIC
        wake-ups for queued injections); while traffic exists, the next
        fault transition; while flits are in the network, the
        deadlock-detection horizon, however far off the next event is;
        and any cycle in ``also`` (the open-loop driver's next injection
        round).  Never earlier than ``t + 1``.
        """
        candidates = list(also)
        event_next = self._events.peek_time()
        if event_next is not None:
            candidates.append(event_next)
        if self.faults is not None and self.busy():
            fault_next = self.faults.next_transition(t)
            if fault_next is not None:
                candidates.append(fault_next)
        if self.flits_in_network > 0:
            candidates.append(self.last_progress + self.config.deadlock_threshold)
        if not candidates:
            return None
        return max(t + 1, min(candidates))

    def has_queued_packets(self) -> bool:
        return any(nic.queue or nic.streaming for nic in self.nics.values())

    def busy(self) -> bool:
        """Whether any traffic exists anywhere in the engine.

        A pending NIC_WAKE implies a queued packet, so counting wakes
        as "busy" matches the pre-event-queue answer exactly.
        """
        return bool(self._events) or self.flits_in_network > 0 or self.has_queued_packets()

    # -- faults -----------------------------------------------------------

    def _dead(self, cid: ChannelId, t: int) -> bool:
        """Whether channel ``cid`` is failed at cycle ``t``."""
        return self.faults is not None and self.faults.channel_dead(cid, t)

    def _cross_fault_transitions(self, t: int) -> None:
        """Wake the whole fabric when a fault activates or recovers, so
        blocked head flits re-arbitrate immediately."""
        transitions = self.faults.transitions
        idx = self._transition_idx
        if idx >= len(transitions) or transitions[idx] > t:
            return
        while idx < len(transitions) and transitions[idx] <= t:
            idx += 1
        self._transition_idx = idx
        self._active_routers.update(self.routers)
        # A recovered inject channel unblocks its sleeping NIC; a
        # failed one needs the NIC stepped once to notice and park.
        for p in self.nics:
            self._activate_nic(p)

    # -- the cycle --------------------------------------------------------

    def step(self, t: int) -> bool:
        """Simulate cycle ``t``; returns whether any flit moved."""
        if t >= self.cycles_simulated:
            self.cycles_simulated = t + 1
        if self._obs_on and t >= self._next_sample:
            self._sample_window(t)
        if self.faults is not None:
            self._cross_fault_transitions(t)
        moved = self._dispatch_events(t)
        moved |= self._step_routers(t)
        moved |= self._step_nics(t)
        if moved:
            self.last_progress = t
        elif self.flits_in_network > 0 and t - self.last_progress >= self.config.deadlock_threshold:
            self._recover_deadlock(t)
        return moved

    def _sample_window(self, t: int) -> None:
        """Record the per-window gauges (flits in flight, router
        activity, per-channel occupancy) at simulated cycle ``t``."""
        self._next_sample = t + self.obs.sample_every
        self._s_flits.append(t, self.flits_in_network)
        self._s_active_routers.append(t, len(self._active_routers))
        m = self.obs.metrics
        if m.enabled:
            channels = self.channels
            busy = self._channel_busy_cycles
            for cid, name in self._occ_channels:
                occupancy = channels[cid].busy_vcs()
                if occupancy or cid in busy:
                    m.series(name).append(t, occupancy)

    def _dispatch_events(self, t: int) -> bool:
        """Pop and handle every event due at or before cycle ``t``.

        Flit and credit deliveries must land exactly on their cycle (a
        past-due one means the driver skipped a scheduled cycle — a
        scheduling bug worth an immediate error).  NIC wake-ups are
        exempt from that skew check: a packet may legitimately be
        submitted with an inject cycle already in the past, and its
        wake then fires on the next visited cycle.
        """
        moved = False
        heap = self._events._heap
        push = self._events.push
        channels = self.channels
        while heap and heap[0][0] <= t:
            time, _, kind, payload = heapq.heappop(heap)
            if kind == NIC_WAKE:
                self._activate_nic(payload)
                continue
            if time < t:
                raise SimulationError(
                    f"engine time skew: event at {time} processed at {t}"
                )
            if kind == CREDIT:
                cid, vc = payload
                channel = channels[cid]
                channel.credits[vc] += 1
                src_kind, src_id = channel.src
                if src_kind == "router":
                    self._active_routers.add(src_id)
                else:
                    # An inject-channel credit: the source NIC may have
                    # been sleeping on exactly this back-pressure.
                    self._activate_nic(src_id)
            else:
                cid, vc, flit = payload
                channel = channels[cid]
                dst_kind, dst_id = channel.dst
                if (
                    self.faults is not None
                    and not flit.packet.killed
                    and self._dead(cid, t)
                ):
                    # The flit was in flight when the channel failed: it
                    # is lost.  Kill the packet so its remaining flits
                    # drain and the source retransmits — the same
                    # regressive-recovery path the deadlock detector
                    # uses.  (Credit signaling is assumed reliable.)
                    push(t + channel.delay, CREDIT, (cid, vc))
                    self.flits_in_network -= 1
                    moved = True
                    self._fault_kill(flit.packet, t)
                elif dst_kind == "nic":
                    # NICs are infinite sinks: consume immediately.
                    push(t + channel.delay, CREDIT, (cid, vc))
                    self.flits_in_network -= 1
                    moved = True
                    if flit.is_tail and not flit.packet.killed:
                        self._complete_delivery(flit.packet, t)
                elif flit.packet.killed:
                    # Drop killed flits on arrival, returning the credit.
                    push(t + channel.delay, CREDIT, (cid, vc))
                    self.flits_in_network -= 1
                    moved = True
                else:
                    self.routers[dst_id].accept(cid, vc, flit, channel.buffer_depth)
                    self._active_routers.add(dst_id)
        return moved

    def _complete_delivery(self, packet: Packet, t: int) -> None:
        packet.delivered = True
        self.delivered_packets += 1
        self.packet_latencies.append(t - packet.inject_cycle)
        if self._delivery_handler is not None:
            self._delivery_handler(packet.source, packet.dest, packet.seq, t)
        for observer in self._delivery_observers:
            observer(packet.source, packet.dest, packet.seq, t)

    def _assign_vc(self, ivc: InputVC, pid: int, out_cid: ChannelId, out_vc: int) -> None:
        """Record an input VC's output assignment, keeping the
        packet-indexed registry in step."""
        old = ivc.assignment
        if old is not None:
            entries = self._vc_assignments.get(old[0])
            if entries is not None:
                entries.pop(id(ivc), None)
                if not entries:
                    del self._vc_assignments[old[0]]
        ivc.assignment = (pid, out_cid, out_vc)
        self._vc_assignments.setdefault(pid, {})[id(ivc)] = ivc

    def _clear_assignment(self, ivc: InputVC) -> None:
        assignment = ivc.assignment
        if assignment is not None:
            entries = self._vc_assignments.get(assignment[0])
            if entries is not None:
                entries.pop(id(ivc), None)
                if not entries:
                    del self._vc_assignments[assignment[0]]
        ivc.assignment = None

    def _step_routers(self, t: int) -> bool:
        moved = False
        push = self._events.push
        channels = self.channels
        for sid in self._active_routers.ordered():
            router = self.routers[sid]
            active = router.active_vcs()
            if not active:
                # Nothing buffered: a no-op membership (typically a
                # credit returning to an already-drained router); drop
                # it instead of re-scanning an empty router every
                # visited cycle.
                self._active_routers.discard(sid)
                continue
            # Phase 0: drop killed flits sitting at buffer fronts.
            dropped = False
            for cid, vc, ivc in active:
                while ivc.buffer and ivc.buffer[0].packet.killed:
                    ivc.buffer.popleft()
                    push(t + channels[cid].delay, CREDIT, (cid, vc))
                    self.flits_in_network -= 1
                    moved = True
                    dropped = True
            if dropped:
                active = [(cid, vc, ivc) for cid, vc, ivc in active if ivc.buffer]
            # Phase 1: route + VC allocation for new head flits.  Every
            # slot in ``active`` has a non-empty buffer here (phase 0
            # filtered the drained ones), so the front flit is read
            # directly.
            for cid, vc, ivc in active:
                front = ivc.buffer[0]
                if not front.is_head:
                    continue
                assignment = ivc.assignment
                if assignment is not None and assignment[0] == front.packet.packet_id:
                    continue
                candidates = self.routing.candidates(front.packet, sid)
                if self.faults is not None:
                    # Dead outputs are not allocatable; with no live
                    # candidate the head waits (recovery or timeout).
                    candidates = [c for c in candidates if not self._dead(c, t)]
                if len(candidates) > 1:
                    # Adaptive choice: prefer the least-congested output
                    # channel (fewest allocated VCs), ties in candidate
                    # order — deterministic congestion-aware TFAR.
                    candidates = sorted(
                        candidates,
                        key=lambda c: channels[c].busy_vcs(),
                    )
                for out_cid in candidates:
                    out_channel = channels[out_cid]
                    out_vc = out_channel.free_vc()
                    if out_vc is not None:
                        out_channel.owner[out_vc] = front.packet.packet_id
                        self._assign_vc(ivc, front.packet.packet_id, out_cid, out_vc)
                        break
                else:
                    if candidates:
                        # Live candidates exist but every VC is held by
                        # another packet: inter-packet contention.
                        self.contention_stalls += 1
            # Phase 2: switch allocation, one flit per output channel.
            flat: List[Tuple[ChannelId, int]] = []
            for idx, (cid, vc, ivc) in enumerate(active):
                assignment = ivc.assignment
                if assignment is None:
                    continue
                pid, out_cid, out_vc = assignment
                if pid != ivc.buffer[0].packet.packet_id:
                    continue
                if self.faults is not None and self._dead(out_cid, t):
                    continue  # channel failed after allocation: stall
                if channels[out_cid].credits[out_vc] > 0:
                    flat.append((out_cid, idx))
                else:
                    # Allocated VC but no credit: back-pressure stall.
                    self.credit_stalls += 1
            # Group by output channel only when more than one VC made a
            # request — the streaming common case is a single request,
            # where the dict build and key sort are pure overhead.
            if len(flat) == 1:
                groups = [(flat[0][0], [flat[0][1]])]
            elif flat:
                requests: Dict[ChannelId, List[int]] = {}
                for out_cid, idx in flat:
                    requests.setdefault(out_cid, []).append(idx)
                groups = [(out_cid, requests[out_cid]) for out_cid in sorted(requests)]
            else:
                groups = []
            for out_cid, reqs in groups:
                losers = len(reqs) - 1
                if losers:
                    # Distinct packets competing for one physical
                    # channel this cycle; all but the winner stall.
                    self.contention_stalls += losers
                    winner_idx = router.arbitrate(out_cid, reqs)
                else:
                    # Sole requester: round-robin always grants it and
                    # parks the pointer just past it, exactly what
                    # ``arbitrate`` computes for a one-element list.
                    winner_idx = reqs[0]
                    router._rr[out_cid] = winner_idx + 1
                cid, vc, ivc = active[winner_idx]
                flit = ivc.buffer.popleft()
                _, _, out_vc = ivc.assignment
                out_channel = channels[out_cid]
                out_channel.credits[out_vc] -= 1
                push(t + out_channel.delay, FLIT, (out_cid, out_vc, flit))
                push(t + channels[cid].delay, CREDIT, (cid, vc))
                self._channel_busy_cycles[out_cid] = (
                    self._channel_busy_cycles.get(out_cid, 0) + 1
                )
                self.flit_hops += 1
                moved = True
                if flit.is_tail:
                    self._clear_assignment(ivc)
                    out_channel.owner[out_vc] = None
            # Emptiness check over the slots seen this cycle is enough:
            # a slot outside ``active`` was empty when the cycle's
            # arrivals were already in, and nothing below refills it.
            for slot in active:
                if slot[2].buffer:
                    break
            else:
                self._active_routers.discard(sid)
        return moved

    def _step_nics(self, t: int) -> bool:
        """Step every *active* NIC (event-driven injection).

        A NIC that cannot possibly make progress is parked out of the
        active set with a wake condition armed — a NIC_WAKE event for
        future inject times, the inject channel's credit return for
        back-pressure, a fault transition for a dead channel, an
        enqueue for an empty queue — so idle-heavy traces stop paying a
        full NIC sweep per cycle.  Decisions and ``moved`` are
        byte-identical to the always-sweep implementation: a parked NIC
        is exactly one that would have done nothing."""
        if not self._active_nics:
            return False
        moved = False
        push = self._events.push
        for p in sorted(self._active_nics):
            nic = self.nics[p]
            channel = self.channels[nic.inject_channel]
            if self.faults is not None and self._dead(nic.inject_channel, t):
                # Injection blocked while the channel is down; every
                # fault transition reactivates all NICs.
                self._active_nics.discard(p)
                continue
            if nic.streaming is None and nic.queue:
                pkt = nic.peek_eligible(t)
                if pkt is not None:
                    vc = channel.free_vc()
                    if vc is not None:
                        channel.owner[vc] = pkt.packet_id
                        nic.streaming = (pkt, vc)
                        nic.dequeue(pkt)
                else:
                    # Every queued packet injects in the future: sleep
                    # until the earliest (the queue is non-empty and
                    # all inject times exceed t, so one exists).
                    push(nic.next_inject_after(t), NIC_WAKE, p)
                    self._active_nics.discard(p)
                    continue
            if nic.streaming is not None:
                pkt, vc = nic.streaming
                if channel.credits[vc] > 0:
                    flit = Flit(pkt, pkt.flits_sent)
                    channel.credits[vc] -= 1
                    pkt.flits_sent += 1
                    push(t + channel.delay, FLIT, (nic.inject_channel, vc, flit))
                    self._channel_busy_cycles[nic.inject_channel] = (
                        self._channel_busy_cycles.get(nic.inject_channel, 0) + 1
                    )
                    self.flits_in_network += 1
                    self.flits_injected += 1
                    moved = True
                    if flit.is_tail:
                        nic.streaming = None
                        channel.owner[vc] = None
                else:
                    # Blocked on the inject channel credit: parked until
                    # the credit comes back (its delivery reactivates
                    # this NIC).
                    self.credit_stalls += 1
                    self._active_nics.discard(p)
            elif not nic.queue:
                # Fully idle; submit()/retransmit enqueues reactivate.
                self._active_nics.discard(p)
            # else: an eligible packet exists but no inject VC is free
            # (transiently possible only around kills); retry next cycle.
        return moved

    # -- regressive recovery ---------------------------------------------

    def _recover_deadlock(self, t: int) -> None:
        """Kill the youngest stuck packet and retransmit it (regressive
        recovery)."""
        stuck = [
            pkt
            for pkt in self._packets.values()
            if not pkt.killed and not pkt.delivered and self._has_presence(pkt)
        ]
        if not stuck:
            # Progress stalled with no killable packet: accounting bug.
            raise SimulationError(
                f"deadlock detected at cycle {t} but no packet is in flight"
            )
        victim = max(stuck, key=lambda pkt: (pkt.inject_cycle, pkt.packet_id))
        self.deadlocks_detected += 1
        self.obs.tracer.event(
            "sim.deadlock",
            cycle=t,
            packet=victim.packet_id,
            source=victim.source,
            dest=victim.dest,
        )
        self._kill_packet(victim)
        self._retransmit(victim, t)
        self.last_progress = t

    def _fault_kill(self, packet: Packet, t: int) -> None:
        """Regressive recovery triggered by a fault instead of the
        timeout: a flit of ``packet`` was lost on a failing channel."""
        if packet.killed or packet.delivered:
            return
        self.fault_packet_kills += 1
        self.obs.tracer.event(
            "sim.fault_kill",
            cycle=t,
            packet=packet.packet_id,
            source=packet.source,
            dest=packet.dest,
        )
        self._kill_packet(packet)
        self._retransmit(packet, t)

    def _kill_packet(self, victim: Packet) -> None:
        """Mark a packet killed and release every resource it holds; its
        flits in buffers/in flight drop via the killed flag."""
        victim.killed = True
        # The assignment registry maps the victim straight to the input
        # VCs it holds — no fabric-wide scan.
        for ivc in self._vc_assignments.pop(victim.packet_id, {}).values():
            assignment = ivc.assignment
            if assignment is None or assignment[0] != victim.packet_id:
                continue  # defensive; the registry is kept exact
            _, out_cid, out_vc = assignment
            self.channels[out_cid].owner[out_vc] = None
            ivc.assignment = None
        nic = self.nics[victim.source]
        held_vc = nic.abort_stream(victim.packet_id)
        if held_vc is not None:
            self.channels[nic.inject_channel].owner[held_vc] = None
        # Wake every router so killed flits drain promptly, and the
        # source NIC: aborting the stream may unblock a queued packet
        # before the retransmission's backoff expires.
        self._active_routers.update(self.routers)
        self._activate_nic(victim.source)

    def _retransmit(self, victim: Packet, t: int) -> None:
        """Re-inject a killed packet from its source after the backoff.

        The replacement gets a fresh id but keeps the (source, dest,
        seq) identity, and is re-prepared by the routing policy — so a
        repaired routing table re-routes retransmissions around
        permanent faults.
        """
        replacement = Packet(
            packet_id=self._next_packet_id,
            source=victim.source,
            dest=victim.dest,
            size_bytes=victim.size_bytes,
            num_flits=victim.num_flits,
            seq=victim.seq,
            inject_cycle=t + self.config.retransmit_backoff,
        )
        self._next_packet_id += 1
        self.routing.prepare(replacement, self.network)
        self._packets[replacement.packet_id] = replacement
        self.nics[victim.source].enqueue(replacement)
        self._events.push(replacement.inject_cycle, NIC_WAKE, victim.source)
        self.retransmissions += 1
        self.obs.tracer.event(
            "sim.retransmit",
            cycle=t,
            packet=victim.packet_id,
            replacement=replacement.packet_id,
            inject_cycle=replacement.inject_cycle,
        )

    def _has_presence(self, pkt: Packet) -> bool:
        """Whether killing the packet could free network resources: it
        has sent at least one flit and its tail has not yet delivered."""
        return pkt.flits_sent > 0

    # -- stats ---------------------------------------------------------------

    def publish_metrics(self) -> None:
        """Add this run's tallies to the observability registry.

        Drivers call it once, at the end of a run.  Counters add, so
        several runs on one registry accumulate.
        """
        m = self.obs.metrics
        if not m.enabled:
            return
        for name, value in (
            ("sim.flits_injected", self.flits_injected),
            ("sim.flit_hops", self.flit_hops),
            ("sim.packets_delivered", self.delivered_packets),
            ("sim.deadlocks", self.deadlocks_detected),
            ("sim.contention_stalls", self.contention_stalls),
            ("sim.retransmissions", self.retransmissions),
            ("sim.fault_kills", self.fault_packet_kills),
            ("sim.credit_stalls", self.credit_stalls),
            ("sim.nic_wakeups", self.nic_wakeups),
        ):
            m.counter(name).inc(value)
        latency = m.histogram("sim.packet_latency_cycles")
        for cycles in self.packet_latencies:
            latency.observe(cycles)
        m.gauge("sim.cycles_simulated").set(self.cycles_simulated)

    def link_utilization(
        self, total_cycles: Optional[int] = None
    ) -> Dict[ChannelId, float]:
        """Busy fraction per channel.

        Defaults to normalizing over :attr:`cycles_simulated` — the
        window busy cycles actually accrue over, including the drain
        after the last process finishes — so every fraction is in
        [0, 1].  An explicit ``total_cycles`` overrides it.
        """
        if total_cycles is None:
            total_cycles = self.cycles_simulated
        if total_cycles <= 0:
            return {}
        return {
            cid: busy / total_cycles
            for cid, busy in sorted(self._channel_busy_cycles.items())
        }
