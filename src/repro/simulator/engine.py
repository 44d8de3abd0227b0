"""Event-queue simulation engine.

Models wormhole flit transport over the fabric of
:mod:`repro.simulator.fabric`: per-cycle virtual-channel allocation,
round-robin switch allocation (one flit per physical channel per
cycle), credit-based flow control with delay-accurate credit return,
and timeout-based deadlock detection with regressive recovery (killed
packets drain and are retransmitted from the source — the paper's
"detection and regressive recovery" discipline).

All scheduling flows through one global
:class:`~repro.simulator.events.EventQueue`, a calendar queue: flit
arrivals, credit returns, and NIC wake-ups (packet inject times,
retransmission backoffs, injection back-pressure releases) are appended
to the list of their time, and dispatch runs each due time's list in
push order.  The hot loops push with one line,
``calendar[t + delay].append((kind, payload))``, and payloads hold the
:class:`~repro.simulator.fabric.Channel` itself, so a flit hop touches
its channels' state without a lookup; channel-id tuples name channels
only at the boundaries (routing candidates, fault checks, utilization
keys, metric names).  A visited router makes one pass over its
non-empty input VCs (drop killed flits, allocate a VC to a new head,
file the switch request), then allocates the switch.  Routers and NICs
are stepped only while members of the active sets (plain sets, visited
in ascending id), and every way a sleeping component can become
relevant again — an arriving flit, a returning credit, a queued inject
time, a fault transition — schedules or performs its activation, so
drivers can jump straight to :meth:`Engine.next_cycle` across idle
gaps, or let :meth:`Engine.drain` do it.  The cycle-driven
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
        # return through the normal path — so the hot loops push onto
        # its calendar and dispatch whole time lists directly.
        self._events = EventQueue()
        # Event-driven stepping: routers and NICs are stepped only while
        # in these sets, visited in ascending id.  A router joins on an
        # arriving flit or a returning credit and leaves once its input
        # buffers are empty.  A NIC sleeps when idle, when every queued
        # packet injects in the future (a NIC_WAKE event covers the
        # earliest), when blocked on an inject-channel credit (the
        # credit's return reactivates it), or when its inject channel is
        # dead (a fault transition reactivates it).
        self._active_routers: set = set()
        self._active_nics: set = set()
        # packet_id -> {id(InputVC): InputVC} for every input VC whose
        # current assignment belongs to that packet; lets _kill_packet
        # release a victim's resources without scanning the fabric.
        self._vc_assignments: Dict[int, Dict[int, InputVC]] = {}
        # Set by the two kill paths (deadlock recovery and fault kills):
        # until a packet has been killed no buffered flit can be a
        # killed one, so router visits skip the drop pass.
        self._any_killed = False
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
            self._occ_channels: List[Tuple[Channel, str]] = [
                (channel, "sim.channel_occupancy." + ":".join(str(part) for part in cid))
                for cid, channel in sorted(self.channels.items())
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
            self.routers[link.v].add_input(fwd)
            self.routers[link.u].add_input(bwd)
        for p in range(self.network.num_processors):
            s = self.network.switch_of(p)
            inj = Channel.build(("inj", p), ("nic", p), ("router", s), 1, self.config)
            ej = Channel.build(("ej", p), ("router", s), ("nic", p), 1, self.config)
            self.channels[inj.cid] = inj
            self.channels[ej.cid] = ej
            self.routers[s].add_input(inj)
            self.nics[p] = Nic(p, inj)

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
        return any(nic.pending or nic.streaming for nic in self.nics.values())

    def busy(self) -> bool:
        """Whether any traffic exists anywhere in the engine.

        A pending NIC_WAKE implies a queued packet, so counting wakes
        as "busy" matches the pre-event-queue answer exactly.
        """
        return bool(self._events) or self.flits_in_network > 0 or self.has_queued_packets()

    def drain(self, t: int, stop: int) -> int:
        """Step from cycle ``t`` until the engine is idle or cycle
        ``stop`` is reached, jumping idle gaps with :meth:`next_cycle`;
        returns the cycle it stopped at.  Drivers that inject nothing
        more (the open-loop drain, certificate replay) end with it."""
        while self.busy() and t < stop:
            if self.step(t):
                t += 1
                continue
            next_t = self.next_cycle(t)
            t = next_t if next_t is not None else t + 1
        return t

    # -- faults -----------------------------------------------------------

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
            for channel, name in self._occ_channels:
                occupancy = channel.busy_vcs()
                if occupancy or channel.busy_cycles:
                    m.series(name).append(t, occupancy)

    def _dispatch_events(self, t: int) -> bool:
        """Run every event due at or before cycle ``t``, one time list
        at a time in time order.

        Flit and credit deliveries must land exactly on their cycle (a
        past-due one means the driver skipped a scheduled cycle — a
        scheduling bug worth an immediate error).  NIC wake-ups are
        exempt from that skew check: a packet may legitimately be
        submitted with an inject cycle already in the past, and its
        wake then fires on the next visited cycle.  An event pushed
        during dispatch for a due time opens a fresh list, so it runs
        before this method returns.  A flit arriving at a router lands
        in its channel's input VC, which must have room: a full buffer
        means credit accounting is broken.
        """
        moved = False
        calendar = self._events.calendar
        times = calendar.times
        faults = self.faults
        while times and times[0] <= t:
            time = heapq.heappop(times)
            for kind, payload in calendar.pop(time):
                if kind == NIC_WAKE:
                    self._activate_nic(payload)
                    continue
                if time < t:
                    raise SimulationError(
                        f"engine time skew: event at {time} processed at {t}"
                    )
                if kind == CREDIT:
                    channel, vc = payload
                    channel.credits[vc] += 1
                    src_kind, src_id = channel.src
                    if src_kind == "router":
                        self._active_routers.add(src_id)
                    else:
                        # An inject-channel credit: the source NIC may
                        # have been sleeping on exactly this back-pressure.
                        self._activate_nic(src_id)
                else:
                    channel, vc, flit = payload
                    dst_kind, dst_id = channel.dst
                    if (
                        faults is not None
                        and not flit.packet.killed
                        and faults.channel_dead(channel.cid, t)
                    ):
                        # The flit was in flight when the channel failed:
                        # it is lost.  Kill the packet so its remaining
                        # flits drain and the source retransmits — the
                        # same regressive-recovery path the deadlock
                        # detector uses.  (Credit signaling is assumed
                        # reliable.)
                        calendar[t + channel.delay].append((CREDIT, (channel, vc)))
                        self.flits_in_network -= 1
                        moved = True
                        self._fault_kill(flit.packet, t)
                    elif dst_kind == "nic":
                        # NICs are infinite sinks: consume immediately.
                        calendar[t + channel.delay].append((CREDIT, (channel, vc)))
                        self.flits_in_network -= 1
                        moved = True
                        if flit.is_tail and not flit.packet.killed:
                            self._complete_delivery(flit.packet, t)
                    elif flit.packet.killed:
                        # Drop killed flits on arrival, returning the credit.
                        calendar[t + channel.delay].append((CREDIT, (channel, vc)))
                        self.flits_in_network -= 1
                        moved = True
                    else:
                        buffer = channel.rx[vc].buffer
                        if len(buffer) >= channel.buffer_depth:
                            raise SimulationError(
                                f"buffer overflow at S{dst_id} {channel.cid} vc{vc}: "
                                "credit accounting is broken"
                            )
                        buffer.append(flit)
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

    def _assign_vc(self, ivc: InputVC, pid: int, out_channel: Channel, out_vc: int) -> None:
        """Record an input VC's output assignment, keeping the
        packet-indexed registry in step."""
        old = ivc.assignment
        if old is not None:
            entries = self._vc_assignments.get(old[0])
            if entries is not None:
                entries.pop(id(ivc), None)
                if not entries:
                    del self._vc_assignments[old[0]]
        ivc.assignment = (pid, out_channel, out_vc)
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
        """Step every active router: one pass over its non-empty input
        VCs, then switch allocation and transmission.

        Per non-empty slot, in scan order, the pass drops killed flits
        at the front (once any packet has been killed), allocates an
        output VC to a new head flit, and files the slot's switch
        request.  Doing the three steps per slot makes the same
        decisions as doing each step for every slot before the next: an
        allocation writes only output-VC owners and its own slot's
        assignment, and a request reads neither.
        """
        moved = False
        hops = 0
        calendar = self._events.calendar
        channels = self.channels
        faults = self.faults
        any_killed = self._any_killed
        for sid in sorted(self._active_routers):
            router = self.routers[sid]
            # Non-empty slots of this visit, in scan order; switch
            # requests and the round-robin pointers index into it.
            live: List[Tuple[Channel, int, InputVC]] = []
            flat: List[Tuple[Channel, int]] = []
            for slot in router.slots:
                ivc = slot[2]
                buf = ivc.buffer
                if not buf:
                    continue
                if any_killed:
                    # Drop killed flits sitting at the buffer front.
                    while buf and buf[0].packet.killed:
                        buf.popleft()
                        calendar[t + slot[0].delay].append((CREDIT, (slot[0], slot[1])))
                        self.flits_in_network -= 1
                        moved = True
                    if not buf:
                        continue
                idx = len(live)
                live.append(slot)
                front = buf[0]
                pid = front.packet.packet_id
                assignment = ivc.assignment
                if assignment is None or assignment[0] != pid:
                    if not front.is_head:
                        continue
                    # Route + VC allocation for a new head flit.
                    candidates = [
                        channels[cid] for cid in self.routing.candidates(front.packet, sid)
                    ]
                    if faults is not None:
                        # Dead outputs are not allocatable; with no live
                        # candidate the head waits (recovery or timeout).
                        candidates = [
                            c for c in candidates if not faults.channel_dead(c.cid, t)
                        ]
                    if len(candidates) > 1:
                        # Adaptive choice: prefer the least-congested
                        # output channel (fewest allocated VCs), ties in
                        # candidate order — deterministic
                        # congestion-aware TFAR.
                        candidates.sort(key=Channel.busy_vcs)
                    for out_channel in candidates:
                        out_vc = out_channel.free_vc()
                        if out_vc is not None:
                            out_channel.owner[out_vc] = pid
                            self._assign_vc(ivc, pid, out_channel, out_vc)
                            break
                    else:
                        if candidates:
                            # Live candidates exist but every VC is held
                            # by another packet: inter-packet contention.
                            self.contention_stalls += 1
                        continue
                    assignment = ivc.assignment
                # Switch request, one flit per output channel.
                _, out_channel, out_vc = assignment
                if faults is not None and faults.channel_dead(out_channel.cid, t):
                    continue  # channel failed after allocation: stall
                if out_channel.credits[out_vc] > 0:
                    flat.append((out_channel, idx))
                else:
                    # Allocated VC but no credit: back-pressure stall.
                    self.credit_stalls += 1
            if not live:
                # Nothing buffered: a no-op membership (typically a
                # credit returning to an already-drained router); drop
                # it instead of re-scanning an empty router every
                # visited cycle.
                self._active_routers.discard(sid)
                continue
            # Group by output channel only when more than one VC made a
            # request — the streaming common case is a single request,
            # where the dict build and key sort are pure overhead.
            if len(flat) == 1:
                groups = [(flat[0][0], [flat[0][1]])]
            elif flat:
                requests: Dict[ChannelId, Tuple[Channel, List[int]]] = {}
                for out_channel, idx in flat:
                    requests.setdefault(out_channel.cid, (out_channel, []))[1].append(idx)
                groups = [requests[cid] for cid in sorted(requests)]
            else:
                groups = []
            for out_channel, reqs in groups:
                losers = len(reqs) - 1
                if losers:
                    # Distinct packets competing for one physical
                    # channel this cycle; all but the winner stall.
                    self.contention_stalls += losers
                    winner_idx = router.arbitrate(out_channel, reqs)
                else:
                    # Sole requester: round-robin always grants it and
                    # parks the pointer just past it, exactly what
                    # ``arbitrate`` computes for a one-element list.
                    winner_idx = reqs[0]
                    out_channel.rr = winner_idx + 1
                in_channel, vc, ivc = live[winner_idx]
                flit = ivc.buffer.popleft()
                _, _, out_vc = ivc.assignment
                out_channel.credits[out_vc] -= 1
                out_channel.busy_cycles += 1
                calendar[t + out_channel.delay].append((FLIT, (out_channel, out_vc, flit)))
                calendar[t + in_channel.delay].append((CREDIT, (in_channel, vc)))
                hops += 1
                moved = True
                if flit.is_tail:
                    self._clear_assignment(ivc)
                    out_channel.owner[out_vc] = None
            # Emptiness check over the slots seen this cycle is enough:
            # a slot outside ``live`` was empty when the cycle's
            # arrivals were already in, and nothing below refills it.
            for slot in live:
                if slot[2].buffer:
                    break
            else:
                self._active_routers.discard(sid)
        self.flit_hops += hops
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
        calendar = self._events.calendar
        faults = self.faults
        for p in sorted(self._active_nics):
            nic = self.nics[p]
            channel = nic.inject_channel
            if faults is not None and faults.channel_dead(channel.cid, t):
                # Injection blocked while the channel is down; every
                # fault transition reactivates all NICs.
                self._active_nics.discard(p)
                continue
            pending = nic.pending
            if nic.streaming is None and pending:
                inject_cycle, _, pkt = pending[0]
                if inject_cycle <= t:
                    # The heap head is the earliest (inject_cycle,
                    # packet_id) among queued packets: stream it.
                    vc = channel.free_vc()
                    if vc is not None:
                        channel.owner[vc] = pkt.packet_id
                        nic.streaming = (pkt, vc)
                        heapq.heappop(pending)
                else:
                    # Every queued packet injects in the future: sleep
                    # until the earliest, the head's.
                    calendar[inject_cycle].append((NIC_WAKE, p))
                    self._active_nics.discard(p)
                    continue
            if nic.streaming is not None:
                pkt, vc = nic.streaming
                if channel.credits[vc] > 0:
                    flit = Flit(pkt, pkt.flits_sent)
                    channel.credits[vc] -= 1
                    channel.busy_cycles += 1
                    pkt.flits_sent += 1
                    calendar[t + channel.delay].append((FLIT, (channel, vc, flit)))
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
            elif not pending:
                # Fully idle; submit()/retransmit enqueues reactivate.
                self._active_nics.discard(p)
            # else: an eligible packet exists but no inject VC is free
            # (transiently possible only around kills); retry next cycle.
        return moved

    # -- regressive recovery ---------------------------------------------

    def _recover_deadlock(self, t: int) -> None:
        """Kill the youngest stuck packet and retransmit it (regressive
        recovery)."""
        # Only a live packet that has sent a flit holds network
        # resources that killing it would free.
        stuck = [
            pkt
            for pkt in self._packets.values()
            if not pkt.killed and not pkt.delivered and pkt.flits_sent > 0
        ]
        if not stuck:
            # Progress stalled with no killable packet: accounting bug.
            raise SimulationError(
                f"deadlock detected at cycle {t} but no packet is in flight"
            )
        victim = max(stuck, key=lambda pkt: (pkt.inject_cycle, pkt.packet_id))
        self.deadlocks_detected += 1
        self._any_killed = True
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
        self._any_killed = True
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
            _, out_channel, out_vc = assignment
            out_channel.owner[out_vc] = None
            ivc.assignment = None
        nic = self.nics[victim.source]
        held_vc = nic.abort_stream(victim.packet_id)
        if held_vc is not None:
            nic.inject_channel.owner[held_vc] = None
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
            cid: channel.busy_cycles / total_cycles
            for cid, channel in sorted(self.channels.items())
            if channel.busy_cycles
        }
