"""Dynamic cross-validation of static certificates.

A certificate is a promise about behaviour; this module checks the
promise against the flit-level engine.  :func:`replay_pattern` injects
the pattern's messages into the engine at cycle times that preserve the
pattern's overlap structure — messages that overlap in the pattern may
coexist in the network, messages that don't are spaced far enough apart
that the earlier one has fully drained — and reports the engine's
contention and deadlock counters.  :func:`cross_validate` then asserts
(via :func:`replay_mismatches`, which checks an existing report):

* a network certified **contention-free** replays with zero
  :attr:`~repro.simulator.engine.Engine.contention_stalls` (no packet
  ever waits on a channel because of another packet);
* a network certified **deadlock-free** never trips the engine's
  timeout-based deadlock recovery (``deadlocks_detected == 0``);
* every message is delivered exactly once.

The injection scale is derived, not guessed: for any two disjoint
messages A before B, the injected gap ``K * (T_s(B) - T_s(A))`` must
exceed a conservative upper bound on A's solo service time (credit
round trips included), so ``K`` is the max bound divided by the
smallest start-time gap over disjoint interval pairs.  Large ``K`` is
nearly free — the engine skips idle cycles event-driven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.model.pattern import CommunicationPattern
from repro.simulator.config import SimConfig
from repro.simulator.engine import Engine
from repro.simulator.routing import SimRouting
from repro.simulator.simulation import routing_policy_for
from repro.topology.builders import Topology
from repro.verify.certificate import NetworkCertificate


@dataclass(frozen=True)
class ReplayReport:
    """Engine-side observations from one pattern replay.

    Attributes:
        topology_name/pattern_name: what was replayed on what.
        scale: cycles per pattern time unit used for injection.
        messages: packets submitted.
        delivered_packets: packets whose tail flit reached its NIC.
        contention_stalls: cycles lost to inter-packet contention.
        deadlocks_detected: regressive-recovery activations.
        retransmissions: packets re-injected after a kill.
        cycles: simulated cycles until the network drained.
    """

    topology_name: str
    pattern_name: str
    scale: int
    messages: int
    delivered_packets: int
    contention_stalls: int
    deadlocks_detected: int
    retransmissions: int
    cycles: int

    def summary(self) -> str:
        return (
            f"replayed {self.pattern_name} on {self.topology_name} "
            f"(scale {self.scale}): {self.delivered_packets}/{self.messages} "
            f"delivered in {self.cycles} cycles, "
            f"{self.contention_stalls} contention stalls, "
            f"{self.deadlocks_detected} deadlocks, "
            f"{self.retransmissions} retransmissions"
        )


def injection_scale(
    pattern: CommunicationPattern,
    config: SimConfig,
    max_route_hops: int,
    max_link_delay: int,
) -> int:
    """Cycles per pattern time unit preserving the overlap structure.

    The per-message solo service bound is generous — head latency plus
    one credit round trip per flit — because overshooting ``K`` only
    stretches idle (skipped) cycles, while undershooting would let
    schedule-disjoint messages collide and void the cross-validation.
    """
    intervals = sorted({(m.t_start, m.t_finish) for m in pattern.messages})
    max_flits = max(
        (config.flits_for(m.size_bytes) for m in pattern.messages), default=1
    )
    service_bound = (max_flits + max_route_hops + 4) * (2 * max_link_delay + 4)
    min_gap = None
    for i, (s1, f1) in enumerate(intervals):
        for s2, _ in intervals[i + 1:]:
            if f1 < s2:  # strictly disjoint (closed intervals)
                gap = s2 - s1
                if min_gap is None or gap < min_gap:
                    min_gap = gap
    if min_gap is None or min_gap <= 0:
        return 1
    return max(1, math.ceil(service_bound / min_gap))


def replay_pattern(
    topology: Topology,
    pattern: CommunicationPattern,
    config: Optional[SimConfig] = None,
    link_delays: Optional[Dict[int, int]] = None,
    routing: Optional[SimRouting] = None,
) -> ReplayReport:
    """Inject the pattern's messages at schedule-preserving times and
    run the engine until the network drains."""
    config = config or SimConfig()
    engine = Engine(
        topology,
        routing or routing_policy_for(topology),
        config,
        link_delays=link_delays,
    )
    max_hops = _max_route_hops(topology, pattern)
    max_delay = max(link_delays.values()) if link_delays else 1
    scale = injection_scale(pattern, config, max_hops, max_delay)
    ordered = sorted(
        pattern.messages, key=lambda m: (m.t_start, m.t_finish, m.source, m.dest)
    )
    for seq, message in enumerate(ordered):
        engine.submit(
            source=message.source,
            dest=message.dest,
            size_bytes=message.size_bytes,
            inject_cycle=int(round(message.t_start * scale)),
            seq=seq,
        )
    # Replay supplies every injection up front, so the engine only has
    # to drain; a network still busy past max_cycles never will.
    engine.drain(0, config.max_cycles + 1)
    if engine.busy():
        raise SimulationError(
            f"pattern replay exceeded {config.max_cycles} cycles; likely livelock"
        )
    return ReplayReport(
        topology_name=topology.name,
        pattern_name=pattern.name,
        scale=scale,
        messages=len(ordered),
        delivered_packets=engine.delivered_packets,
        contention_stalls=engine.contention_stalls,
        deadlocks_detected=engine.deadlocks_detected,
        retransmissions=engine.retransmissions,
        cycles=engine.cycles_simulated,
    )


def cross_validate(
    certificate: NetworkCertificate,
    topology: Topology,
    pattern: CommunicationPattern,
    config: Optional[SimConfig] = None,
    link_delays: Optional[Dict[int, int]] = None,
) -> Tuple[ReplayReport, List[str]]:
    """Replay the pattern and compare the engine against the certificate.

    Returns the replay report plus a list of human-readable mismatch
    descriptions from :func:`replay_mismatches` (empty when the static
    and dynamic views agree).
    """
    report = replay_pattern(topology, pattern, config=config, link_delays=link_delays)
    return report, replay_mismatches(certificate, report)


def replay_mismatches(
    certificate: NetworkCertificate, report: ReplayReport
) -> List[str]:
    """Where a replay contradicts the certificate (empty on agreement).

    Only certified properties are asserted: an uncertified network is
    allowed to stall or recover.
    """
    mismatches: List[str] = []
    if report.delivered_packets != report.messages:
        mismatches.append(
            f"delivered {report.delivered_packets} of {report.messages} messages"
        )
    if certificate.contention_free and report.contention_stalls:
        mismatches.append(
            f"certified contention-free but the replay recorded "
            f"{report.contention_stalls} contention stalls"
        )
    if certificate.deadlock_free and report.deadlocks_detected:
        mismatches.append(
            f"certified deadlock-free but the engine triggered deadlock "
            f"recovery {report.deadlocks_detected} times"
        )
    if certificate.deadlock_free and report.retransmissions:
        mismatches.append(
            f"certified deadlock-free but {report.retransmissions} packets "
            "were killed and retransmitted"
        )
    return mismatches


def _max_route_hops(topology: Topology, pattern: CommunicationPattern) -> int:
    """Longest model-route hop count over the pattern (diameter proxy).

    The torus simulates fully-adaptive minimal routing, whose paths are
    never longer than the model-level dimension-order ones, so the
    model routes bound both cases.
    """
    longest = 1
    for comm in sorted(pattern.communications):
        longest = max(longest, topology.routing.route(comm).num_hops)
    return longest

