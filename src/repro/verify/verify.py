"""Static network certification (the ``repro verify`` pass).

:func:`certify` takes any routed network — synthesized, mesh, torus,
crossbar — plus the workload pattern it must carry and
produces a :class:`~repro.verify.certificate.NetworkCertificate` with
five named findings:

* ``connectivity`` — the switch graph is connected;
* ``degree`` — every switch respects the port-count bound (when one is
  given; otherwise the observed maximum is recorded);
* ``routes_valid`` — every communication's route is a contiguous walk
  over links that exist, traversed in their claimed direction;
* ``contention`` — Theorem 1 (``C ∩ R = ∅``), with the offending pairs
  and their shared channels as witnesses on failure;
* ``deadlock`` — Dally–Seitz acyclicity of the channel-dependency
  graph over ``(channel, vc class)`` resources.  When the global CDG
  has a cycle, the verifier falls back to *schedule slicing*: packets
  can only wait on each other if their messages coexist, and a set of
  closed time intervals pairwise overlaps iff it shares a common
  instant (Helly's theorem in one dimension), so checking the CDG of
  every maximal live communication set — one per distinct message
  start time — is exact for traffic that respects the pattern's
  schedule.  A cycle inside a slice is a genuine deadlock risk and
  fails the finding with the cycle, its slice time, and the live
  communications as witness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import RoutingError, TopologyError
from repro.eval.serialize import encode_resource
from repro.model.conflicts import shared_links
from repro.model.pattern import CommunicationPattern
from repro.model.theorem import check_contention_free
from repro.topology.builders import Topology
from repro.topology.routing import RoutingBase
from repro.topology.validate import check_routes_valid, degree_report
from repro.verify.cdg import CycleWitness, build_cdg
from repro.verify.certificate import Finding, NetworkCertificate
from repro.verify.vcmap import VcClassifier, classifier_for


def certify(
    topology: Topology,
    pattern: CommunicationPattern,
    max_degree: Optional[int] = None,
    routing: Optional[RoutingBase] = None,
    classifier: Optional[VcClassifier] = None,
) -> NetworkCertificate:
    """Certify ``pattern`` on ``topology``; never raises on unsafe
    networks — failures become findings with witnesses.

    Args:
        topology: the network to certify (its ``routing`` is used
            unless overridden).
        pattern: the workload the certificate is scoped to.
        max_degree: optional port-count bound for the ``degree``
            finding (synthesized networks promise one; baselines don't).
        routing: override the routing function under test.
        classifier: override the VC-class discipline (defaults to
            dateline classes on tori, a single class elsewhere).
    """
    network = topology.network
    routing = routing if routing is not None else topology.routing
    classifier = classifier if classifier is not None else classifier_for(topology)
    findings = (
        _check_connectivity(network),
        _check_degree(network, max_degree),
        _check_routes(network, routing, pattern),
        _check_contention(pattern, routing),
        _check_deadlock(pattern, routing, classifier),
    )
    return NetworkCertificate(
        topology_name=topology.name,
        topology_kind=topology.kind,
        pattern_name=pattern.name,
        num_processors=network.num_processors,
        num_switches=network.num_switches,
        num_links=network.num_links,
        findings=findings,
    )


def cycle_to_dict(cycle: CycleWitness) -> Dict:
    """JSON-safe form of a cycle witness (sorted, stable encodings)."""
    return {
        "length": len(cycle),
        "nodes": [
            {"channel": encode_resource(res), "vc_class": cls}
            for res, cls in cycle.nodes
        ],
        "edges": [
            {
                "src": encode_resource(e.src[0]),
                "src_vc_class": e.src[1],
                "dst": encode_resource(e.dst[0]),
                "dst_vc_class": e.dst[1],
                "comm": [e.comm.source, e.comm.dest] if e.comm else None,
                "hop_index": e.hop_index,
            }
            for e in cycle.edges
        ],
    }


def _check_connectivity(network) -> Finding:
    reachable = network.reachable_switches()
    unreached = sorted(set(network.switches) - reachable)
    if not unreached:
        return Finding(
            name="connectivity",
            status="pass",
            summary=f"switch graph connected ({network.num_switches} switches)",
            details={"num_switches": network.num_switches},
        )
    return Finding(
        name="connectivity",
        status="fail",
        summary=f"{len(unreached)} switches unreachable from switch "
        f"{min(network.switches)}",
        details={"num_switches": network.num_switches},
        witness={"unreachable_switches": unreached},
    )


def _check_degree(network, max_degree: Optional[int]) -> Finding:
    observed = network.max_degree()
    if max_degree is None:
        return Finding(
            name="degree",
            status="pass",
            summary=f"max switch degree {observed} (no bound requested)",
            details={"max_allowed": None, "max_observed": observed},
        )
    report = degree_report(network, max_degree)
    details = {
        "max_allowed": max_degree,
        "max_observed": observed,
        "degrees": [[s, d] for s, d in report.degrees],
    }
    if report.satisfied:
        return Finding(
            name="degree",
            status="pass",
            summary=f"every switch within the degree bound {max_degree} "
            f"(max observed {observed})",
            details=details,
        )
    return Finding(
        name="degree",
        status="fail",
        summary=f"{len(report.violators)} switches exceed the degree bound "
        f"{max_degree}",
        details=details,
        witness={"violators": list(report.violators)},
    )


def _check_routes(network, routing: RoutingBase, pattern: CommunicationPattern) -> Finding:
    comms = sorted(pattern.communications)
    try:
        check_routes_valid(network, routing, comms)
    except (RoutingError, TopologyError) as exc:
        return Finding(
            name="routes_valid",
            status="fail",
            summary="a route is malformed or uses nonexistent links",
            details={"communications": len(comms)},
            witness={"error": str(exc)},
        )
    return Finding(
        name="routes_valid",
        status="pass",
        summary=f"all {len(comms)} routes are contiguous walks over "
        "existing links",
        details={"communications": len(comms)},
    )


def _check_contention(pattern: CommunicationPattern, routing: RoutingBase) -> Finding:
    cert = check_contention_free(pattern, routing)
    details = {
        "contention_set_size": cert.contention_set_size,
        "conflict_set_size": cert.conflict_set_size,
        "violations": len(cert.violations),
    }
    if cert.contention_free:
        return Finding(
            name="contention",
            status="pass",
            summary="Theorem 1 holds: C ∩ R = ∅ (contention-free)",
            details=details,
        )
    witness = [
        {
            "first": [v.event.first.source, v.event.first.dest],
            "second": [v.event.second.source, v.event.second.dest],
            "shared_channels": sorted(
                encode_resource(res)
                for res in shared_links(routing, v.event.first, v.event.second)
            ),
        }
        for v in cert.violations
    ]
    return Finding(
        name="contention",
        status="fail",
        summary=f"Theorem 1 violated: {len(cert.violations)} overlapping "
        "pairs share channels",
        details=details,
        witness={"violations": witness},
    )


def _check_deadlock(
    pattern: CommunicationPattern,
    routing: RoutingBase,
    classifier: VcClassifier,
) -> Finding:
    comms = pattern.communications
    graph = build_cdg(routing, comms, classifier)
    base_details = {
        "classifier": classifier.name,
        "vc_classes": classifier.num_classes,
        "nodes": len(graph.nodes),
        "edges": graph.num_edges,
    }
    cycle = graph.find_cycle()
    if cycle is None:
        return Finding(
            name="deadlock",
            status="pass",
            summary="channel-dependency graph is acyclic (Dally–Seitz)",
            details=dict(base_details, method="acyclic"),
        )
    # The global CDG is cyclic: fall back to schedule slicing.  Each
    # slice is one maximal set of communications that can coexist under
    # the pattern's timing.
    slices = schedule_slices(pattern)
    for slice_time, live in slices:
        slice_cycle = build_cdg(routing, live, classifier).find_cycle()
        if slice_cycle is not None:
            return Finding(
                name="deadlock",
                status="fail",
                summary=f"dependency cycle among communications live at "
                f"t={slice_time:g}",
                details=dict(base_details, method="none", slices=len(slices)),
                witness=dict(
                    cycle_to_dict(slice_cycle),
                    slice_time=slice_time,
                    live_communications=[[c.source, c.dest] for c in sorted(live)],
                ),
            )
    return Finding(
        name="deadlock",
        status="pass",
        summary=f"every coexisting communication set is acyclic "
        f"({len(slices)} schedule slices; global CDG has a cycle that "
        "the schedule never realizes)",
        details=dict(base_details, method="schedule", slices=len(slices)),
        witness={"unscheduled_cycle": cycle_to_dict(cycle)},
    )


def schedule_slices(
    pattern: CommunicationPattern,
) -> List[Tuple[float, frozenset]]:
    """Maximal sets of communications that can be in flight together.

    For closed intervals, any pairwise-overlapping family shares a
    common instant, and every maximal overlapping family is live at
    some message's start time — so sampling the live set at each
    distinct ``t_start`` enumerates all maximal coexistence sets.
    Duplicate sets are dropped (first occurrence wins).
    """
    messages = pattern.messages
    slices: List[Tuple[float, frozenset]] = []
    seen = set()
    for t in sorted({m.t_start for m in messages}):
        live = frozenset(
            m.communication for m in messages if m.t_start <= t <= m.t_finish
        )
        if live and live not in seen:
            seen.add(live)
            slices.append((t, live))
    return slices
