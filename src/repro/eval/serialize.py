"""Stable serialization of simulation results and cache payloads.

Link resources are tuples (``("link", 3, 0)``, ``("inj", 2)``,
``("ej", 5)``) and therefore not JSON keys.  :func:`encode_resource`
gives each one a stable string form (``"link:3:0"``) used by the
on-disk result cache and the utilization report, and
:func:`decode_resource` inverts it exactly.

:func:`result_to_dict` / :func:`result_from_dict` round-trip a
:class:`~repro.simulator.stats.SimulationResult` through JSON-safe
dictionaries losslessly (floats survive via JSON's shortest-repr
round-trip), so cached results are byte-identical to freshly computed
ones once both pass through :func:`canonical_json`.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import ReproError
from repro.simulator.config import SimConfig
from repro.simulator.openloop import LoadPoint
from repro.simulator.stats import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see design_to_dict)
    from repro.model.pattern import CommunicationPattern
    from repro.synthesis.generator import GeneratedDesign

_RESOURCE_KINDS = ("link", "inj", "ej")


class SerializationError(ReproError):
    """A payload could not be encoded or decoded."""


def _malformed(kind: str, raw: object, exc: Exception) -> SerializationError:
    """The named error a decoder raises in place of a stray lookup error.

    Decoders index their payload directly and convert the failure here,
    so well-formed payloads pay for no per-field check.
    """
    if not isinstance(raw, dict):
        return SerializationError(
            f"{kind} payload must be a JSON object, got {type(raw).__name__}"
        )
    if isinstance(exc, KeyError):
        return SerializationError(f"{kind} payload lacks field {exc.args[0]!r}")
    return SerializationError(f"malformed {kind} payload: {exc}")


def encode_resource(resource: Tuple) -> str:
    """Stable string form of a directed-channel resource tuple.

    ``("link", 3, 0)`` -> ``"link:3:0"``; ``("inj", 2)`` -> ``"inj:2"``.
    """
    if not isinstance(resource, tuple) or not resource:
        raise SerializationError(f"not a resource tuple: {resource!r}")
    kind = resource[0]
    if kind not in _RESOURCE_KINDS:
        raise SerializationError(f"unknown resource kind {kind!r} in {resource!r}")
    if kind == "link" and len(resource) != 3:
        raise SerializationError(f"link resource needs (kind, id, dir): {resource!r}")
    if kind in ("inj", "ej") and len(resource) != 2:
        raise SerializationError(f"{kind} resource needs (kind, processor): {resource!r}")
    for part in resource[1:]:
        if not isinstance(part, int) or isinstance(part, bool):
            raise SerializationError(f"non-integer field {part!r} in {resource!r}")
    return ":".join([kind] + [str(p) for p in resource[1:]])


def decode_resource(encoded: str) -> Tuple:
    """Invert :func:`encode_resource`."""
    parts = encoded.split(":")
    if parts[0] not in _RESOURCE_KINDS:
        raise SerializationError(f"unknown resource encoding {encoded!r}")
    try:
        fields = tuple(int(p) for p in parts[1:])
    except ValueError:
        raise SerializationError(f"malformed resource encoding {encoded!r}") from None
    resource = (parts[0],) + fields
    # Validate shape by re-encoding.
    if encode_resource(resource) != encoded:
        raise SerializationError(f"malformed resource encoding {encoded!r}")
    return resource


def encode_link_utilization(utilization: Dict[Tuple, float]) -> Dict[str, float]:
    """String-keyed, sort-stable form of a per-channel busy-fraction map."""
    return {
        encode_resource(res): frac
        for res, frac in sorted(utilization.items(), key=lambda kv: encode_resource(kv[0]))
    }


def decode_link_utilization(encoded: Dict[str, float]) -> Dict[Tuple, float]:
    return {decode_resource(key): frac for key, frac in encoded.items()}


def config_to_dict(config: SimConfig) -> dict:
    return asdict(config)


def config_from_dict(raw: dict) -> SimConfig:
    return SimConfig(**raw)


def result_to_dict(result: SimulationResult) -> dict:
    """JSON-safe dictionary form of a simulation result."""
    return {
        "topology_name": result.topology_name,
        "program_name": result.program_name,
        "execution_cycles": result.execution_cycles,
        "comm_cycles_per_process": list(result.comm_cycles_per_process),
        "delivered_packets": result.delivered_packets,
        "deadlocks_detected": result.deadlocks_detected,
        "retransmissions": result.retransmissions,
        "fault_packet_kills": result.fault_packet_kills,
        "flit_hops": result.flit_hops,
        "link_utilization": encode_link_utilization(result.link_utilization),
        "config": config_to_dict(result.config),
        "packet_latencies": list(result.packet_latencies),
    }


def result_from_dict(raw: dict) -> SimulationResult:
    """Invert :func:`result_to_dict`.

    Raises:
        SerializationError: ``raw`` is not a dict or lacks a field.
    """
    try:
        return SimulationResult(
            topology_name=raw["topology_name"],
            program_name=raw["program_name"],
            execution_cycles=raw["execution_cycles"],
            comm_cycles_per_process=tuple(raw["comm_cycles_per_process"]),
            delivered_packets=raw["delivered_packets"],
            deadlocks_detected=raw["deadlocks_detected"],
            retransmissions=raw["retransmissions"],
            fault_packet_kills=raw["fault_packet_kills"],
            flit_hops=raw["flit_hops"],
            link_utilization=decode_link_utilization(raw["link_utilization"]),
            config=config_from_dict(raw["config"]),
            packet_latencies=tuple(raw["packet_latencies"]),
        )
    except (KeyError, TypeError) as exc:
        raise _malformed("simulation result", raw, exc) from exc


def loadpoint_to_dict(point: LoadPoint) -> dict:
    """JSON-safe dictionary form of one open-loop measurement."""
    return {
        "offered_flits_per_node_cycle": point.offered_flits_per_node_cycle,
        "accepted_flits_per_node_cycle": point.accepted_flits_per_node_cycle,
        "avg_latency": point.avg_latency,
        "delivered": point.delivered,
        "saturated": point.saturated,
        "p50_latency": point.p50_latency,
        "p95_latency": point.p95_latency,
        "p99_latency": point.p99_latency,
    }


def loadpoint_from_dict(raw: dict) -> LoadPoint:
    """Invert :func:`loadpoint_to_dict`.

    Raises:
        SerializationError: ``raw`` is not a dict or lacks a field.
    """
    try:
        return LoadPoint(
            offered_flits_per_node_cycle=raw["offered_flits_per_node_cycle"],
            accepted_flits_per_node_cycle=raw["accepted_flits_per_node_cycle"],
            avg_latency=raw["avg_latency"],
            delivered=raw["delivered"],
            saturated=raw["saturated"],
            p50_latency=raw["p50_latency"],
            p95_latency=raw["p95_latency"],
            p99_latency=raw["p99_latency"],
        )
    except (KeyError, TypeError) as exc:
        raise _malformed("load point", raw, exc) from exc


def design_to_dict(design: "GeneratedDesign") -> dict:
    """JSON-safe, lossless dictionary form of a synthesized design.

    The encoding leans on two :class:`~repro.topology.network.Network`
    invariants — ``add_switch`` and ``add_link`` assign sequential ids —
    so switches are implied by count, links are a list indexed by link
    id, and rebuilding them in order reproduces every id exactly.
    Routes pin their per-hop parallel-link choices, the Theorem 1
    certificate keeps its witnesses, and the partition counters ride as
    :class:`~repro.synthesis.generator.DesignStats`.  The synthesis
    imports are deferred: ``repro.synthesis.portfolio`` imports this
    module's siblings at module scope, so importing synthesis here at
    module scope would cycle.
    """
    net = design.network
    if list(net.switches) != list(range(net.num_switches)):
        raise SerializationError(
            f"non-sequential switch ids {net.switches!r}; cannot encode losslessly"
        )
    links = sorted(net.links, key=lambda l: l.link_id)
    if [l.link_id for l in links] != list(range(len(links))):
        raise SerializationError(
            "non-sequential link ids; cannot encode losslessly"
        )
    cert = design.certificate
    return {
        "pattern_name": design.pattern.name,
        "seed": design.seed,
        "num_processors": net.num_processors,
        "num_switches": net.num_switches,
        "processors": [net.switch_of(p) for p in range(net.num_processors)],
        "links": [[l.u, l.v] for l in links],
        "routes": [
            [r.comm.source, r.comm.dest, list(r.switch_path), list(r.link_ids)]
            for r in sorted(
                design.topology.routing.table,
                key=lambda r: (r.comm.source, r.comm.dest),
            )
        ],
        "switch_map": [[s, n] for s, n in sorted(design.switch_map.items())],
        "pipe_links": sorted(
            [sorted(pair), list(ids)] for pair, ids in design.pipe_links.items()
        ),
        "stats": asdict(design.stats),
        "certificate": {
            "contention_free": cert.contention_free,
            "contention_set_size": cert.contention_set_size,
            "conflict_set_size": cert.conflict_set_size,
            "violations": [
                [list(v.event.as_4tuple), [str(l) for l in v.links]]
                for v in cert.violations
            ],
        },
    }


def design_from_dict(raw: dict, pattern: "CommunicationPattern") -> "GeneratedDesign":
    """Invert :func:`design_to_dict` against the original pattern.

    The pattern itself is not serialized (the cache key already pins its
    full fingerprint); the caller supplies it and the clique analysis is
    recomputed — ``CliqueAnalysis.of`` is a pure function of the
    pattern.  ``result`` is ``None`` on the rehydrated design: the
    partition state does not survive serialization, only its counters do
    (``stats``).  Round-tripping the result through
    :func:`design_to_dict` is byte-identical.

    Raises:
        SerializationError: ``raw`` is not a dict, lacks a field, or was
            synthesized for another pattern.
    """
    from repro.model.cliques import CliqueAnalysis
    from repro.model.contention import ContentionEvent
    from repro.model.message import Communication
    from repro.model.theorem import ContentionCertificate, ContentionViolation
    from repro.synthesis.generator import DesignStats, FallbackRouting, GeneratedDesign
    from repro.topology.builders import Topology
    from repro.topology.network import Network
    from repro.topology.routing import TableRouting, make_route

    try:
        if raw["pattern_name"] != pattern.name:
            raise SerializationError(
                f"design was synthesized for pattern {raw['pattern_name']!r}, "
                f"got {pattern.name!r}"
            )
        net = Network(raw["num_processors"])
        for _ in range(raw["num_switches"]):
            net.add_switch()
        for proc, switch in enumerate(raw["processors"]):
            net.attach_processor(proc, switch)
        for u, v in raw["links"]:
            net.add_link(u, v)
        routes = [
            make_route(
                net,
                Communication(source, dest),
                switch_path,
                link_choices=dict(enumerate(link_ids)),
            )
            for source, dest, switch_path, link_ids in raw["routes"]
        ]
        routing = FallbackRouting(TableRouting(routes), net)
        rawcert = raw["certificate"]
        certificate = ContentionCertificate(
            contention_free=rawcert["contention_free"],
            contention_set_size=rawcert["contention_set_size"],
            conflict_set_size=rawcert["conflict_set_size"],
            violations=tuple(
                ContentionViolation(
                    event=ContentionEvent.of(
                        Communication(s1, d1), Communication(s2, d2)
                    ),
                    links=tuple(links),
                )
                for (s1, d1, s2, d2), links in rawcert["violations"]
            ),
        )
        topology = Topology(
            name=f"generated-{pattern.name}",
            network=net,
            routing=routing,
            coords=None,
            kind="generated",
        )
        return GeneratedDesign(
            topology=topology,
            pattern=pattern,
            analysis=CliqueAnalysis.of(pattern),
            certificate=certificate,
            switch_map={s: n for s, n in raw["switch_map"]},
            pipe_links={
                frozenset(pair): tuple(ids) for pair, ids in raw["pipe_links"]
            },
            seed=raw["seed"],
            stats=DesignStats(**raw["stats"]),
            result=None,
        )
    except (KeyError, TypeError) as exc:
        raise _malformed("design", raw, exc) from exc


def canonical_json(payload) -> str:
    """Canonical JSON text: sorted keys, no whitespace.

    Two payloads are byte-identical iff their canonical JSON strings
    are equal — the determinism harness's definition of "same results".
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
