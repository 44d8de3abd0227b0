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
ones once both pass through :func:`canonical_json`.  The other codecs
cover open-loop points, synthesized designs, and the design plus
floorplan a benchmark setup is cached as (:func:`setup_to_dict`).
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
    from repro.eval.parallel import SetupTask
    from repro.eval.runner import BenchmarkSetup
    from repro.floorplan.place import Floorplan
    from repro.model.pattern import CommunicationPattern
    from repro.synthesis.generator import GeneratedDesign
    from repro.topology.network import Network

_RESOURCE_KINDS = ("link", "inj", "ej")

# What indexing, unpacking or reading a malformed record raises: a
# missing field, a record cut short, a list where a map belongs.
_MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError)


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
        SerializationError: ``raw`` is not a dict, lacks a field, or
            holds a malformed record.
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
    except _MALFORMED as exc:
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
        SerializationError: ``raw`` is not a dict, lacks a field, or
            holds a malformed record.
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
    except _MALFORMED as exc:
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
    full fingerprint); the caller supplies it.  Round-tripping the
    result through :func:`design_to_dict` is byte-identical.

    Raises:
        SerializationError: ``raw`` is not a dict, lacks a field, holds
            a malformed record, or was synthesized for another pattern.
    """
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
            certificate=certificate,
            switch_map={s: n for s, n in raw["switch_map"]},
            pipe_links={
                frozenset(pair): tuple(ids) for pair, ids in raw["pipe_links"]
            },
            seed=raw["seed"],
            stats=DesignStats(**raw["stats"]),
        )
    except _MALFORMED as exc:
        raise _malformed("design", raw, exc) from exc


def floorplan_to_dict(plan: "Floorplan") -> dict:
    """JSON-safe, lossless dictionary form of a floorplan.

    Each map is a list of ``[key, x, y]`` (or ``[link, cost]``) records
    in its insertion order, so decoding rebuilds equal dicts in the same
    order.
    """
    return {
        "width": plan.grid.width,
        "height": plan.grid.height,
        "switch_corner": [[s, x, y] for s, (x, y) in plan.switch_corner.items()],
        "processor_cell": [[p, i, j] for p, (i, j) in plan.processor_cell.items()],
        "link_costs": [[link, cost] for link, cost in plan.link_costs.items()],
        "feasible": plan.feasible,
    }


def floorplan_from_dict(raw: dict) -> "Floorplan":
    """Invert :func:`floorplan_to_dict`.

    Raises:
        SerializationError: ``raw`` is not a dict, lacks a field, or
            holds a malformed record.
    """
    from repro.floorplan.place import Floorplan
    from repro.floorplan.tiles import TileGrid

    try:
        return Floorplan(
            grid=TileGrid(width=raw["width"], height=raw["height"]),
            switch_corner={s: (x, y) for s, x, y in raw["switch_corner"]},
            processor_cell={p: (i, j) for p, i, j in raw["processor_cell"]},
            link_costs={link: cost for link, cost in raw["link_costs"]},
            feasible=raw["feasible"],
        )
    except _MALFORMED as exc:
        raise _malformed("floorplan", raw, exc) from exc


def setup_to_dict(setup: "BenchmarkSetup") -> dict:
    """The cached part of a benchmark setup: its design and floorplan.

    The program, pattern and baselines are not stored: the setup task
    names the benchmark, and :func:`setup_from_dict` rebuilds them with
    the same deterministic builders the setup was made from.
    """
    return {
        "design": design_to_dict(setup.design),
        "floorplan": floorplan_to_dict(setup.floorplan),
    }


def _check_floorplan(network: "Network", plan: "Floorplan") -> None:
    """Raise :class:`SerializationError` naming the first floorplan field
    whose value contradicts the network it places.

    Four facts hold for every plan :func:`repro.floorplan.place.place`
    returns: the switch corners cover exactly the network's switches,
    each link's cost is the Manhattan distance of its switches'
    corners, each processor has a cell of its own, and the plan is
    feasible exactly when every processor's cell touches its switch's
    corner.  O(links + processors).
    """
    from repro.floorplan.tiles import manhattan

    corners = plan.switch_corner
    if set(corners) != set(network.switches):
        raise SerializationError(
            "floorplan switch_corner does not cover exactly the design's switches"
        )
    costs = plan.link_costs
    if len(costs) != len(network.links) or any(
        costs.get(link.link_id) != manhattan(corners[link.u], corners[link.v])
        for link in network.links
    ):
        raise SerializationError(
            "floorplan link_costs differ from the distances between the links' switch corners"
        )
    cells = plan.processor_cell
    if set(cells) != set(range(network.num_processors)) or len(set(cells.values())) != len(cells):
        raise SerializationError(
            "floorplan processor_cell does not give each of the design's processors "
            "a cell of its own"
        )
    touching = all(
        plan.grid.touches(cell, corners[network.switch_of(p)]) for p, cell in cells.items()
    )
    if plan.feasible != touching:
        raise SerializationError(
            f"floorplan feasible is {plan.feasible!r}, but its processor cells say {touching!r}"
        )


def setup_from_dict(task: "SetupTask", raw: dict) -> "BenchmarkSetup":
    """Invert :func:`setup_to_dict` for the setup ``task`` names.

    Raises:
        SerializationError: ``raw`` is not a dict, lacks a field, holds
            a malformed record, holds another benchmark's design, or
            holds a floorplan that contradicts its design (see
            :func:`_check_floorplan`).
        ReproError: a record names a switch, link, route or tile the
            rebuilt network or grid does not have (a ``TopologyError``,
            ``RoutingError`` or ``FloorplanError``).
    """
    from repro.eval.runner import BenchmarkSetup, baselines
    from repro.workloads.nas import benchmark

    bench = benchmark(task.benchmark, task.n)
    try:
        design, floorplan = raw["design"], raw["floorplan"]
    except _MALFORMED as exc:
        raise _malformed("setup", raw, exc) from exc
    design = design_from_dict(design, bench.pattern)
    floorplan = floorplan_from_dict(floorplan)
    _check_floorplan(design.network, floorplan)
    return BenchmarkSetup(
        benchmark=bench,
        design=design,
        floorplan=floorplan,
        baselines=baselines(task.n),
    )


def canonical_json(payload) -> str:
    """Canonical JSON text: sorted keys, no whitespace.

    Two payloads are byte-identical iff their canonical JSON strings
    are equal — the determinism harness's definition of "same results".
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))
