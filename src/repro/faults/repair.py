"""Fault-aware route repair for source-routed networks.

Given a topology and a fault scenario, :func:`repair_routes` recomputes
the source-routing table so that every requested communication avoids
permanently dead resources:

* pairs whose original route touches no dead resource keep their route
  unchanged (synthesized routes stay pinned — repair is minimal);
* affected pairs are rerouted by deterministic BFS over the surviving
  fabric (:class:`~repro.topology.routing.ShortestPathRouting` with
  avoid sets), pinned to live parallel links;
* pairs with no surviving path — common on the paper's minimal
  generated networks, which carry no spare links by design — are
  reported as *disconnected*, a first-class outcome rather than an
  error, so the resilience evaluation can score them.

Transient faults are ignored: routing around a failure that heals
would hide exactly the retransmission behavior the fault subsystem
exists to observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import RoutingError
from repro.faults.spec import FaultScenario
from repro.model.message import Communication
from repro.topology.builders import Topology
from repro.topology.routing import Route, ShortestPathRouting, TableRouting


@dataclass(frozen=True)
class RepairResult:
    """Outcome of one route-repair pass.

    Attributes:
        routing: repaired source-routing table covering every requested
            pair that is still connected.
        unchanged: pairs whose original route survived untouched.
        rerouted: pairs that now take a different path.
        disconnected: pairs with no surviving path (sorted).
        dead_link_ids: links the repair routed around.
        dead_switch_ids: switches the repair routed around.
    """

    routing: TableRouting
    unchanged: Tuple[Communication, ...]
    rerouted: Tuple[Communication, ...]
    disconnected: Tuple[Communication, ...]
    dead_link_ids: FrozenSet[int]
    dead_switch_ids: FrozenSet[int]

    @property
    def connected(self) -> bool:
        """Whether every requested pair still has a path."""
        return not self.disconnected


def all_pairs(num_processors: int) -> Tuple[Communication, ...]:
    """Every ordered processor pair — the exhaustive repair domain."""
    return tuple(
        Communication(s, d)
        for s in range(num_processors)
        for d in range(num_processors)
        if s != d
    )


def _route_touches(
    route: Route, dead_links: FrozenSet[int], dead_switches: FrozenSet[int]
) -> bool:
    if dead_switches and any(s in dead_switches for s in route.switch_path):
        return True
    if dead_links and any(lid in dead_links for lid in route.link_ids):
        return True
    return False


def repair_routes(
    topology: Topology,
    scenario: FaultScenario,
    pairs: Optional[Iterable[Communication]] = None,
) -> RepairResult:
    """Recompute routes for ``pairs`` avoiding the scenario's dead resources.

    ``pairs`` defaults to every ordered processor pair.  The original
    routing function of the topology is kept wherever it avoids the dead
    resources already; only affected pairs are rerouted.
    """
    network = topology.network
    scenario.validate(network)
    dead_links = scenario.permanent_link_ids
    dead_switches = scenario.permanent_switch_ids
    # Links incident to a dead switch are unusable too.
    incident = {
        link.link_id
        for link in network.links
        if link.u in dead_switches or link.v in dead_switches
    }
    avoid_links = dead_links | incident
    detour = ShortestPathRouting(
        network, avoid_links=avoid_links, avoid_switches=dead_switches
    )
    unchanged: List[Communication] = []
    rerouted: List[Communication] = []
    disconnected: List[Communication] = []
    routes: List[Route] = []
    for comm in sorted(set(pairs if pairs is not None else all_pairs(network.num_processors))):
        original: Optional[Route]
        try:
            original = topology.routing.route(comm)
        except RoutingError:
            original = None
        if original is not None and not _route_touches(original, avoid_links, dead_switches):
            routes.append(original)
            unchanged.append(comm)
            continue
        try:
            repaired = detour.route(comm)
        except RoutingError:
            disconnected.append(comm)
            continue
        routes.append(repaired)
        rerouted.append(comm)
    return RepairResult(
        routing=TableRouting(routes),
        unchanged=tuple(unchanged),
        rerouted=tuple(rerouted),
        disconnected=tuple(disconnected),
        dead_link_ids=dead_links,
        dead_switch_ids=dead_switches,
    )
