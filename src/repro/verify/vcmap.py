"""Virtual-channel class assignment for dependency analysis.

The engine's physical channels each carry ``SimConfig.num_vcs`` virtual
channels.  For dependency analysis a *class* function refines every hop
of a route with the VC class its flits may occupy; the dependency graph
then lives over ``(channel, class)`` pairs.  Two disciplines cover the
repo's topologies:

* :class:`SingleClass` — all VCs equivalent (source-routed generated
  networks, meshes, crossbars).  Deadlock freedom must then
  come from the routes themselves.
* :class:`DatelineClasses` — the classic dateline discipline for
  wraparound (torus) dimension-order routing: a packet starts in class
  0 and moves to class 1 in a dimension once it has crossed that
  dimension's wraparound link, which breaks the ring cycle in every
  row and column.  Requires at least two VCs per physical channel.

:func:`classifier_for` picks the discipline the repo's model-level
routing needs for a topology kind.
"""

from __future__ import annotations

from typing import Dict, Protocol, Tuple

from repro.errors import TopologyError
from repro.topology.builders import Topology
from repro.topology.routing import Route


class VcClassifier(Protocol):
    """Assigns one VC class per inter-switch hop of a route."""

    name: str
    num_classes: int

    def classes(self, route: Route) -> Tuple[int, ...]:
        """Class of each hop, aligned with ``route.hops``."""


class SingleClass:
    """All virtual channels form one equivalence class."""

    name = "single"
    num_classes = 1

    def classes(self, route: Route) -> Tuple[int, ...]:
        return (0,) * len(route.hops)


class DatelineClasses:
    """Per-dimension dateline VC classes for wraparound grid routing.

    Wraparound links (endpoint coordinates differing by more than one
    in a dimension) are the datelines.  A route's hop is class 1 when
    the route has already crossed the dateline of that hop's dimension,
    class 0 otherwise (the crossing hop itself is the last class-0 hop
    of its dimension).  Dimension-order routes cross each dateline at
    most once, so two classes suffice.
    """

    name = "dateline"
    num_classes = 2

    def __init__(self, topology: Topology) -> None:
        if topology.coords is None:
            raise TopologyError(
                f"dateline classes need grid coordinates; {topology.name} has none"
            )
        self._dimension: Dict[int, int] = {}
        self._is_dateline: Dict[int, bool] = {}
        coords = topology.coords
        for link in topology.network.links:
            (x1, y1), (x2, y2) = coords[link.u], coords[link.v]
            self._dimension[link.link_id] = 0 if y1 == y2 else 1
            self._is_dateline[link.link_id] = abs(x1 - x2) > 1 or abs(y1 - y2) > 1

    def classes(self, route: Route) -> Tuple[int, ...]:
        crossed = [False, False]
        out = []
        for hop in route.hops:
            link_id = hop[1]
            dim = self._dimension[link_id]
            out.append(1 if crossed[dim] else 0)
            if self._is_dateline[link_id]:
                crossed[dim] = True
        return tuple(out)


def classifier_for(topology: Topology) -> VcClassifier:
    """The VC discipline the repo's model routing uses on ``topology``.

    Tori route dimension-order with wraparound, so their dependency
    analysis gets dateline classes; every other topology kind routes
    over a single class.
    """
    if topology.kind == "torus" and topology.coords is not None:
        return DatelineClasses(topology)
    return SingleClass()
