"""Builders for the reference topologies of the paper's evaluation.

The evaluation compares synthesized networks against a fully-connected
non-blocking crossbar (one mega-switch), a 2-D mesh with dimension-order
routing and a 2-D torus.  A ring and a fully-connected switch graph are
included as additional baselines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import TopologyError
from repro.topology.network import Network
from repro.topology.routing import DimensionOrderRouting, RoutingBase, ShortestPathRouting


@dataclass
class Topology:
    """A built reference topology plus its natural routing function.

    Attributes:
        name: label used in reports ("mesh-4x4", "crossbar-16", ...).
        network: the system graph.
        routing: the deterministic model-level routing function used to
            build the network resource conflict set.
        coords: switch id -> (x, y) grid position, when the topology is
            grid-shaped (used by floorplanning and the simulator's link
            delays); ``None`` otherwise.
        kind: one of "mesh", "torus", "crossbar", "ring", "fully",
            "generated".
    """

    name: str
    network: Network
    routing: RoutingBase
    coords: Optional[Dict[int, Tuple[int, int]]] = None
    kind: str = "custom"
    grid_shape: Optional[Tuple[int, int]] = None


def grid_dims(num_processors: int) -> Tuple[int, int]:
    """Near-square grid dimensions for ``num_processors`` tiles.

    Picks the factorization ``w x h`` with ``w >= h`` minimizing
    ``w - h`` (8 -> 4x2, 9 -> 3x3, 16 -> 4x4).  Prime counts degrade to
    ``n x 1``.
    """
    if num_processors <= 0:
        raise TopologyError(f"need a positive processor count, got {num_processors}")
    best = (num_processors, 1)
    for h in range(1, int(math.isqrt(num_processors)) + 1):
        if num_processors % h == 0:
            best = (num_processors // h, h)
    return best


def _grid_network(width: int, height: int, wraparound: bool) -> Tuple[Network, Dict[int, Tuple[int, int]]]:
    if width <= 0 or height <= 0:
        raise TopologyError(f"grid dimensions must be positive, got {width}x{height}")
    net = Network(width * height)
    coords: Dict[int, Tuple[int, int]] = {}
    by_coord: Dict[Tuple[int, int], int] = {}
    for y in range(height):
        for x in range(width):
            s = net.add_switch()
            net.attach_processor(y * width + x, s)
            coords[s] = (x, y)
            by_coord[(x, y)] = s
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                net.add_link(by_coord[(x, y)], by_coord[(x + 1, y)])
            if y + 1 < height:
                net.add_link(by_coord[(x, y)], by_coord[(x, y + 1)])
    if wraparound:
        # Wraparound links are only meaningful when they do not duplicate
        # an existing neighbour link (i.e. extent > 2).
        if width > 2:
            for y in range(height):
                net.add_link(by_coord[(width - 1, y)], by_coord[(0, y)])
        if height > 2:
            for x in range(width):
                net.add_link(by_coord[(x, height - 1)], by_coord[(x, 0)])
    return net, coords


def mesh(width: int, height: int) -> Topology:
    """A ``width x height`` mesh with one processor per switch and XY DOR."""
    net, coords = _grid_network(width, height, wraparound=False)
    routing = DimensionOrderRouting(net, coords, width, height, wraparound=False)
    return Topology(
        name=f"mesh-{width}x{height}",
        network=net,
        routing=routing,
        coords=coords,
        kind="mesh",
        grid_shape=(width, height),
    )


def torus(width: int, height: int) -> Topology:
    """A ``width x height`` torus with shortest-way dimension-order routing.

    The model-level routing is DOR with wraparound; the flit-level
    simulator replaces it with fully-adaptive routing as in the paper.
    """
    net, coords = _grid_network(width, height, wraparound=True)
    routing = DimensionOrderRouting(net, coords, width, height, wraparound=True)
    return Topology(
        name=f"torus-{width}x{height}",
        network=net,
        routing=routing,
        coords=coords,
        kind="torus",
        grid_shape=(width, height),
    )


def crossbar(num_processors: int) -> Topology:
    """A single non-blocking mega-switch connecting all processors.

    This is the paper's ideal reference network and the starting point
    of the recursive-bisection methodology.
    """
    net = Network(num_processors)
    s = net.add_switch()
    for p in range(num_processors):
        net.attach_processor(p, s)
    return Topology(
        name=f"crossbar-{num_processors}",
        network=net,
        routing=ShortestPathRouting(net),
        coords=None,
        kind="crossbar",
    )


def ring(num_processors: int) -> Topology:
    """A unidirectional-topology ring (full-duplex links) baseline."""
    if num_processors < 3:
        raise TopologyError("a ring needs at least 3 processors")
    net = Network(num_processors)
    switches = []
    for p in range(num_processors):
        s = net.add_switch()
        net.attach_processor(p, s)
        switches.append(s)
    for i, s in enumerate(switches):
        net.add_link(s, switches[(i + 1) % num_processors])
    return Topology(
        name=f"ring-{num_processors}",
        network=net,
        routing=ShortestPathRouting(net),
        coords=None,
        kind="ring",
    )


def fully_connected(num_processors: int) -> Topology:
    """One switch per processor with a link between every switch pair."""
    net = Network(num_processors)
    switches = []
    for p in range(num_processors):
        s = net.add_switch()
        net.attach_processor(p, s)
        switches.append(s)
    for i, u in enumerate(switches):
        for v in switches[i + 1 :]:
            net.add_link(u, v)
    return Topology(
        name=f"fully-{num_processors}",
        network=net,
        routing=ShortestPathRouting(net),
        coords=None,
        kind="fully",
    )


def mesh_for(num_processors: int) -> Topology:
    """The near-square mesh used as baseline for ``num_processors``."""
    w, h = grid_dims(num_processors)
    return mesh(w, h)


def torus_for(num_processors: int) -> Topology:
    """The near-square torus used as baseline for ``num_processors``."""
    w, h = grid_dims(num_processors)
    return torus(w, h)


def torus_link_delays(topology: Topology) -> Dict[int, int]:
    """Per-link delays of a torus: one cycle per link, two for the
    (folded) wraparounds, as in the paper's evaluation."""
    delays = {}
    for link in topology.network.links:
        (x1, y1) = topology.coords[link.u]
        (x2, y2) = topology.coords[link.v]
        wrap = abs(x1 - x2) > 1 or abs(y1 - y2) > 1
        delays[link.link_id] = 2 if wrap else 1
    return delays
