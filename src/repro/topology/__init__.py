"""System graphs, reference topologies and routing functions."""

from repro.topology.builders import (
    Topology,
    crossbar,
    fully_connected,
    grid_dims,
    mesh,
    mesh_for,
    ring,
    torus,
    torus_for,
)
from repro.topology.network import (
    Link,
    Network,
    ejection_resource,
    injection_resource,
)
from repro.topology.routing import (
    DimensionOrderRouting,
    Route,
    RoutingBase,
    ShortestPathRouting,
    TableRouting,
    make_route,
)
from repro.topology.validate import (
    DegreeReport,
    check_routes_valid,
    degree_report,
    require_connected,
)

__all__ = [
    "DegreeReport",
    "DimensionOrderRouting",
    "Link",
    "Network",
    "Route",
    "RoutingBase",
    "ShortestPathRouting",
    "TableRouting",
    "Topology",
    "check_routes_valid",
    "crossbar",
    "degree_report",
    "ejection_resource",
    "fully_connected",
    "grid_dims",
    "injection_resource",
    "make_route",
    "mesh",
    "mesh_for",
    "require_connected",
    "ring",
    "torus",
    "torus_for",
]
