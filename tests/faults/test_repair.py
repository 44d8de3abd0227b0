"""Route repair: minimal rerouting, parallel-link pinning, disconnection."""

from repro.faults import (
    FaultScenario,
    LinkFault,
    SwitchFault,
    all_pairs,
    repair_routes,
)
from repro.model import Communication
from repro.topology import (
    Network,
    ShortestPathRouting,
    Topology,
    check_routes_valid,
    mesh,
)


def _line_topology(n_switches=3, parallel=False):
    """Switch chain S0-S1-...; processor i on switch i."""
    net = Network(n_switches)
    switches = [net.add_switch() for _ in range(n_switches)]
    for p, s in enumerate(switches):
        net.attach_processor(p, s)
    for u, v in zip(switches, switches[1:]):
        net.add_link(u, v)
        if parallel:
            net.add_link(u, v)
    return Topology(name="line", network=net, routing=ShortestPathRouting(net))


class TestMeshRepair:
    def test_single_link_fault_keeps_mesh_connected(self):
        top = mesh(2, 2)
        for link in top.network.links:
            result = repair_routes(top, FaultScenario.of(LinkFault(link.link_id)))
            assert result.connected
            assert result.rerouted  # some pair used every mesh link
            for comm in result.rerouted + result.unchanged:
                route = result.routing.route(comm)
                assert link.link_id not in route.link_ids

    def test_untouched_routes_are_preserved(self):
        top = mesh(2, 2)
        link = top.network.links[0]
        result = repair_routes(top, FaultScenario.of(LinkFault(link.link_id)))
        for comm in result.unchanged:
            assert result.routing.route(comm) == top.routing.route(comm)

    def test_repaired_routes_are_valid(self):
        top = mesh(2, 2)
        result = repair_routes(top, FaultScenario.of(LinkFault(0)))
        pairs = result.unchanged + result.rerouted
        check_routes_valid(top.network, result.routing, pairs)


class TestDisconnection:
    def test_cut_bridge_reports_disconnection(self):
        top = _line_topology(3)
        middle = top.network.links_between(0, 1)[0]
        result = repair_routes(top, FaultScenario.of(LinkFault(middle)))
        assert not result.connected
        assert Communication(0, 1) in result.disconnected
        assert Communication(1, 0) in result.disconnected
        # The far side of the chain still talks to itself.
        assert Communication(1, 2) in result.unchanged

    def test_pairs_argument_narrows_the_domain(self):
        top = _line_topology(3)
        middle = top.network.links_between(0, 1)[0]
        result = repair_routes(
            top,
            FaultScenario.of(LinkFault(middle)),
            pairs=[Communication(1, 2)],
        )
        assert result.connected
        assert result.unchanged == (Communication(1, 2),)


class TestParallelLinks:
    def test_repair_pins_the_surviving_parallel_link(self):
        top = _line_topology(2, parallel=True)
        dead, alive = top.network.links_between(0, 1)
        result = repair_routes(top, FaultScenario.of(LinkFault(dead)))
        assert result.connected
        for comm in (Communication(0, 1), Communication(1, 0)):
            assert result.routing.route(comm).link_ids == (alive,)


class TestSwitchFaultRepair:
    def test_dead_switch_strands_its_processor(self):
        top = mesh(2, 2)
        result = repair_routes(top, FaultScenario.of(SwitchFault(0)))
        (p,) = top.network.processors_of(0)
        stranded = {c for c in all_pairs(4) if p in (c.source, c.dest)}
        assert set(result.disconnected) == stranded
        # Survivors route around the dead switch and its links.
        for comm in result.unchanged + result.rerouted:
            route = result.routing.route(comm)
            assert 0 not in route.switch_path

    def test_transient_faults_skipped_by_default(self):
        top = mesh(2, 2)
        scenario = FaultScenario.of(LinkFault(0, start=10, end=20))
        result = repair_routes(top, scenario)
        assert not result.rerouted and not result.disconnected
        assert not result.dead_link_ids and not result.dead_switch_ids
        mixed = FaultScenario.of(LinkFault(0, start=10, end=20), LinkFault(1))
        assert repair_routes(top, mixed).dead_link_ids == frozenset({1})
