"""End-to-end tests of generate_network: concrete networks, routing
tables and the Theorem 1 certificate."""

import pytest

from repro.errors import SynthesisError
from repro.model import CliqueAnalysis, Communication, check_contention_free
from repro.synthesis import DesignConstraints, generate_network
from repro.topology import check_routes_valid

from tests.fixtures import figure1_pattern, pattern_from_phases


class TestGenerateNetworkOnFigure1:
    @pytest.fixture(scope="class")
    def design(self):
        return generate_network(figure1_pattern(), seed=0, restarts=3)

    def test_network_validates(self, design):
        design.network.validate()

    def test_degree_constraint_met(self, design):
        assert design.network.max_degree() <= 5

    def test_contention_free_certificate(self, design):
        """Theorem 1 holds by construction on the design pattern."""
        assert design.certificate.contention_free

    def test_routes_valid_on_network(self, design):
        check_routes_valid(
            design.network, design.topology.routing, design.pattern.communications
        )

    def test_fewer_resources_than_mesh(self, design):
        # 4x4 mesh: 16 switches, 24 links.
        assert design.num_switches < 16
        assert design.num_links < 24

    def test_fallback_routing_covers_alien_communications(self, design):
        alien = Communication(0, 15)
        assert alien not in design.pattern.communications or True
        route = design.topology.routing.route(alien)
        assert route.switch_path[0] == design.network.switch_of(0)
        assert route.switch_path[-1] == design.network.switch_of(15)

    def test_parallel_links_are_pinned_by_color(self, design):
        """Communications conflicting in time on the same pipe must use
        different parallel links."""
        analysis = CliqueAnalysis.of(design.pattern)
        routing = design.topology.routing
        for clique in analysis.max_cliques:
            used = {}
            for comm in clique:
                for hop in routing.route(comm).hops:
                    assert hop not in used, (
                        f"{comm} and {used[hop]} share directed link {hop} "
                        "despite conflicting in time"
                    )
                    used[hop] = comm


class TestGenerateNetworkSmall:
    def test_trivial_pattern_keeps_megaswitch(self):
        pattern = pattern_from_phases([[(0, 1), (2, 3)]], num_processes=4)
        design = generate_network(pattern, seed=0, restarts=1)
        assert design.num_switches == 1
        assert design.num_links == 0

    def test_disconnected_groups_get_joined(self):
        # Two groups that never talk: generated switch graph must still
        # be connected (Definition 1).
        pattern = pattern_from_phases(
            [
                [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
                [(1, 0), (2, 1), (0, 2), (4, 3), (5, 4), (3, 5)],
            ],
            num_processes=6,
        )
        design = generate_network(
            pattern, constraints=DesignConstraints(max_degree=4), seed=0
        )
        design.network.validate()
        assert design.network.is_connected()

    def test_restart_count_validation(self):
        with pytest.raises(SynthesisError):
            generate_network(figure1_pattern(), restarts=0)

    def test_infeasible_constraints_raise_with_context(self):
        pattern = pattern_from_phases(
            [[(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 2), (1, 3)]],
            num_processes=4,
        )
        with pytest.raises(SynthesisError):
            generate_network(
                pattern, constraints=DesignConstraints(max_degree=2), seed=0
            )

    def test_certificate_matches_independent_check(self):
        pattern = figure1_pattern()
        design = generate_network(pattern, seed=2, restarts=2)
        cert = check_contention_free(pattern, design.topology.routing)
        assert cert.contention_free == design.certificate.contention_free


class TestRestarts:
    def test_more_restarts_never_worse(self):
        pattern = figure1_pattern()
        one = generate_network(pattern, seed=0, restarts=1)
        many = generate_network(pattern, seed=0, restarts=5)
        assert many.num_links <= one.num_links
