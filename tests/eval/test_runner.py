"""Section 4.2's cross-workload replay as evaluation cells: a guest
trace on its own network, on the host's generated network and on the
mesh."""

import pytest

from repro.eval import PerformanceCell, prepare, result_from_dict, run_cells
from repro.simulator import SimConfig


@pytest.fixture(scope="module")
def guest():
    return prepare("fft", 8, seed=0)


@pytest.fixture(scope="module")
def results(guest):
    host = prepare("cg", 8, seed=0)
    networks = {
        "own": (guest.design.topology, guest.floorplan.link_delays()),
        "host": (host.design.topology, host.floorplan.link_delays()),
        "mesh": (guest.baselines["mesh"], None),
    }
    cells = [
        PerformanceCell(
            label=f"{guest.name}/{network}",
            program=guest.benchmark.program,
            topology=topology,
            config=SimConfig(max_cycles=20_000_000),
            link_delays=delays,
        )
        for network, (topology, delays) in networks.items()
    ]
    outcomes = run_cells(cells)
    return {
        network: result_from_dict(outcome.payload)
        for network, outcome in zip(networks, outcomes)
    }


class TestCrossWorkload:
    def test_returns_three_results(self, results):
        assert set(results) == {"own", "host", "mesh"}

    def test_guest_program_runs_everywhere(self, guest, results):
        expected = guest.benchmark.program.total_messages
        for name, r in results.items():
            assert r.delivered_packets == expected, name

    def test_own_network_is_at_least_as_good_as_foreign(self, results):
        # A network designed for the guest never loses badly to a
        # foreign one; allow small scheduling noise.
        assert results["own"].execution_cycles <= 1.05 * results["host"].execution_cycles
