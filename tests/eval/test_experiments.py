"""Tests for the evaluation harness (on the cheap 8/9-node configs)."""

import pytest

from repro.errors import WorkloadError
from repro.eval import (
    TOPOLOGY_ORDER,
    PerformanceCell,
    cross_workload_table,
    figure7_rows,
    figure7_table,
    figure8_rows,
    figure8_table,
    paper_sizes,
    prepare,
    result_from_dict,
    run_cells,
)
from repro.eval.experiments import CrossWorkloadRow, Figure8Row
from repro.simulator import SimConfig


@pytest.fixture(scope="module")
def cg8():
    return prepare("cg", 8, seed=0)


@pytest.fixture(scope="module")
def cg8_results(cg8):
    config = SimConfig(max_cycles=5_000_000)
    cells = [
        PerformanceCell(
            label=f"cg-8/{kind}",
            program=cg8.benchmark.program,
            topology=cg8.topology(kind),
            config=config,
            link_delays=cg8.link_delays(kind),
        )
        for kind in TOPOLOGY_ORDER
    ]
    outcomes = run_cells(cells)
    return {
        kind: result_from_dict(outcome.payload)
        for kind, outcome in zip(TOPOLOGY_ORDER, outcomes)
    }


class TestPaperSizes:
    def test_small_sizes(self):
        sizes = paper_sizes("small")
        assert sizes["bt"] == 9 and sizes["cg"] == 8

    def test_large_sizes(self):
        assert set(paper_sizes("large").values()) == {16}

    @pytest.mark.parametrize(
        "build", [paper_sizes, figure7_rows, figure8_rows], ids=lambda f: f.__name__
    )
    def test_unknown_size_raises(self, build):
        with pytest.raises(WorkloadError, match="size must be 'small' or 'large', got 'medium'"):
            build("medium")


class TestPrepare:
    def test_setup_is_cached(self, cg8):
        assert prepare("cg", 8, seed=0) is cg8

    def test_setup_has_all_baselines(self, cg8):
        assert set(cg8.baselines) == {"crossbar", "mesh", "torus"}

    def test_generated_design_satisfies_constraints(self, cg8):
        assert cg8.design.network.max_degree() <= 5

    def test_link_delays_for_each_kind(self, cg8):
        assert cg8.link_delays("mesh") is None
        torus_delays = cg8.link_delays("torus")
        assert torus_delays
        assert set(torus_delays.values()) <= {1, 2}
        gen_delays = cg8.link_delays("generated")
        assert all(d >= 1 for d in gen_delays.values())

    def test_torus_wrap_links_are_longer(self, cg8):
        # 4x2 torus: exactly the two x-wraparound links get delay 2.
        delays = cg8.link_delays("torus")
        assert sorted(delays.values()).count(2) == 2


class TestRunPerformance:
    def test_all_topologies_simulated(self, cg8, cg8_results):
        assert set(cg8_results) == {"crossbar", "mesh", "torus", "generated"}
        sent = cg8.benchmark.program.total_messages
        for r in cg8_results.values():
            assert r.delivered_packets == sent

    def test_crossbar_is_never_beaten_significantly(self, cg8_results):
        """The non-blocking crossbar is the ideal network: nothing
        should beat it by more than scheduling noise."""
        base = cg8_results["crossbar"].execution_cycles
        for kind, r in cg8_results.items():
            assert r.execution_cycles >= 0.98 * base, kind


class TestFigure7:
    def test_rows_cover_all_benchmarks(self):
        rows = figure7_rows("small", seed=0)
        assert {r.benchmark for r in rows} == {
            "bt-9", "cg-8", "fft-8", "mg-8", "sp-9"
        }

    def test_generated_cheaper_than_mesh(self):
        """The headline claim: generated networks use fewer resources."""
        for row in figure7_rows("small", seed=0):
            assert row.generated_switch_ratio < 1.0
            assert row.generated_link_ratio < 1.0

    def test_table_renders(self):
        text = figure7_table(figure7_rows("small", seed=0), "t")
        assert "cg-8" in text and "torus" in text


class TestTables:
    def test_figure8_table_renders(self):
        rows = [
            Figure8Row(
                benchmark="cg-8",
                num_processes=8,
                topology="mesh",
                execution_ratio=1.1,
                communication_ratio=1.3,
                execution_cycles=1000,
                avg_comm_cycles=10.0,
                deadlocks=0,
            )
        ]
        text = figure8_table(rows, "t")
        assert "1.100" in text and "mesh" in text

    def test_cross_workload_table_renders(self):
        rows = [
            CrossWorkloadRow(
                guest="fft-16", network="host", execution_cycles=123, degradation_vs_own=0.02
            )
        ]
        text = cross_workload_table(rows, "t")
        assert "+2.0%" in text
