"""Tests for the annealed-move partitioner variant."""

import random

from repro.model import CliqueAnalysis, check_contention_free
from repro.synthesis import (
    AnnealSchedule,
    DesignConstraints,
    Partitioner,
    SynthesisState,
    annealed_moves,
    best_route,
    generate_network,
)
from repro.workloads import benchmark

from tests.fixtures import figure1_pattern, pattern_from_phases

# ``annealed_moves``' own defaults, spelled out as a schedule.
SCHEDULE = AnnealSchedule(
    initial_temperature=3.0, cooling=0.94, steps=80, moves_per_temperature=1
)


class TestAnnealedMoves:
    def _split_state(self, seed=0):
        state = SynthesisState.initial(CliqueAnalysis.of(figure1_pattern()))
        rng = random.Random(seed)
        sj = state.split_switch(0, rng)
        best_route(state, 0, sj)
        return state, sj, rng

    def test_returns_best_visited_state(self):
        state, sj, rng = self._split_state()
        before = state.total_links()
        annealed_moves(state, 0, sj, rng)
        # The best-visited restore guarantees no regression.
        assert state.total_links() <= before

    def test_routes_stay_anchored(self):
        state, sj, rng = self._split_state(seed=3)
        annealed_moves(state, 0, sj, rng)
        for comm in state.comms:
            path = state.route_of(comm)
            assert path[0] == state.switch_of(comm.source)
            assert path[-1] == state.switch_of(comm.dest)

    def test_balance_respected(self):
        state, sj, rng = self._split_state(seed=5)
        annealed_moves(state, 0, sj, rng)
        ni = len(state.switch_procs[0])
        nj = len(state.switch_procs[sj])
        assert abs(ni - nj) <= 2
        assert min(ni, nj) >= 1

    def test_deterministic_given_rng(self):
        a_state, sj, _ = self._split_state(seed=7)
        annealed_moves(a_state, 0, sj, random.Random(42))
        b_state, sj2, _ = self._split_state(seed=7)
        annealed_moves(b_state, 0, sj2, random.Random(42))
        assert a_state.switch_procs == b_state.switch_procs


class TestAnnealedPartitioner:
    def test_produces_valid_design(self):
        analysis = CliqueAnalysis.of(figure1_pattern())
        result = Partitioner(analysis, seed=1, anneal_schedule=SCHEDULE).run()
        for s in result.state.switches:
            assert result.final_degree(s) <= 5

    def test_annealed_design_is_contention_free_end_to_end(self):
        pattern = pattern_from_phases(
            [[(0, 1), (2, 3), (4, 5)], [(1, 2), (3, 4), (5, 0)]],
            num_processes=6,
        )
        design = generate_network(
            pattern,
            constraints=DesignConstraints(max_degree=4),
            seed=0,
            restarts=1,
            anneal_schedule=SCHEDULE,
        )
        assert design.certificate.contention_free
        assert check_contention_free(pattern, design.topology.routing).contention_free

    def test_cg16_seed0_design_is_pinned(self):
        # Pins the retired benchmark gate's cg16-anneal-seed0 case.
        analysis = CliqueAnalysis.of(benchmark("cg", 16).pattern)
        result = Partitioner(
            analysis, constraints=DesignConstraints(), seed=0, anneal_schedule=SCHEDULE
        ).run()
        assert result.total_links() == 13
        assert result.bisections == 8
        assert result.route_moves == 3
        assert result.processor_moves == 131
        assert len(result.state.switch_procs) == 9
