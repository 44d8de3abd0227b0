"""Tests for the annealing schedule and the global reroute optimizer."""

import pytest

from repro.model import CliqueAnalysis
from repro.synthesis import AnnealSchedule, DesignConstraints, SynthesisState
from repro.synthesis.reroute import global_processor_moves, reduce_degree_violations

from tests.fixtures import dense_stuck_state, pattern_from_phases


class TestAnnealSchedule:
    def test_validates_cooling(self):
        with pytest.raises(ValueError):
            AnnealSchedule(cooling=1.5)

    def test_validates_temperature(self):
        with pytest.raises(ValueError):
            AnnealSchedule(initial_temperature=-1)

    def test_validates_steps(self):
        with pytest.raises(ValueError):
            AnnealSchedule(steps=0)


class TestReduceDegreeViolations:
    def test_reduces_excess_on_dense_pattern(self):
        state = dense_stuck_state()
        constraints = DesignConstraints(max_degree=4)
        before, _ = state.objective(constraints.max_degree)
        assert before > 0
        reduce_degree_violations(state, constraints)
        assert state.objective(constraints.max_degree)[0] < before

    def test_never_increases_objective(self):
        state = dense_stuck_state()
        constraints = DesignConstraints(max_degree=4)
        before = state.objective(constraints.max_degree)
        reduce_degree_violations(state, constraints)
        assert state.objective(constraints.max_degree) <= before

    def test_routes_stay_anchored(self):
        state = dense_stuck_state()
        reduce_degree_violations(state, DesignConstraints(max_degree=4))
        for comm in state.comms:
            path = state.route_of(comm)
            assert path[0] == state.switch_of(comm.source)
            assert path[-1] == state.switch_of(comm.dest)
            assert len(set(path)) == len(path)

    def test_noop_when_satisfied(self):
        pattern = pattern_from_phases([[(0, 1), (2, 3)]], num_processes=4)
        state = SynthesisState.initial(CliqueAnalysis.of(pattern))
        assert reduce_degree_violations(state, DesignConstraints()) == 0


class TestGlobalProcessorMoves:
    def test_moves_relieve_overloaded_switch(self):
        state = dense_stuck_state()
        constraints = DesignConstraints(max_degree=4)
        before = state.objective(constraints.max_degree)
        moved = global_processor_moves(state, constraints)
        after = state.objective(constraints.max_degree)
        if moved:
            assert after < before
        else:
            assert after == before

    def test_processors_never_lost(self):
        state = dense_stuck_state()
        global_processor_moves(state, DesignConstraints(max_degree=4))
        owned = set()
        for procs in state.switch_procs.values():
            owned |= procs
        assert owned == set(range(6))
