"""Tests for the SA engine and the global reroute optimizer."""

import random

import pytest

from repro.model import CliqueAnalysis
from repro.synthesis import AnnealSchedule, DesignConstraints, SimulatedAnnealing, SynthesisState
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


class TestSimulatedAnnealing:
    def test_minimizes_quadratic(self):
        """SA on f(x) = (x - 7)^2 over integers finds the minimum."""
        sa = SimulatedAnnealing(
            energy=lambda x: (x - 7) ** 2,
            neighbor=lambda x, rng: x + rng.choice([-1, 1]),
            schedule=AnnealSchedule(initial_temperature=20, steps=3000),
            seed=3,
        )
        best, energy = sa.run(100)
        assert best == 7
        assert energy == 0

    def test_returns_best_ever_not_final(self):
        """Even if the walk wanders off, the incumbent is returned."""
        seen = []

        def energy(x):
            seen.append(x)
            return abs(x)

        sa = SimulatedAnnealing(
            energy=energy,
            neighbor=lambda x, rng: x + rng.choice([-3, 3]),
            schedule=AnnealSchedule(initial_temperature=100, cooling=0.99, steps=500),
            seed=0,
        )
        best, e = sa.run(9)
        assert e == min(abs(x) for x in seen + [9])

    def test_deterministic_by_seed(self):
        def make():
            return SimulatedAnnealing(
                energy=lambda x: (x - 3) ** 2,
                neighbor=lambda x, rng: x + rng.choice([-1, 1]),
                seed=11,
            )

        assert make().run(50) == make().run(50)

    @staticmethod
    def _series_steps(steps, moves_per_temperature):
        from repro.obs import enabled_observability

        obs = enabled_observability()
        SimulatedAnnealing(
            energy=lambda x: float(x * x),
            neighbor=lambda x, rng: x + rng.choice((-1, 1)),
            schedule=AnnealSchedule(
                steps=steps, moves_per_temperature=moves_per_temperature
            ),
            seed=0,
            obs=obs,
            label="t.series",
        ).run(5)
        snap = obs.metrics.snapshot()["series"]
        return (
            [x for x, _ in snap["t.series.temperature"]],
            [x for x, _ in snap["t.series.energy"]],
        )

    def test_series_flushes_trailing_partial_temperature_level(self):
        """Regression: with steps not divisible by moves_per_temperature,
        the final partial level's proposals were silently dropped from
        the recorded temperature/energy series."""
        temp_steps, energy_steps = self._series_steps(25, 10)
        assert temp_steps == [10, 20, 25]
        assert energy_steps == [10, 20, 25]

    def test_series_unchanged_when_steps_divide_evenly(self):
        temp_steps, energy_steps = self._series_steps(30, 10)
        assert temp_steps == [10, 20, 30]
        assert energy_steps == [10, 20, 30]


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
