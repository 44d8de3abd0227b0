"""Tests for open-loop synthetic traffic evaluation."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import SimulationError
from repro.simulator.openloop import (
    LoadPoint,
    latency_throughput_curve,
    run_open_loop,
    saturation_throughput,
)
from repro.sweeps.patterns import (
    hotspot_pattern,
    neighbor_pattern,
    transpose_pattern,
    uniform_random,
)
from repro.topology import crossbar, mesh


class TestPatterns:
    def test_uniform_never_self(self):
        rng = random.Random(0)
        for _ in range(200):
            src = rng.randrange(8)
            assert uniform_random(src, 8, rng) != src

    def test_uniform_covers_all_destinations(self):
        rng = random.Random(1)
        seen = {uniform_random(0, 8, rng) for _ in range(500)}
        assert seen == set(range(1, 8))

    def test_transpose_on_square(self):
        rng = random.Random(0)
        assert transpose_pattern(1, 16, rng) == 4
        assert transpose_pattern(7, 16, rng) == 13

    def test_transpose_diagonal_resamples(self):
        rng = random.Random(0)
        assert transpose_pattern(5, 16, rng) != 5

    def test_neighbor(self):
        rng = random.Random(0)
        assert neighbor_pattern(7, 8, rng) == 0

    def test_hotspot_bias(self):
        rng = random.Random(0)
        pattern = hotspot_pattern(hotspot=3, bias=1.0)
        assert all(pattern(s, 8, rng) == 3 for s in range(8) if s != 3)


class TestRunOpenLoop:
    def test_low_load_has_low_latency(self):
        point = run_open_loop(
            crossbar(8), 0.05, warmup_cycles=200, measure_cycles=800
        )
        assert point.delivered > 0
        assert not point.saturated
        assert point.avg_latency < 100

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(SimulationError):
            run_open_loop(crossbar(4), 0.0)

    def test_latency_grows_with_load(self):
        low = run_open_loop(mesh(4, 4), 0.1, measure_cycles=1000)
        high = run_open_loop(mesh(4, 4), 0.8, measure_cycles=1000)
        assert high.avg_latency > low.avg_latency

    def test_accepted_tracks_offered_below_saturation(self):
        point = run_open_loop(mesh(4, 4), 0.2, measure_cycles=1500)
        assert point.accepted_flits_per_node_cycle == pytest.approx(
            0.2, rel=0.35
        )

    def test_deterministic_by_seed(self):
        a = run_open_loop(mesh(2, 2), 0.2, seed=5, measure_cycles=600)
        b = run_open_loop(mesh(2, 2), 0.2, seed=5, measure_cycles=600)
        assert a == b


def _half_self_pattern():
    """Returns the source on every other draw, uniform otherwise."""
    calls = itertools.count()

    def pattern(src: int, n: int, rng: random.Random) -> int:
        if next(calls) % 2 == 0:
            return src
        return uniform_random(src, n, rng)

    return pattern


class TestSelfDrawRegression:
    def test_self_draws_do_not_lose_offered_load(self):
        """Regression: a pattern that sometimes returns the source must
        be resampled, not have its packet's worth of flit debt dropped.
        Pre-fix, the half-self pattern delivered ~half the uniform
        pattern's packets at the same offered load."""
        kwargs = dict(measure_cycles=1500, warmup_cycles=300, seed=3)
        base = run_open_loop(crossbar(8), 0.2, pattern=uniform_random, **kwargs)
        point = run_open_loop(
            crossbar(8), 0.2, pattern=_half_self_pattern(), **kwargs
        )
        assert point.delivered >= 0.9 * base.delivered
        assert point.accepted_flits_per_node_cycle == pytest.approx(
            base.accepted_flits_per_node_cycle, rel=0.1
        )

    def test_all_self_pattern_raises(self):
        """A pattern that only ever returns the source could never
        inject from that node: the bounded resample gives up and the
        run names the node instead of reporting load it never offered."""
        with pytest.raises(SimulationError, match="source node 0"):
            run_open_loop(
                crossbar(4),
                0.5,
                pattern=lambda src, n, rng: src,
                warmup_cycles=100,
                measure_cycles=400,
            )

    def test_self_draw_resampling_stays_deterministic(self):
        kwargs = dict(measure_cycles=600, seed=5)
        a = run_open_loop(mesh(2, 2), 0.2, pattern=_half_self_pattern(), **kwargs)
        b = run_open_loop(mesh(2, 2), 0.2, pattern=_half_self_pattern(), **kwargs)
        assert a == b


class TestFaultKillObserverOrdering:
    def test_exactly_once_delivery_in_nondecreasing_cycle_order(self, monkeypatch):
        """A transient link fault mid-window kills an in-flight packet;
        its retransmission must reach the delivery observer exactly once
        per (src, dst, seq), and observed cycles never run backwards."""
        from repro.faults import FaultScenario, FaultState, LinkFault
        from repro.simulator.config import SimConfig
        from repro.simulator.engine import Engine

        records = []
        real_set = Engine.set_delivery_handler

        def spying_set(self, handler):
            def spy(src, dst, seq, cycle):
                records.append((src, dst, seq, cycle))
                handler(src, dst, seq, cycle)

            real_set(self, spy)

        monkeypatch.setattr(Engine, "set_delivery_handler", spying_set)
        top = mesh(2, 1)
        point = run_open_loop(
            top,
            0.3,
            pattern=neighbor_pattern,
            warmup_cycles=100,
            measure_cycles=500,
            drain_cycles=3000,
            config=SimConfig(deadlock_threshold=80, max_cycles=2_000_000),
            fault_state=FaultState(
                top.network, FaultScenario.of(LinkFault(0, start=250, end=420))
            ),
        )
        assert records, "no deliveries observed"
        keys = [(src, dst, seq) for src, dst, seq, _ in records]
        assert len(keys) == len(set(keys)), "a packet was delivered twice"
        cycles = [cycle for *_, cycle in records]
        assert cycles == sorted(cycles)
        assert point.delivered > 0
        assert not point.saturated


class TestCurve:
    def test_curve_is_ordered_and_stops_on_saturation(self):
        points = latency_throughput_curve(
            mesh(2, 2), [0.05, 0.2], measure_cycles=600
        )
        assert [p.offered_flits_per_node_cycle for p in points] == [0.05, 0.2]

    def test_saturation_throughput(self):
        points = [
            LoadPoint(0.1, 0.1, 10, 100, False),
            LoadPoint(0.5, 0.42, 300, 400, True),
        ]
        assert saturation_throughput(points) == 0.42
        assert saturation_throughput([]) == 0.0

    def test_crossbar_latency_flat_under_load(self):
        """The non-blocking crossbar's latency barely moves with load
        (only endpoint serialization)."""
        points = latency_throughput_curve(
            crossbar(8), [0.05, 0.4], measure_cycles=800
        )
        assert points[-1].avg_latency < 3 * points[0].avg_latency

    def test_single_rate_curve(self):
        points = latency_throughput_curve(mesh(2, 2), [0.1], measure_cycles=600)
        assert len(points) == 1
        assert points[0].offered_flits_per_node_cycle == 0.1

    def test_empty_rate_list(self):
        assert latency_throughput_curve(mesh(2, 2), []) == []

    def test_monotone_curve_peak_is_last_point(self):
        """A curve that never saturates reports its highest accepted
        rate, which on a monotone curve is the last point's."""
        points = [
            LoadPoint(0.1, 0.09, 10, 100, False),
            LoadPoint(0.3, 0.28, 12, 300, False),
            LoadPoint(0.5, 0.47, 15, 500, False),
        ]
        assert saturation_throughput(points) == 0.47

    def test_non_monotone_noise_peak_is_max_not_last(self):
        """Post-saturation accepted throughput can droop; the peak must
        be the maximum over the curve, not the final point."""
        points = [
            LoadPoint(0.2, 0.19, 10, 100, False),
            LoadPoint(0.6, 0.55, 40, 300, False),
            LoadPoint(1.0, 0.48, 600, 280, True),
        ]
        assert saturation_throughput(points) == 0.55

    def test_curve_stops_early_once_saturated(self):
        """The saturating middle rate must be the last point measured."""
        points = latency_throughput_curve(
            mesh(2, 1),
            [0.05, 2.0, 0.1],
            warmup_cycles=100,
            measure_cycles=400,
            drain_cycles=200,
        )
        assert points[-1].saturated
        assert len(points) == 2


class TestImports:
    def test_openloop_loads_no_sweeps_module(self):
        """The simulator owns the pattern type and the default pattern;
        the suite in ``repro.sweeps`` builds on them, never the reverse,
        so importing the simulator cannot cycle back into the sweeps."""
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import sys, repro.simulator.openloop; "
            "print([m for m in sys.modules if m.startswith('repro.sweeps')])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
