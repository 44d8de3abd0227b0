"""Instrumentation must observe, never perturb.

These tests pin the determinism contract: simulated results are
byte-identical with observability on or off, metric values agree with
the result fields they mirror, and the canonical metric snapshot is
itself byte-stable across identical runs.
"""

from repro.eval.serialize import result_to_dict
from repro.model.cliques import CliqueAnalysis
from repro.obs import DISABLED, MANDATORY_COUNTERS, enabled_observability
from repro.simulator import Engine, SimConfig, simulate
from repro.simulator.openloop import run_open_loop, uniform_random
from repro.synthesis.annealing import AnnealSchedule, SimulatedAnnealing
from repro.synthesis.partition import Partitioner
from repro.topology import crossbar, mesh
from repro.workloads import PhaseProgramBuilder, benchmark


def _program(n=4):
    b = PhaseProgramBuilder(n, "obs")
    for k in (1, 2):
        b.compute(50)
        b.phase([(i, (i + k) % n, 128) for i in range(n)])
    return b.build()


def _cfg():
    return SimConfig(deadlock_threshold=500, max_cycles=2_000_000)


class TestSimulatorNeutrality:
    def test_result_identical_with_obs_on_and_off(self):
        base = simulate(_program(), mesh(2, 2), _cfg())
        obs = enabled_observability(sample_every=16)
        observed = simulate(_program(), mesh(2, 2), _cfg(), obs=obs)
        assert result_to_dict(base) == result_to_dict(observed)

    def test_observed_run_visits_the_same_schedule(self, monkeypatch):
        # Three senders converge on node 0, so requests and NICs stall
        # on credits; observing the run must not keep anything awake.
        b = PhaseProgramBuilder(4, "converge")
        b.phase([(1, 0, 512), (2, 0, 512), (3, 0, 512)])
        program = b.build()
        engines, visits = [], []
        real_step = Engine.step

        def spy(self, t):
            moved = real_step(self, t)
            if not engines or engines[-1] is not self:
                engines.append(self)
                visits.append([])
            visits[-1].append((t, len(self._active_routers), len(self._active_nics)))
            return moved

        monkeypatch.setattr(Engine, "step", spy)
        simulate(program, mesh(2, 2), _cfg())
        obs = enabled_observability(sample_every=4)
        simulate(program, mesh(2, 2), _cfg(), obs=obs)
        unobserved, observed = engines
        assert visits[0] == visits[1]
        assert observed.nic_wakeups == unobserved.nic_wakeups
        counters = obs.metrics.snapshot()["counters"]
        assert counters["sim.credit_stalls"] == unobserved.credit_stalls > 0
        assert counters["sim.nic_wakeups"] == unobserved.nic_wakeups

    def test_counters_match_result_fields(self):
        obs = enabled_observability()
        r = simulate(_program(), mesh(2, 2), _cfg(), obs=obs)
        snap = obs.metrics.snapshot()
        assert snap["counters"]["sim.packets_delivered"] == r.delivered_packets
        assert snap["counters"]["sim.flit_hops"] == r.flit_hops
        assert snap["counters"]["sim.flits_injected"] > 0
        assert snap["histograms"]["sim.packet_latency_cycles"]["count"] == (
            r.delivered_packets
        )
        assert snap["gauges"]["sim.execution_cycles"] == r.execution_cycles

    def test_occupancy_series_sampled_in_cycle_coordinates(self):
        obs = enabled_observability(sample_every=8)
        simulate(_program(), mesh(2, 2), _cfg(), obs=obs)
        series = obs.metrics.snapshot()["series"]
        xs = [x for x, _ in series["sim.flits_in_network"]]
        assert xs == sorted(xs)
        assert all(isinstance(x, int) for x in xs)
        assert any(name.startswith("sim.channel_occupancy.") for name in series)

    def test_canonical_metrics_byte_stable_across_runs(self):
        snaps = []
        for _ in range(2):
            obs = enabled_observability(sample_every=32)
            simulate(_program(), mesh(2, 2), _cfg(), obs=obs)
            snaps.append(obs.metrics.canonical_json())
        assert snaps[0] == snaps[1]

    def test_open_loop_identical_with_obs(self):
        kwargs = dict(measure_cycles=600, seed=7)
        base = run_open_loop(crossbar(4), 0.2, pattern=uniform_random, **kwargs)
        observed = run_open_loop(
            crossbar(4),
            0.2,
            pattern=uniform_random,
            obs=enabled_observability(),
            **kwargs,
        )
        assert base == observed


class TestSynthesisNeutrality:
    def _analysis(self):
        return CliqueAnalysis.of(benchmark("cg", 8).pattern)

    def test_partitioner_result_identical_with_obs(self):
        base = Partitioner(self._analysis(), seed=1).run()
        obs = enabled_observability()
        observed = Partitioner(self._analysis(), seed=1, obs=obs).run()
        assert observed.bisections == base.bisections
        assert observed.route_moves == base.route_moves
        assert observed.processor_moves == base.processor_moves
        assert observed.state.proc_switch == base.state.proc_switch
        snap = obs.metrics.snapshot()
        assert snap["counters"]["synthesis.bisections"] == base.bisections
        assert snap["counters"]["synthesis.route_moves"] == base.route_moves
        assert snap["counters"]["synthesis.color.pipes"] >= len(base.pipe_finals)

    def test_annealing_rng_unperturbed_by_obs(self):
        def energy(x):
            return float(x * x)

        def neighbor(x, rng):
            return x + rng.choice((-1, 1))

        sched = AnnealSchedule(steps=400, moves_per_temperature=20)
        base = SimulatedAnnealing(energy, neighbor, sched, seed=3).run(40)
        obs = enabled_observability()
        observed = SimulatedAnnealing(
            energy, neighbor, sched, seed=3, obs=obs, label="t.anneal"
        ).run(40)
        assert observed == base
        snap = obs.metrics.snapshot()
        accepted = snap["counters"]["t.anneal.accepted"]
        rejected = snap["counters"]["t.anneal.rejected"]
        assert accepted + rejected == sched.steps
        assert len(snap["series"]["t.anneal.temperature"]) == 400 // 20


class TestBundles:
    def test_disabled_bundle_is_off(self):
        assert not DISABLED.enabled
        assert DISABLED.metrics.enabled is False
        assert DISABLED.tracer.enabled is False

    def test_enabled_bundle_is_identity_hashed(self):
        a = enabled_observability()
        b = enabled_observability()
        assert a.enabled
        assert hash(a) != hash(b) or a is b
        assert a != b

    def test_profile_covers_mandatory_counters(self):
        from repro.obs.profile import run_profile

        report = run_profile("cg", 8, kinds=("crossbar",), cache=None)
        counters = report.obs.metrics.snapshot()["counters"]
        for name in MANDATORY_COUNTERS:
            assert name in counters, f"missing mandatory counter {name}"
        rendered = report.render()
        for name in MANDATORY_COUNTERS:
            assert name in rendered
        assert "profile: cg-8" in rendered

    def test_spans_nest_through_the_full_pipeline(self):
        from repro.obs.profile import run_profile

        report = run_profile("cg", 8, kinds=("crossbar",), cache=None)
        names = {s["name"] for s in report.obs.tracer.spans()}
        assert {
            "profile.setup",
            "setup.synthesize",
            "synthesis.restart",
            "setup.floorplan",
            "profile.simulate",
            "simulate.run",
            "eval.cell",
        } <= names
