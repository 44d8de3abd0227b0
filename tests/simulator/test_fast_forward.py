"""Steady-state fast-forward: a skip applies exactly what stepping would.

The oracle is the same engine with ``Engine.fast_forward`` patched to
return 0, so every cycle is stepped; there is no second stepping loop.
Hypothesis drives random programs, topologies, link delays, VC counts
and buffer depths through the three drivers that call it (``simulate``,
``run_open_loop`` and ``Engine.drain`` via ``replay_pattern``) and
compares results and observability snapshots with the oracle's, while
``Engine.check_invariants`` runs after every skip.
"""

from contextlib import contextmanager
from dataclasses import asdict
from typing import Iterator, List
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.eval.serialize import result_to_dict
from repro.obs import enabled_observability
from repro.simulator import Engine, SimConfig, simulate
from repro.simulator.events import FLIT
from repro.simulator.openloop import run_open_loop
from repro.simulator.simulation import routing_policy_for
from repro.topology import crossbar, mesh, mesh_for, ring, torus_for
from repro.verify.dynamic import replay_pattern
from repro.workloads import PhaseProgramBuilder
from repro.workloads.analyzer import extract_pattern
from tests.simulator import diff_corpus


@contextmanager
def every_cycle() -> Iterator[None]:
    """The oracle: the engine with its fast-forward switched off."""
    with mock.patch.object(Engine, "fast_forward", lambda self, t, stop: 0):
        yield


@contextmanager
def checked_skips() -> Iterator[List[int]]:
    """Check the invariants after every skip; yields the skip lengths."""
    real = Engine.fast_forward
    skips: List[int] = []

    def checked(self, t, stop):
        k = real(self, t, stop)
        if k:
            self.check_invariants()
            skips.append(k)
        return k

    with mock.patch.object(Engine, "fast_forward", checked):
        yield skips


def _obs_snapshot(obs):
    return None if obs is None else obs.metrics.snapshot(include_wall=False)


def _both(run, sample_every):
    """``run(obs)`` with the skip (invariants checked after each) and
    with the oracle; returns both outputs, obs snapshots and skips."""

    def observed(mode):
        obs = enabled_observability(sample_every=sample_every) if sample_every else None
        with mode as skips:
            output = run(obs)
        return (output, _obs_snapshot(obs)), skips

    fast, skips = observed(checked_skips())
    slow, _ = observed(every_cycle())
    return fast, slow, skips


def _differential(run, sample_every):
    """Assert the skip and the oracle agree; label the example by
    whether the skip fired (``--hypothesis-show-statistics``)."""
    fast, slow, skips = _both(run, sample_every)
    event("skipped" if skips else "stepped every cycle")
    assert fast == slow


# -- random inputs ------------------------------------------------------------

TOPOLOGIES = {
    "mesh": mesh_for,
    "torus": torus_for,
    "crossbar": crossbar,
    "ring": ring,
}


@st.composite
def networks(draw):
    n = draw(st.sampled_from([4, 6, 8]))
    kind = draw(st.sampled_from(sorted(TOPOLOGIES)))
    topology = TOPOLOGIES[kind](n)
    delays = {
        link.link_id: draw(st.integers(min_value=1, max_value=4))
        for link in topology.network.links
    }
    config = SimConfig(
        num_vcs=draw(st.integers(min_value=1, max_value=3)),
        vc_buffer_flits=draw(st.integers(min_value=1, max_value=4)),
        deadlock_threshold=2000,
        max_cycles=2_000_000,
    )
    return topology, delays, config


@st.composite
def programs(draw, n):
    builder = PhaseProgramBuilder(n, "ff", jitter=0.2, seed=draw(st.integers(0, 99)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        builder.compute(draw(st.integers(min_value=0, max_value=300)))
        pairs = draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
                min_size=1,
                max_size=n,
                unique=True,
            )
        )
        # Half the draws are long worms, the case the skip is for.
        sizes = st.integers(1, 2048) | st.integers(1024, 2048)
        builder.phase([(s, (s + d) % n, draw(sizes)) for s, d in pairs])
    return builder.build()


samples = st.sampled_from([None, 1, 7, 64])
SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestDifferential:
    @settings(max_examples=60, **SETTINGS)
    @given(net=networks(), data=st.data(), sample_every=samples)
    def test_simulate_matches_per_cycle_stepping(self, net, data, sample_every):
        topology, delays, config = net
        program = data.draw(programs(topology.network.num_processors))

        def run(obs):
            result = simulate(program, topology, config, link_delays=delays, obs=obs)
            return result_to_dict(result)

        _differential(run, sample_every)

    @settings(max_examples=30, **SETTINGS)
    @given(
        net=networks(),
        packet_bytes=st.integers(32, 1024) | st.integers(512, 1024),
        rate=st.floats(min_value=0.02, max_value=0.6),
        seed=st.integers(0, 9),
        sample_every=samples,
    )
    def test_open_loop_matches_per_cycle_stepping(
        self, net, packet_bytes, rate, seed, sample_every
    ):
        topology, delays, config = net

        def run(obs):
            return run_open_loop(
                topology,
                rate,
                packet_bytes=packet_bytes,
                warmup_cycles=100,
                measure_cycles=400,
                drain_cycles=600,
                config=config,
                link_delays=delays,
                seed=seed,
                obs=obs,
            )

        _differential(run, sample_every)

    @settings(max_examples=30, **SETTINGS)
    @given(net=networks(), data=st.data())
    def test_pattern_replay_matches_per_cycle_stepping(self, net, data):
        topology, delays, config = net
        program = data.draw(programs(topology.network.num_processors))
        pattern = extract_pattern(program)

        def run(obs):
            return asdict(replay_pattern(topology, pattern, config, link_delays=delays))

        _differential(run, None)


def _streaming_program():
    """Two long worms that never meet: most cycles repeat the last."""
    builder = PhaseProgramBuilder(4, "worms")
    builder.phase([(0, 3, 2048), (1, 2, 1024)])
    return builder.build()


class TestSchedule:
    def test_skips_fire_and_match_the_oracle(self):
        program = _streaming_program()
        fast, slow, skips = _both(
            lambda obs: result_to_dict(simulate(program, mesh(2, 2), obs=obs)), 16
        )
        assert fast == slow
        assert sum(skips) > 450

    def test_observed_run_visits_the_same_schedule(self, monkeypatch):
        """Samples due inside a skipped span are recorded, not visited:
        observing the run changes neither the visited cycles nor the
        skips."""
        program = _streaming_program()
        visits: List[List[int]] = []
        real_step = Engine.step

        def spy(self, t):
            if not visits or visits[-1][0] is not self:
                visits.append([self])
            visits[-1].append(t)
            return real_step(self, t)

        monkeypatch.setattr(Engine, "step", spy)
        simulate(program, mesh(2, 2))
        obs = enabled_observability(sample_every=4)
        simulate(program, mesh(2, 2), obs=obs)
        (unobserved, *plain), (observed, *sampled) = visits
        assert plain == sampled
        assert observed.cycles_skipped == unobserved.cycles_skipped > 450
        xs = [x for x, _ in obs.metrics.snapshot()["series"]["sim.flits_in_network"]]
        assert set(xs) - set(sampled), "no sample fell inside a skipped span"

    @pytest.mark.parametrize(
        "name, skipped, simulated",
        [("cg8-generated", 16_967, 27_626), ("cg8-mesh4x2", 14_035, 30_030)],
    )
    def test_golden_case_skip_counts(self, name, skipped, simulated):
        case = next(c for c in diff_corpus.TRACE_CASES if c.name == name)
        with diff_corpus.recorded_engines() as engines:
            diff_corpus.run_trace_case(case, simulate)
        (engine,) = engines
        assert (engine.cycles_skipped, engine.cycles_simulated) == (skipped, simulated)

    def test_fault_state_turns_the_skip_off(self):
        case = next(
            c for c in diff_corpus.TRACE_CASES if c.name == "faults-cg8-mesh4x2-all-links"
        )
        with diff_corpus.recorded_engines() as engines:
            diff_corpus.run_trace_case(case, simulate)
        assert [engine.cycles_skipped for engine in engines] == [0]

    def test_consecutive_wakes_of_a_streaming_nic_are_not_retimed(self):
        """NIC 0 streams a worm while wakes for its queued one-flit
        packets are due on D + 1 consecutive cycles, D the largest link
        delay.  Each window then holds a wake at every offset, so the end
        states compare equal, and each wake is a no-op for a NIC that is
        streaming.  Re-timed past the worm, the wakes would find NIC 0
        parked on credit behind worm C and wake it early."""
        delay = 8

        def run(oracle):
            top = mesh(3, 1)
            links = {frozenset((l.u, l.v)): l.link_id for l in top.network.links}
            delays = {links[frozenset((0, 1))]: 1, links[frozenset((1, 2))]: delay}
            config = SimConfig(num_vcs=1, vc_buffer_flits=1)
            engine = Engine(top, routing_policy_for(top), config, link_delays=delays)
            engine.submit(source=1, dest=2, size_bytes=4096, inject_cycle=0, seq=0)
            engine.submit(source=0, dest=1, size_bytes=2048, inject_cycle=0, seq=0)
            for i in range(delay + 1):
                engine.submit(source=0, dest=2, size_bytes=0, inject_cycle=200 + i, seq=i)
            with every_cycle() if oracle else checked_skips():
                engine.drain(0, 100_000)
            return engine

        fast, slow = run(False), run(True)
        assert fast.cycles_skipped > 400

        def outcome(engine):
            return (
                engine.cycles_simulated,
                engine.nic_wakeups,
                engine.credit_stalls,
                engine.contention_stalls,
                engine.packet_latencies,
                engine.link_utilization(),
            )

        assert outcome(fast) == outcome(slow)

    def test_driver_stop_bounds_the_skip(self):
        """``drain`` never steps or skips past its stop cycle."""
        config = SimConfig()
        top = mesh(2, 1)
        engine = Engine(top, routing_policy_for(top), config)
        engine.submit(source=0, dest=1, size_bytes=2048, inject_cycle=0, seq=0)
        assert engine.drain(0, 300) == 300
        assert engine.cycles_simulated == 300
        assert engine.cycles_skipped > 200
        engine.check_invariants()


class TestCheckInvariants:
    """Each broken rule is reported by name."""

    def _mid_run(self):
        top = mesh(2, 2)
        engine = Engine(top, routing_policy_for(top), SimConfig())
        engine.submit(source=0, dest=3, size_bytes=256, inject_cycle=0, seq=0)
        engine.submit(source=3, dest=0, size_bytes=256, inject_cycle=0, seq=0)
        for t in range(20):
            engine.step(t)
        engine.check_invariants()
        return engine

    def test_credit_leak_is_named(self):
        engine = self._mid_run()
        engine.channels[("inj", 0)].credits[0] += 1
        with pytest.raises(SimulationError, match="invariant 'credits'"):
            engine.check_invariants()

    def test_flit_count_drift_is_named(self):
        engine = self._mid_run()
        engine.flits_in_network += 1
        with pytest.raises(SimulationError, match="invariant 'flits'"):
            engine.check_invariants()

    def test_orphan_owner_is_named(self):
        engine = self._mid_run()
        channel = engine.channels[("ej", 1)]
        channel.owner[0] = 12345
        with pytest.raises(SimulationError, match="invariant 'ownership'"):
            engine.check_invariants()

    def test_stale_registry_is_named(self):
        engine = self._mid_run()
        engine._vc_assignments[999] = {}
        with pytest.raises(SimulationError, match="invariant 'registry'"):
            engine.check_invariants()

    def test_lost_flit_event_is_named(self):
        engine = self._mid_run()
        for bucket in engine._events.calendar.values():
            flits = [event for event in bucket if event[0] == FLIT]
            if flits:
                bucket.remove(flits[0])
                break
        with pytest.raises(SimulationError, match="invariant '(credits|flits)'"):
            engine.check_invariants()
