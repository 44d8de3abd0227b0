"""Simulator micro-benchmarks: engine throughput and policy overheads.

Not a paper figure; quantifies the substrate so regressions in the
flit-level engine are visible independently of the evaluation results.
"""

import pytest

from repro.simulator import SimConfig, simulate
from repro.topology import crossbar, mesh, torus
from repro.workloads import PhaseProgramBuilder


def _saturating_program(n, phases=6, size=512):
    b = PhaseProgramBuilder(n, "saturate")
    for k in range(phases):
        b.compute(50)
        b.phase([(i, (i + k + 1) % n, size) for i in range(n)])
    return b.build()


@pytest.fixture(scope="module")
def program16():
    return _saturating_program(16)


def test_engine_throughput_mesh(benchmark, program16):
    result = benchmark.pedantic(
        simulate,
        args=(program16, mesh(4, 4)),
        kwargs={"config": SimConfig(max_cycles=5_000_000)},
        rounds=1,
        iterations=1,
    )
    assert result.delivered_packets == program16.total_messages


def test_engine_throughput_torus_adaptive(benchmark, program16):
    result = benchmark.pedantic(
        simulate,
        args=(program16, torus(4, 4)),
        kwargs={"config": SimConfig(max_cycles=5_000_000)},
        rounds=1,
        iterations=1,
    )
    assert result.delivered_packets == program16.total_messages


def test_engine_throughput_crossbar(benchmark, program16):
    result = benchmark.pedantic(
        simulate,
        args=(program16, crossbar(16)),
        kwargs={"config": SimConfig(max_cycles=5_000_000)},
        rounds=1,
        iterations=1,
    )
    assert result.delivered_packets == program16.total_messages


def test_flit_hop_rate(show, program16):
    """Report flit-hops per wall second — the engine's work rate."""
    import time

    t0 = time.perf_counter()
    result = simulate(program16, mesh(4, 4), SimConfig(max_cycles=5_000_000))
    elapsed = time.perf_counter() - t0
    rate = result.flit_hops / max(elapsed, 1e-9)
    show(f"engine rate: {rate:,.0f} flit-hops/s over {result.flit_hops} hops")
    assert result.flit_hops > 0


def _deep_queue_program(n=2, messages=200, size=64):
    """One process fires every send back to back (no blocking receives
    between them), so its NIC queue goes hundreds of packets deep while
    the single mesh link drains slowly — the workload that made the old
    O(total-queued) next-inject-time scan quadratic."""
    from repro.workloads.events import Program, RecvEvent, SendEvent

    sends = tuple(SendEvent(dest=1, size_bytes=size) for _ in range(messages))
    recvs = tuple(RecvEvent(source=0) for _ in range(messages))
    return Program(name="deep-queue", num_processes=n, events=(sends, recvs))


def test_idle_advance_deep_queues(show):
    """Exercise idle-cycle advancement against deep NIC queues.

    Queued inject times ride the engine's event queue as NIC wake-ups,
    so idle-advance is one ``Engine.next_event_time()`` peek instead of
    a scan over every queued packet each stalled cycle, and this stays
    flat as queues deepen.
    """
    import time

    program = _deep_queue_program()
    t0 = time.perf_counter()
    result = simulate(program, mesh(2, 1), SimConfig(max_cycles=5_000_000))
    elapsed = time.perf_counter() - t0
    show(
        f"deep-queue drain: {result.execution_cycles} cycles in "
        f"{elapsed:.3f}s ({result.execution_cycles / max(elapsed, 1e-9):,.0f} "
        "cycles/s)"
    )
    assert result.delivered_packets == 200


def _idle_heavy_program(n=256, messages=2000, size=64):
    """A neighbour-to-neighbour stream across a large machine: all but
    two of the ``n`` NICs (and all but two routers) are idle on every
    simulated cycle, yet a flit is in flight on almost every cycle so
    the idle-advance jump never engages.  The old engine swept every
    NIC per cycle regardless; the event-driven wake lists step only the
    active ones."""
    from repro.workloads.events import Program, RecvEvent, SendEvent

    events = [()] * n
    events[0] = tuple(SendEvent(dest=1, size_bytes=size) for _ in range(messages))
    events[1] = tuple(RecvEvent(source=0) for _ in range(messages))
    return Program(name="idle-heavy", num_processes=n, events=tuple(events))


def test_idle_heavy_event_driven_nics(show):
    """Idle-heavy traces must not pay for sleeping NICs.

    Structural pin of the event-driven stepping: over the whole run the
    engine may activate a NIC only a vanishing number of times compared
    with the ``cycles x NICs`` sweeps the always-sweep engine paid.
    """
    import time

    from repro.simulator.engine import Engine
    from repro.simulator.simulation import routing_policy_for

    program = _idle_heavy_program()
    top = mesh(16, 16)
    t0 = time.perf_counter()
    result = simulate(program, top, SimConfig(max_cycles=5_000_000))
    elapsed = time.perf_counter() - t0

    # Re-run at the engine level to read the wakeup counter.
    engine = Engine(top, routing_policy_for(top), SimConfig(max_cycles=5_000_000))
    from repro.simulator.process import ProcessReplay

    replay = ProcessReplay(program, engine, SimConfig(max_cycles=5_000_000))
    t = 0
    replay.run_ready()
    while (not replay.all_done() or engine.busy()) and t < 5_000_000:
        if engine.step(t):
            replay.run_ready()
        t += 1
    assert replay.all_done() and not engine.busy()
    sweeps = engine.cycles_simulated * len(engine.nics)
    show(
        f"idle-heavy (256 NICs, 2 busy): {result.execution_cycles} cycles in "
        f"{elapsed:.3f}s; {engine.nic_wakeups} NIC wakeups vs "
        f"{sweeps} always-sweep NIC steps "
        f"({engine.nic_wakeups / sweeps:.2%})"
    )
    assert result.delivered_packets == 2000
    # Far fewer activations than one-per-NIC-per-cycle: the sleeping
    # 254 NICs genuinely cost nothing.
    assert engine.nic_wakeups < sweeps / 50


def test_idle_heavy_wall_time(benchmark):
    program = _idle_heavy_program()
    result = benchmark.pedantic(
        simulate,
        args=(program, mesh(16, 16)),
        kwargs={"config": SimConfig(max_cycles=5_000_000)},
        rounds=3,
        iterations=1,
    )
    assert result.delivered_packets == 2000


def test_obs_disabled_and_enabled_overhead(show, program16):
    """Compare engine time with observability absent vs fully enabled.

    The disabled path must stay within the <2% budget of the plain
    engine (hot paths gate on one cached boolean); the enabled path
    reports what full collection costs.  Results must be identical in
    every mode.
    """
    import time

    from repro.obs import enabled_observability

    cfg = SimConfig(max_cycles=5_000_000)

    def best_of(n, **kwargs):
        best, result = float("inf"), None
        for _ in range(n):
            t0 = time.perf_counter()
            result = simulate(program16, mesh(4, 4), cfg, **kwargs)
            best = min(best, time.perf_counter() - t0)
        return best, result

    base_s, base = best_of(3)
    off_s, off = best_of(3, obs=None)
    on_s, on = best_of(3, obs=enabled_observability(sample_every=128))

    show(
        f"no obs: {base_s:.3f}s, disabled obs: {off_s:.3f}s "
        f"({100 * (off_s / base_s - 1):+.1f}%), enabled obs: {on_s:.3f}s "
        f"({100 * (on_s / base_s - 1):+.1f}%)"
    )
    assert base.execution_cycles == off.execution_cycles == on.execution_cycles
    assert base.flit_hops == off.flit_hops == on.flit_hops
