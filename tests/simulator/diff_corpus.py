"""The byte-identity differential corpus for the simulator core.

One shared definition of every workload the event-queue engine must
reproduce *byte-identically*: trace replays (bench cases, fault
campaigns, link-delay variants), the full certificate verify corpus
(every NAS benchmark at both paper scales on generated/mesh/torus),
and open-loop load points.  Three consumers read it:

* ``scripts/gen_simulator_golden.py`` — regenerates the committed
  oracle under ``tests/simulator/golden/`` (first frozen from the
  pre-rewrite engine; refreshed whenever the *payload shape* changes,
  with the unchanged fields diffed against the previous goldens);
* ``tests/simulator/test_event_queue_diff.py`` — replays every case
  through the current engine and asserts canonical-JSON equality
  against the goldens, which are the sole oracle now that the vendored
  pre-rewrite ``legacy_engine`` has been retired;
* ``tests/verify/test_dynamic.py`` — checks each verify-corpus
  certificate against the same replay report the golden test compared.

Every runner takes the simulate/replay/open-loop callable as an
argument so the same case definitions can drive any engine
implementation.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import enabled_observability
from repro.eval.serialize import loadpoint_to_dict, result_to_dict
from repro.simulator.config import SimConfig

#: Cases too slow for the fast CI lane run only in the nightly sweep.
FAST, SLOW = "fast", "slow"


@dataclass(frozen=True)
class TraceCase:
    """One trace-replay case: a program on a topology, optionally with
    link delays, a fault scenario, and an observability capture."""

    name: str
    build: Callable[[], dict]  # -> kwargs for simulate()
    lane: str = FAST
    obs_sample_every: Optional[int] = None  # capture obs when set


@dataclass(frozen=True)
class ReplayCase:
    """One verify-corpus replay: a certified pattern on a topology."""

    name: str
    build: Callable[[], dict]  # -> kwargs for replay_pattern()
    lane: str = FAST


@dataclass(frozen=True)
class OpenLoopCase:
    """One open-loop load point."""

    name: str
    build: Callable[[], dict]  # -> kwargs for run_open_loop()
    lane: str = FAST


# ---------------------------------------------------------------------------
# Trace cases (bench corpus + fault campaigns)
# ---------------------------------------------------------------------------


def _nas(name: str, n: int):
    from repro.workloads.nas import benchmark

    return benchmark(name, n)


def _cg8_mesh() -> dict:
    from repro.topology import mesh

    return {"program": _nas("cg", 8).program, "topology": mesh(4, 2),
            "config": SimConfig(max_cycles=5_000_000)}


def _cg8_torus() -> dict:
    from repro.topology import torus

    return {"program": _nas("cg", 8).program, "topology": torus(4, 2),
            "config": SimConfig(max_cycles=5_000_000)}


def _cg8_generated() -> dict:
    from repro.synthesis import generate_network

    bench = _nas("cg", 8)
    topology = generate_network(bench.pattern, seed=0, restarts=2).topology
    return {"program": bench.program, "topology": topology,
            "config": SimConfig(max_cycles=5_000_000)}


def _mg8_torus() -> dict:
    from repro.topology import torus

    return {"program": _nas("mg", 8).program, "topology": torus(4, 2),
            "config": SimConfig(max_cycles=5_000_000)}


def _cg8_mesh_delays() -> dict:
    from repro.topology import mesh

    topology = mesh(4, 2)
    delays = {
        link.link_id: 1 + link.link_id % 3 for link in topology.network.links
    }
    return {"program": _nas("cg", 8).program, "topology": topology,
            "link_delays": delays, "config": SimConfig(max_cycles=5_000_000)}


def _idle_heavy(n: int, side: Tuple[int, int], messages: int) -> dict:
    from repro.topology import mesh
    from repro.workloads.events import Program, RecvEvent, SendEvent

    events: List[tuple] = [()] * n
    events[0] = tuple(SendEvent(dest=1, size_bytes=64) for _ in range(messages))
    events[1] = tuple(RecvEvent(source=0) for _ in range(messages))
    program = Program(name="idle-heavy", num_processes=n, events=tuple(events))
    return {"program": program, "topology": mesh(*side),
            "config": SimConfig(max_cycles=5_000_000)}


def _deep_queue() -> dict:
    from repro.topology import mesh
    from repro.workloads.events import Program, RecvEvent, SendEvent

    sends = tuple(SendEvent(dest=1, size_bytes=64) for _ in range(200))
    recvs = tuple(RecvEvent(source=0) for _ in range(200))
    program = Program(name="deep-queue", num_processes=2, events=(sends, recvs))
    return {"program": program, "topology": mesh(2, 1),
            "config": SimConfig(max_cycles=5_000_000)}


def _faulted(base: Callable[[], dict], windows) -> dict:
    """Wrap a trace case with transient link-fault windows.

    ``windows`` maps a link-selection ("all" or a fraction) to one or
    more ``(start, end)`` outage intervals.
    """
    from repro.faults import FaultScenario, LinkFault
    from repro.faults.state import FaultState

    kwargs = base()
    topology = kwargs["topology"]
    links = [link.link_id for link in topology.network.links]
    faults = []
    for selection, intervals in windows:
        chosen = links if selection == "all" else links[: max(1, len(links) // 2)]
        for link_id in chosen:
            for start, end in intervals:
                faults.append(LinkFault(link_id, start=start, end=end))
    scenario = FaultScenario.of(*faults, name="diff-corpus")
    kwargs["fault_state"] = FaultState(topology.network, scenario)
    kwargs["config"] = SimConfig(max_cycles=3_000_000)
    return kwargs


TRACE_CASES: Tuple[TraceCase, ...] = (
    TraceCase("cg8-mesh4x2", _cg8_mesh, lane=SLOW, obs_sample_every=512),
    TraceCase("cg8-generated", _cg8_generated, lane=FAST),
    TraceCase("mg8-torus4x2", _mg8_torus, lane=FAST, obs_sample_every=512),
    TraceCase("cg8-mesh4x2-linkdelays", _cg8_mesh_delays, lane=SLOW),
    TraceCase("idle-heavy-mesh8x8", lambda: _idle_heavy(64, (8, 8), 400),
              lane=FAST),
    TraceCase("deep-queue-mesh2x1", _deep_queue, lane=FAST),
    TraceCase(
        "faults-cg8-mesh4x2-all-links",
        lambda: _faulted(_cg8_mesh, [("all", [(3000, 3800)])]),
        lane=FAST,
        obs_sample_every=512,
    ),
    TraceCase(
        "faults-cg8-mesh4x2-double-window",
        lambda: _faulted(_cg8_mesh, [("half", [(3000, 3600), (8000, 8600)])]),
        lane=SLOW,
    ),
    TraceCase(
        "faults-cg8-torus4x2-all-links",
        lambda: _faulted(_cg8_torus, [("all", [(3000, 3800)])]),
        lane=SLOW,
    ),
)


def run_trace_case(case: TraceCase, simulate_fn: Callable) -> dict:
    """Run one trace case; the payload is the byte-identity unit."""
    kwargs = case.build()
    obs = None
    if case.obs_sample_every is not None:
        obs = enabled_observability(sample_every=case.obs_sample_every)
        kwargs["obs"] = obs
    result = simulate_fn(**kwargs)
    payload = {"result": result_to_dict(result)}
    if obs is not None:
        payload["obs"] = obs.metrics.snapshot(include_wall=False)
    return payload


# ---------------------------------------------------------------------------
# Verify corpus (the 30-certificate replay set)
# ---------------------------------------------------------------------------


def verify_corpus_cases() -> Tuple[ReplayCase, ...]:
    """The full certificate corpus: every NAS benchmark at both paper
    scales on the generated network and the mesh/torus baselines.

    The small sizes run in the fast lane; the large (16-node) replays
    are nightly-only.
    """
    from repro.workloads.nas import (
        BENCHMARK_NAMES,
        PAPER_LARGE_SIZE,
        PAPER_SMALL_SIZES,
    )

    cases = []
    for name in BENCHMARK_NAMES:
        for label in ("small", "large"):
            n = PAPER_SMALL_SIZES[name] if label == "small" else PAPER_LARGE_SIZE
            for kind in ("generated", "mesh", "torus"):

                def build(name=name, n=n, kind=kind) -> dict:
                    from repro.eval.runner import prepare

                    setup = prepare(name, n, seed=0)
                    return {
                        "topology": setup.topology(kind),
                        "pattern": setup.benchmark.pattern,
                        "link_delays": setup.link_delays(kind),
                    }

                cases.append(
                    ReplayCase(
                        f"{name}-{n}-{kind}",
                        build,
                        lane=FAST if label == "small" else SLOW,
                    )
                )
    return tuple(cases)


#: Replay reports by (case name, replay callable).  The golden test and
#: the certificate cross-validation in ``tests/verify/test_dynamic.py``
#: read the same report, so each case replays once per test run.
_REPLAY_REPORTS: Dict[Tuple[str, Callable], Any] = {}


def replay_case_report(case: ReplayCase, replay_fn: Callable):
    """``replay_fn(**case.build())``, computed once per process."""
    key = (case.name, replay_fn)
    if key not in _REPLAY_REPORTS:
        _REPLAY_REPORTS[key] = replay_fn(**case.build())
    return _REPLAY_REPORTS[key]


def run_replay_case(case: ReplayCase, replay_fn: Callable) -> dict:
    return asdict(replay_case_report(case, replay_fn))


# ---------------------------------------------------------------------------
# Open-loop load points
# ---------------------------------------------------------------------------


def _self_biased_pattern(src: int, n: int, rng: random.Random) -> int:
    """Node 0 always draws itself (the degenerate resample path); every
    other node targets node 0."""
    return 0


def openloop_cases() -> Tuple[OpenLoopCase, ...]:
    from repro.sweeps.patterns import resolve_pattern
    from repro.topology import mesh, torus

    short = {"warmup_cycles": 200, "measure_cycles": 800, "drain_cycles": 800}

    def case(name, topo_fn, spec, rate, lane=FAST, **extra):
        def build() -> dict:
            topology = topo_fn()
            pattern = (
                _self_biased_pattern
                if spec == "self-biased"
                else resolve_pattern(spec, topology=topology)
            )
            kwargs = {"topology": topology, "injection_rate": rate,
                      "pattern": pattern, "seed": 1, **short, **extra}
            return kwargs

        return OpenLoopCase(name, build, lane=lane)

    def faulted_mesh() -> dict:
        from repro.faults import FaultScenario, LinkFault
        from repro.faults.state import FaultState
        from repro.topology import mesh as mesh_fn

        topology = mesh_fn(4, 4)
        links = [link.link_id for link in topology.network.links][:4]
        scenario = FaultScenario.of(
            *[LinkFault(link_id, start=400, end=700) for link_id in links],
            name="openloop-window",
        )
        return {
            "topology": topology,
            "injection_rate": 0.10,
            "seed": 1,
            "fault_state": FaultState(topology.network, scenario),
            **short,
        }

    return (
        case("mesh4x4-uniform-0.10", lambda: mesh(4, 4), "uniform", 0.10),
        case("mesh4x4-tornado-0.30", lambda: mesh(4, 4), "tornado", 0.30),
        case("torus4x2-uniform-0.15", lambda: torus(4, 2), "uniform", 0.15),
        case("mesh4x4-hotspot-0.12", lambda: mesh(4, 4), "hotspot:0:0.7", 0.12,
             lane=SLOW),
        case("mesh4x4-adversarial-0.20", lambda: mesh(4, 4), "adversarial",
             0.20, lane=SLOW),
        case("mesh4x4-self-biased-0.20", lambda: mesh(4, 4), "self-biased",
             0.20),
        OpenLoopCase("mesh4x4-uniform-0.10-faulted", faulted_mesh, lane=FAST),
    )


def run_openloop_case(case: OpenLoopCase, open_loop_fn: Callable) -> dict:
    return loadpoint_to_dict(open_loop_fn(**case.build()))


# ---------------------------------------------------------------------------
# Corpus assembly
# ---------------------------------------------------------------------------

GOLDEN_FILES = ("traces.json", "replays.json", "openloop.json")


def build_corpus(
    simulate_fn: Callable,
    replay_fn: Callable,
    open_loop_fn: Callable,
    lanes: Tuple[str, ...] = (FAST, SLOW),
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict[str, dict]]:
    """Run every corpus case through the given callables."""

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    traces = {}
    for case in TRACE_CASES:
        if case.lane in lanes:
            note(f"trace {case.name}")
            traces[case.name] = run_trace_case(case, simulate_fn)
    replays = {}
    for rcase in verify_corpus_cases():
        if rcase.lane in lanes:
            note(f"replay {rcase.name}")
            replays[rcase.name] = run_replay_case(rcase, replay_fn)
    points = {}
    for ocase in openloop_cases():
        if ocase.lane in lanes:
            note(f"openloop {ocase.name}")
            points[ocase.name] = run_openloop_case(ocase, open_loop_fn)
    return {"traces.json": traces, "replays.json": replays,
            "openloop.json": points}
