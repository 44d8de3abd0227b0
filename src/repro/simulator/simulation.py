"""Top-level trace-driven simulation (paper Section 4.2).

``simulate`` replays a program on a topology, choosing the routing
policy the paper uses for that network class: source routing for
generated (and crossbar) networks, dimension-order for meshes, true
fully-adaptive for tori.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import SimulationError
from repro.obs import Observability
from repro.simulator.config import SimConfig
from repro.simulator.engine import Engine
from repro.simulator.process import ProcessReplay
from repro.simulator.routing import AdaptiveMinimal, BoundSourceRouted, SimRouting
from repro.simulator.stats import SimulationResult
from repro.topology.builders import Topology
from repro.workloads.events import Program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.state import FaultState


def routing_policy_for(topology: Topology) -> SimRouting:
    """The paper's routing policy for each topology class.

    Mesh: dimension-order (deterministic, realized as source routing of
    the DOR path).  Torus: true fully-adaptive minimal routing.
    Crossbar and generated networks: source routing.
    """
    if topology.kind == "torus":
        return AdaptiveMinimal(topology)
    return BoundSourceRouted(topology.routing, topology.network)


def simulate(
    program: Program,
    topology: Topology,
    config: Optional[SimConfig] = None,
    link_delays: Optional[Dict[int, int]] = None,
    routing: Optional[SimRouting] = None,
    fault_state: Optional["FaultState"] = None,
    obs: Optional[Observability] = None,
) -> SimulationResult:
    """Replay ``program`` on ``topology`` and collect statistics.

    Args:
        program: per-process event streams to replay.
        topology: the network to simulate.
        config: simulation parameters (defaults to the paper's).
        link_delays: optional cycles-per-link map (from the floorplan's
            link lengths); missing links default to one cycle.
        routing: override the routing policy (defaults to the paper's
            choice for the topology kind).
        fault_state: optional fault scenario to inject; pair it with a
            repaired routing (:mod:`repro.faults.repair`) so permanent
            faults are routed around rather than retried forever.
        obs: optional observability bundle; when enabled the engine
            records per-window gauges, stall counters, and
            deadlock/retransmission/fault events (see
            ``docs/OBSERVABILITY.md``).  Never changes results.

    Raises:
        SimulationError: on unmatched receives (the program blocks
            forever) or when ``config.max_cycles`` is exceeded.
    """
    config = config or SimConfig()
    engine = Engine(
        topology,
        routing or routing_policy_for(topology),
        config,
        link_delays=link_delays,
        fault_state=fault_state,
        obs=obs,
    )
    replay = ProcessReplay(program, engine, config)
    tracer = engine.obs.tracer

    with tracer.span(
        "simulate.run", program=program.name, topology=topology.name
    ):
        t = 0
        replay.run_ready()
        while not replay.all_done() or engine.busy():
            if t > config.max_cycles:
                raise SimulationError(
                    f"simulation exceeded {config.max_cycles} cycles "
                    f"({program.name} on {topology.name}); likely livelock"
                )
            if engine.step(t):
                replay.run_ready()
                t += 1
            else:
                t = _advance(engine, replay, t)

    engine.publish_metrics()
    engine.obs.metrics.gauge("sim.execution_cycles").set(replay.execution_cycles())
    return SimulationResult(
        topology_name=topology.name,
        program_name=program.name,
        execution_cycles=replay.execution_cycles(),
        comm_cycles_per_process=tuple(replay.communication_cycles()),
        delivered_packets=engine.delivered_packets,
        deadlocks_detected=engine.deadlocks_detected,
        retransmissions=engine.retransmissions,
        fault_packet_kills=engine.fault_packet_kills,
        flit_hops=engine.flit_hops,
        # Normalized over the cycles the engine actually simulated
        # (including the post-completion drain), so a trailing-send
        # program cannot report a busy fraction above 1.0.
        link_utilization=engine.link_utilization(),
        config=config,
        packet_latencies=tuple(engine.packet_latencies),
    )


def _advance(engine: Engine, replay: ProcessReplay, t: int) -> int:
    """Pick the next cycle when nothing moved at ``t``.

    The engine's :meth:`~repro.simulator.engine.Engine.next_cycle`
    decides.  If the engine has nothing left to wait for yet processes
    still block, the program has unmatched receives — a workload bug
    worth a precise error.
    """
    next_t = engine.next_cycle(t)
    if next_t is not None:
        return next_t
    if replay.anyone_blocked():
        raise SimulationError(
            "simulation stuck with an idle network: " + replay.blocked_summary()
        )
    return t + 1
