"""Open-loop synthetic traffic evaluation.

Trace-driven replay (the paper's method) measures one application; the
classic complement is open-loop injection — every node injects packets
at a configurable rate toward destinations drawn from a synthetic
pattern, and the network's latency-vs-offered-load curve locates its
saturation point.  Useful here to quantify the trade-off the
methodology makes: a generated network is provisioned for its target
application's permutations, so under *uniform* random traffic it
saturates earlier than the mesh whose resources it undercuts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.obs import Observability
from repro.simulator.config import SimConfig
from repro.simulator.engine import Engine
from repro.simulator.routing import SimRouting
from repro.simulator.simulation import routing_policy_for
from repro.simulator.stats import nearest_rank_percentile
from repro.topology.builders import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.state import FaultState

# dest = pattern(source, num_nodes, rng); returning the source resamples.
# The canonical suite of such patterns, and the registry that resolves
# spec strings like "hotspot:3:0.8", is repro.sweeps.patterns.
DestinationPattern = Callable[[int, int, random.Random], int]


def uniform_random(src: int, n: int, rng: random.Random) -> int:
    """Every other node equally likely (the default open-loop pattern)."""
    dest = rng.randrange(n - 1)
    return dest if dest < src else dest + 1


# Bounded retries when a pattern returns the source: enough that any
# pattern with a non-vanishing chance of another node virtually always
# resolves, small enough that an all-self pattern fails fast.
_RESAMPLE_BOUND = 16


@dataclass(frozen=True)
class LoadPoint:
    """One point of a latency/throughput curve.

    Attributes:
        offered_flits_per_node_cycle: injection rate requested.
        accepted_flits_per_node_cycle: delivered payload rate measured
            over the measurement window.
        avg_latency: mean inject-to-delivery latency of packets injected
            during the window.
        delivered: packets delivered in the window.
        saturated: the network could not absorb the offered load (its
            backlog kept growing).
        p50_latency / p95_latency / p99_latency: nearest-rank latency
            percentiles over the same delivered-packet multiset as
            ``avg_latency`` (0 when nothing was delivered) — tail
            behavior at the knee, which the mean hides.
    """

    offered_flits_per_node_cycle: float
    accepted_flits_per_node_cycle: float
    avg_latency: float
    delivered: int
    saturated: bool
    p50_latency: int = 0
    p95_latency: int = 0
    p99_latency: int = 0


def run_open_loop(
    topology: Topology,
    injection_rate: float,
    pattern: DestinationPattern = uniform_random,
    packet_bytes: int = 32,
    warmup_cycles: int = 500,
    measure_cycles: int = 2000,
    drain_cycles: int = 2000,
    config: Optional[SimConfig] = None,
    link_delays: Optional[Dict[int, int]] = None,
    routing: Optional[SimRouting] = None,
    seed: int = 0,
    fault_state: Optional["FaultState"] = None,
    obs: Optional[Observability] = None,
) -> LoadPoint:
    """Measure one offered-load point.

    ``injection_rate`` is in flits per node per cycle; a packet is
    injected whenever a node's flit debt reaches a packet's worth
    (deterministic, seeded destination choice).  Patterns that return
    the source are resampled (bounded), per the module contract, so the
    offered load is not silently lost on self-destined draws.

    Every node's flit debt replays the identical float-op sequence
    (same start, same rate, same packet size), so the per-node
    per-cycle debt loop collapses into one shared crossing schedule
    computed up front by exact scalar replay, and the driver jumps
    across idle gaps with :meth:`~repro.simulator.engine.Engine.next_cycle`
    like every other driver.  ``LoadPoint`` results are byte-identical
    to the always-step implementation (observability sampling, which
    follows visited cycles, is the only thing that can tell the
    difference).

    Raises:
        SimulationError: on a non-positive rate, or when ``pattern``
            still returns the source after the bounded resample — that
            node could never inject, so the point would report load
            it never offered.
    """
    if injection_rate <= 0:
        raise SimulationError(f"injection rate must be positive, got {injection_rate}")
    config = config or SimConfig()
    engine = Engine(
        topology,
        routing or routing_policy_for(topology),
        config,
        link_delays,
        fault_state=fault_state,
        obs=obs,
    )
    rng = random.Random(seed)
    n = topology.network.num_processors
    flits_per_packet = config.flits_for(packet_bytes)

    inject_times: Dict[Tuple[int, int, int], int] = {}
    latencies: List[int] = []
    delivered_in_window = 0

    def on_delivery(src: int, dst: int, seq_: int, cycle: int) -> None:
        nonlocal delivered_in_window
        t0 = inject_times.pop((src, dst, seq_), None)
        if t0 is not None and t0 >= warmup_cycles:
            latencies.append(cycle - t0)
            delivered_in_window += 1

    engine.set_delivery_handler(on_delivery)
    seqs: Dict[Tuple[int, int], int] = {}
    horizon = warmup_cycles + measure_cycles

    # Shared debt-crossing schedule: the exact scalar replay of one
    # node's debt gives the cycles at which every node injects.
    crossings: List[int] = []
    d = 0.0
    for ct in range(horizon):
        d += injection_rate
        if d >= flits_per_packet:
            crossings.append(ct)
            d -= flits_per_packet

    def draw(node: int) -> int:
        dest = pattern(node, n, rng)
        for _ in range(_RESAMPLE_BOUND):
            if dest != node:
                break
            dest = pattern(node, n, rng)
        if dest == node:
            raise SimulationError(
                f"pattern returned source node {node} on "
                f"{_RESAMPLE_BOUND + 1} draws in a row; node {node} "
                "could never inject"
            )
        return dest

    def submit(node: int, dest: int, cycle: int) -> None:
        key = (node, dest)
        seq = seqs.get(key, 0)
        seqs[key] = seq + 1
        engine.submit(
            source=node,
            dest=dest,
            size_bytes=packet_bytes,
            inject_cycle=cycle,
            seq=seq,
        )
        inject_times[(node, dest, seq)] = cycle

    t = 0
    ci = 0  # next crossing index
    while t < horizon:
        if ci < len(crossings) and t == crossings[ci]:
            ci += 1
            for node in range(n):
                submit(node, draw(node), t)
        if engine.step(t):
            t += 1
            continue
        # Nothing moved: the next injection round competes with the
        # engine's own wake-ups.
        next_t = engine.next_cycle(t, *crossings[ci:ci + 1])
        if next_t is None:
            break  # empty network, no injections left before the horizon
        t = next_t

    # Drain without new injections, bounded: a saturated network never
    # fully drains its backlog in time.
    t = max(t, horizon)
    bound = horizon + drain_cycles
    while engine.busy() and t < bound:
        if engine.step(t):
            t += 1
            continue
        next_t = engine.next_cycle(t)
        t = next_t if next_t is not None else t + 1
    saturated = engine.busy()
    engine.publish_metrics()

    payload_flits = flits_per_packet - 1
    accepted = delivered_in_window * payload_flits / (measure_cycles * n)
    return LoadPoint(
        offered_flits_per_node_cycle=injection_rate,
        accepted_flits_per_node_cycle=accepted,
        avg_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        delivered=delivered_in_window,
        saturated=saturated,
        p50_latency=nearest_rank_percentile(latencies, 50),
        p95_latency=nearest_rank_percentile(latencies, 95),
        p99_latency=nearest_rank_percentile(latencies, 99),
    )


def latency_throughput_curve(
    topology: Topology,
    rates: Sequence[float],
    pattern: DestinationPattern = uniform_random,
    **kwargs,
) -> List[LoadPoint]:
    """Sweep offered loads; stops early once the network saturates."""
    points = []
    for rate in rates:
        point = run_open_loop(topology, rate, pattern=pattern, **kwargs)
        points.append(point)
        if point.saturated:
            break
    return points


def saturation_throughput(points: Sequence[LoadPoint]) -> float:
    """Highest accepted rate over a measured curve."""
    return max((p.accepted_flits_per_node_cycle for p in points), default=0.0)
