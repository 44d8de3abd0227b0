"""Automated saturation sweeps with adaptive knee refinement.

:func:`run_sweep_suite` walks offered injection rates over every
(topology, pattern) pair of a grid, and :func:`run_sweep` is its
one-pair case.  Every pair's initial evenly spaced grid is measured
first, in one batch fanned out through the cached parallel eval runner
(:class:`repro.eval.parallel.OpenLoopCell`, so repeats hit the
content-addressed cache byte-identically); then each pair's knee is
located by bisecting the bracket between its last unsaturated and
first saturated rate.  Every rate is rounded to :data:`RATE_DECIMALS`
decimals so the bisection grid, and therefore every cache key, is
reproducible across runs and machines.

Saturation criteria (any one marks a point saturated; the parameters
come from :class:`SweepConfig`):

* **backlog** — the engine could not drain the offered load within the
  drain window (:attr:`LoadPoint.saturated`);
* **throughput plateau** — accepted falls below
  ``plateau_fraction x offered``;
* **latency slope** — the criterion latency exceeds
  ``latency_factor x`` the latency of the lowest-rate point (skipped
  when the reference point delivered nothing).  Which latency feeds the
  slope is the sweep's *criterion*: ``mean-knee`` (the default) knees on
  the average latency, ``p99-knee`` on the p99 tail — tail latency
  degrades before the mean near the knee, so ``p99-knee`` reports the
  saturation point a latency-SLO would observe.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.eval.parallel import (
    OpenLoopCell,
    ProgressCallback,
    ResultCache,
    key_fragments,
    run_cells,
)
from repro.eval.serialize import loadpoint_from_dict
from repro.obs import DISABLED, Observability
from repro.simulator.config import SimConfig
from repro.simulator.openloop import LoadPoint
from repro.sweeps.patterns import canonical_spec, resolve_pattern
from repro.sweeps.report import SaturationCurve, SweepResult
from repro.topology.builders import Topology, crossbar, mesh_for, torus_for, torus_link_delays
from repro.topology.routing import ShortestPathRouting

#: Rates are rounded to this many decimals so bisection midpoints (and
#: the cache keys derived from them) are byte-stable.
RATE_DECIMALS = 6

#: Saturation criteria: which latency the slope test knees on.
CRITERIA = ("mean-knee", "p99-knee")


def criterion_latency(point: LoadPoint, criterion: str) -> float:
    """The latency of one point under a saturation criterion."""
    if criterion == "p99-knee":
        return float(point.p99_latency)
    return point.avg_latency


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one automated sweep.

    ``initial_points`` rates are spaced evenly over
    ``[min_rate, max_rate]``; ``refine_iters`` bisection steps then
    tighten the knee bracket.  Cycle windows are deliberately shorter
    than :func:`~repro.simulator.openloop.run_open_loop`'s defaults —
    a sweep multiplies them by dozens of cells.
    """

    min_rate: float = 0.05
    max_rate: float = 1.0
    initial_points: int = 6
    refine_iters: int = 4
    latency_factor: float = 4.0
    plateau_fraction: float = 0.85
    packet_bytes: int = 32
    warmup_cycles: int = 300
    measure_cycles: int = 1500
    drain_cycles: int = 1500
    seed: int = 0
    criterion: str = "mean-knee"

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise SimulationError(
                f"unknown saturation criterion {self.criterion!r}; "
                f"choose from {CRITERIA}"
            )
        if not 0 < self.min_rate <= self.max_rate:
            raise SimulationError(
                f"need 0 < min_rate <= max_rate, got "
                f"{self.min_rate}..{self.max_rate}"
            )
        if self.initial_points < 1:
            raise SimulationError(
                f"initial_points must be positive, got {self.initial_points}"
            )
        if self.refine_iters < 0:
            raise SimulationError(
                f"refine_iters must be non-negative, got {self.refine_iters}"
            )
        if self.latency_factor <= 1.0:
            raise SimulationError(
                f"latency_factor must exceed 1, got {self.latency_factor}"
            )
        if not 0.0 < self.plateau_fraction <= 1.0:
            raise SimulationError(
                f"plateau_fraction must be in (0, 1], got {self.plateau_fraction}"
            )

    def params_dict(self) -> Dict[str, object]:
        """The artifact's ``params`` section: every field but the seed,
        which the curve records on its own."""
        return {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "seed"
        }


def point_is_saturated(
    point: LoadPoint,
    base_latency: Optional[float],
    sweep: SweepConfig = SweepConfig(),
    payload_fraction: float = 1.0,
) -> bool:
    """Whether one measured point meets any saturation criterion.

    ``sweep`` supplies the rule's parameters (``latency_factor``,
    ``plateau_fraction`` and ``criterion``).  ``payload_fraction``
    corrects the plateau criterion for header overhead: offered load
    counts every flit, but accepted throughput counts payload flits
    only, so even an unloaded network accepts at most
    ``payload_fraction x offered``.  ``base_latency`` must come from the
    same criterion — :func:`latency_reference` takes care of that.
    """
    if point.saturated:
        return True
    if (
        point.accepted_flits_per_node_cycle
        < sweep.plateau_fraction * payload_fraction * point.offered_flits_per_node_cycle
    ):
        return True
    if base_latency is not None and base_latency > 0:
        return (
            criterion_latency(point, sweep.criterion)
            > sweep.latency_factor * base_latency
        )
    return False


def latency_reference(
    points: Sequence[LoadPoint],
    sweep: SweepConfig = SweepConfig(),
    payload_fraction: float = 1.0,
) -> Optional[float]:
    """Latency baseline for the slope criterion: the criterion latency
    of the lowest-rate measured point that delivered traffic and is not
    itself saturated by the backlog or plateau criteria.

    ``None`` when no such point exists (every measured point is already
    backlogged or below the plateau threshold) — the latency criterion
    is then skipped, which is safe because those points saturate through
    the other criteria anyway.
    """
    for point in points:
        if point.delivered > 0 and not point_is_saturated(
            point, None, sweep, payload_fraction
        ):
            return criterion_latency(point, sweep.criterion)
    return None


def detect_saturation(
    points: Sequence[LoadPoint],
    sweep: SweepConfig = SweepConfig(),
    payload_fraction: float = 1.0,
) -> Optional[int]:
    """Index of the first saturated point of a rate-sorted curve.

    Returns ``None`` for an empty curve or one that never saturates
    (e.g. a monotone curve on a non-blocking network).  The latency
    reference is the lowest *unsaturated* measured point
    (:func:`latency_reference`), so bisection refinements probing below
    a saturated lowest grid point classify against the same baseline as
    this final pass.  The reference point itself can never trip the
    slope criterion (``latency_factor > 1``).  Points are classified
    independently, so one noisy dip above the plateau threshold near
    the knee does not flag saturation early.
    """
    base = latency_reference(points, sweep, payload_fraction)
    for i, point in enumerate(points):
        if point_is_saturated(point, base, sweep, payload_fraction):
            return i
    return None


def _round_rate(rate: float) -> float:
    return round(rate, RATE_DECIMALS)


def _initial_rates(sweep: SweepConfig) -> List[float]:
    if sweep.initial_points == 1:
        return [_round_rate(sweep.max_rate)]
    step = (sweep.max_rate - sweep.min_rate) / (sweep.initial_points - 1)
    rates = [
        _round_rate(sweep.min_rate + i * step) for i in range(sweep.initial_points)
    ]
    return sorted(set(rates))


#: One sweep pair: ``(label, topology, link_delays, canonical spec)``.
_Pair = Tuple[str, Topology, Optional[Dict[int, int]], str]


def _make_cell(
    pair: _Pair, rate: float, sweep: SweepConfig, config: SimConfig
) -> OpenLoopCell:
    label, topology, link_delays, spec = pair
    return OpenLoopCell(
        label=f"{label}/{spec}@{rate:g}",
        topology=topology,
        pattern=spec,
        injection_rate=rate,
        config=config,
        packet_bytes=sweep.packet_bytes,
        warmup_cycles=sweep.warmup_cycles,
        measure_cycles=sweep.measure_cycles,
        drain_cycles=sweep.drain_cycles,
        link_delays=link_delays,
        seed=sweep.seed,
    )


def run_sweep(
    topology: Topology,
    pattern: str,
    sweep: Optional[SweepConfig] = None,
    config: Optional[SimConfig] = None,
    link_delays: Optional[Dict[int, int]] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Observability] = None,
    label: Optional[str] = None,
    *,
    strict_patterns: bool = True,
) -> SaturationCurve:
    """Sweep offered load to saturation on one (topology, pattern) pair.

    The one-pair case of :func:`run_sweep_suite`: its only curve, under
    ``label`` (default: the topology's name).

    ``strict_patterns`` accepts only ``True``: pattern resolution is
    always strict.  The keyword stays while the benchmark harness
    (``bench/passes.py``) still passes it, and goes together with those
    arguments.
    """
    if not strict_patterns:
        raise SimulationError(
            "strict_patterns=False is not supported: pattern resolution is "
            "always strict, and a size-incompatible pattern raises"
        )
    result = run_sweep_suite(
        [(label or topology.name, topology, link_delays)],
        [pattern],
        sweep=sweep,
        config=config,
        jobs=jobs,
        cache=cache,
        progress=progress,
        obs=obs,
    )
    return result.curves[0][2]


def run_sweep_suite(
    topologies: Sequence[Tuple[str, Topology, Optional[Dict[int, int]]]],
    patterns: Sequence[str],
    sweep: Optional[SweepConfig] = None,
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Observability] = None,
    label: str = "sweep-suite",
) -> SweepResult:
    """Sweep every pattern over every ``(label, topology, link_delays)``.

    Every pair is validated first, in the coordinator, so a bad spec, a
    size-incompatible pattern or a routing-aware pattern without a
    topology fails before any cell runs.  The *entire* grid's initial
    rate points — every (topology, pattern) pair times every initial
    rate — then fan out through **one**
    :func:`~repro.eval.parallel.run_cells` call over ``jobs`` workers,
    so a worker pool sees the whole suite at once instead of one pair's
    handful of cells between barriers.  Bisection refinements are
    inherently sequential and run per pair, in process, one cell at a
    time (and through the shared result cache, when one is given), so a
    re-run of an identical suite is free end to end and byte-identical
    (serial == parallel == cache-hit).
    """
    sweep = sweep or SweepConfig()
    config = config or SimConfig()
    obs = obs if obs is not None else DISABLED
    rates = _initial_rates(sweep)
    pairs: List[_Pair] = []
    for top_label, topology, link_delays in topologies:
        for pattern in patterns:
            spec = canonical_spec(pattern)
            resolve_pattern(spec, topology=topology)
            pairs.append((top_label, topology, link_delays, spec))

    cells = [_make_cell(pair, rate, sweep, config) for pair in pairs for rate in rates]
    curves = []
    # One batch of cell keys: each pair's topology is fingerprinted once
    # for its initial grid and every refinement probe.
    with key_fragments():
        outcomes = run_cells(cells, jobs=jobs, cache=cache, progress=progress, obs=obs)
        obs.metrics.counter("sweep.cells").inc(len(outcomes))
        for i, pair in enumerate(pairs):
            pair_outcomes = outcomes[i * len(rates) : (i + 1) * len(rates)]
            measured = {
                rate: loadpoint_from_dict(outcome.payload)
                for rate, outcome in zip(rates, pair_outcomes)
            }
            curve = _refine(pair, measured, sweep, config, cache, progress, obs)
            curves.append((pair[0], pair[3], curve))
    return SweepResult(label=label, curves=tuple(curves))


def _refine(
    pair: _Pair,
    measured: Dict[float, LoadPoint],
    sweep: SweepConfig,
    config: SimConfig,
    cache: Optional[ResultCache],
    progress: Optional[ProgressCallback],
    obs: Observability,
) -> SaturationCurve:
    """Bisect one pair's knee from its measured initial grid.

    ``measured`` maps each rounded rate to its load point and gains one
    entry per probe.  Each probe is one in-process
    :func:`~repro.eval.parallel.run_cells` call: a worker pool would
    add pure spawn overhead for a single cell.
    """
    label, topology, _, spec = pair
    flits = config.flits_for(sweep.packet_bytes)
    payload_fraction = (flits - 1) / flits

    def sorted_points() -> List[LoadPoint]:
        return [measured[r] for r in sorted(measured)]

    with obs.tracer.span(
        "sweep.run", topology=label, pattern=spec, nodes=topology.network.num_processors
    ):
        first = detect_saturation(sorted_points(), sweep, payload_fraction)
        saturation_rate: Optional[float] = None
        if first is not None:
            rates = sorted(measured)
            hi = rates[first]
            # When even the lowest rate saturates, bisect down toward a
            # quarter of it rather than toward zero (rates must stay
            # positive).
            lo = rates[first - 1] if first > 0 else _round_rate(rates[0] / 4)
            for _ in range(sweep.refine_iters):
                mid = _round_rate((lo + hi) / 2)
                if mid <= lo or mid >= hi or mid in measured:
                    break
                (outcome,) = run_cells(
                    [_make_cell(pair, mid, sweep, config)],
                    cache=cache,
                    progress=progress,
                    obs=obs,
                )
                obs.metrics.counter("sweep.cells").inc()
                measured[mid] = loadpoint_from_dict(outcome.payload)
                obs.metrics.counter("sweep.refine_steps").inc()
                # Recompute the latency baseline from the lowest
                # unsaturated point measured so far: when the lowest
                # grid point itself saturates, down-bisection probes
                # below it, and classifying those probes against the
                # saturated point's (inflated) latency would disagree
                # with the final detect_saturation pass, which sees the
                # new probe as the curve's lowest point.
                base = latency_reference(sorted_points(), sweep, payload_fraction)
                if point_is_saturated(measured[mid], base, sweep, payload_fraction):
                    hi = mid
                else:
                    lo = mid
            saturation_rate = _round_rate((lo + hi) / 2)
            obs.metrics.gauge("sweep.saturation_rate").set(saturation_rate)

        points = sorted_points()
        first = detect_saturation(points, sweep, payload_fraction)
        unsaturated = points if first is None else points[:first]
        pool = unsaturated if unsaturated else points
        saturation_throughput = max(
            (p.accepted_flits_per_node_cycle for p in pool), default=0.0
        )

        return SaturationCurve(
            topology_name=label,
            pattern=spec,
            num_nodes=topology.network.num_processors,
            seed=sweep.seed,
            points=tuple(points),
            saturation_rate=saturation_rate,
            saturation_throughput=saturation_throughput,
            saturated=first is not None,
            params=sweep.params_dict(),
        )


# ---------------------------------------------------------------------------
# Study topologies
# ---------------------------------------------------------------------------


def spare_link_variant(topology: Topology) -> Topology:
    """A copy of ``topology`` with one spare link added per switch.

    Each switch (ascending id) gains one link to its nearest
    non-neighbour switch (BFS distance over the current switch graph,
    ties toward the lowest id); switches already linked to every other
    switch are skipped.  Routing is rebuilt as deterministic BFS
    shortest-path so the spares are actually used — the question this
    variant answers is how much robustness one extra port per switch
    buys back on off-design traffic.  Note the torus's adaptive
    routing would be replaced by the same deterministic policy.
    """
    net = topology.network.copy()
    for s in net.switches:
        others = [t for t in net.switches if t != s and not net.links_between(s, t)]
        if not others:
            continue
        dist = _bfs_distances(net, s)
        target = min(others, key=lambda t: (dist.get(t, float("inf")), t))
        net.add_link(s, target)
    return Topology(
        name=f"{topology.name}+spare",
        network=net,
        routing=ShortestPathRouting(net),
        coords=topology.coords,
        kind=f"{topology.kind}-spare",
        grid_shape=topology.grid_shape,
    )


def _bfs_distances(net, start: int) -> Dict[int, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt: List[int] = []
        for s in frontier:
            for t in net.neighbors(s):
                if t not in dist:
                    dist[t] = dist[s] + 1
                    nxt.append(t)
        frontier = nxt
    return dist


STUDY_TOPOLOGIES = ("generated", "generated-spare", "mesh", "torus", "crossbar")


def study_topology(
    kind: str,
    nodes: int,
    benchmark: str = "cg",
    seed: int = 0,
    restarts: int = 8,
) -> Tuple[str, Topology, Optional[Dict[int, int]]]:
    """Build one study topology as a ``(label, topology, link_delays)`` row.

    ``mesh``/``torus``/``crossbar`` are the plain baselines (torus
    wraparounds cost two cycles, as in the paper's evaluation);
    ``generated`` synthesizes the network for ``benchmark`` at
    ``nodes`` and uses its floorplan link delays; ``generated-spare``
    is the generated network with one spare link per switch (spare
    links, having no floorplan length, keep the one-cycle default).
    """
    if kind == "mesh":
        return kind, mesh_for(nodes), None
    if kind == "crossbar":
        return kind, crossbar(nodes), None
    if kind == "torus":
        top = torus_for(nodes)
        return kind, top, torus_link_delays(top)
    if kind in ("generated", "generated-spare"):
        from repro.eval.runner import prepare

        setup = prepare(benchmark, nodes, seed=seed, restarts=restarts)
        delays = setup.floorplan.link_delays()
        if kind == "generated":
            return kind, setup.design.topology, delays
        return kind, spare_link_variant(setup.design.topology), delays
    raise SimulationError(
        f"unknown study topology {kind!r}; choose from {STUDY_TOPOLOGIES}"
    )
