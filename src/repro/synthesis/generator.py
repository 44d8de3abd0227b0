"""Facade: from communication pattern to generated network.

``generate_network`` runs the clique analysis, executes the main
partitioning algorithm (with multi-seed restarts, since the initial
halving is random), materializes the best result as a concrete
:class:`~repro.topology.network.Network` with parallel links sized by
exact coloring, installs per-communication source routes pinned to
specific links, and checks Theorem 1 on the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.model.cliques import CliqueAnalysis, permutation_violations
from repro.obs import DISABLED, Observability
from repro.model.message import Communication
from repro.model.pattern import CommunicationPattern
from repro.model.theorem import ContentionCertificate, check_contention_free
from repro.synthesis.annealing import AnnealSchedule
from repro.synthesis.constraints import DesignConstraints
from repro.synthesis.partition import PartitionResult, Partitioner


@dataclass(frozen=True)
class DesignStats:
    """Partitioning counters a design carries after materialization.

    Unlike :class:`~repro.synthesis.partition.PartitionResult` (whose
    :class:`~repro.synthesis.state.SynthesisState` is too heavy to
    serialize), these survive the JSON round-trip through
    :func:`repro.eval.serialize.design_to_dict`, so a cache-rehydrated
    design reports the same numbers as a freshly computed one.
    """

    bisections: int
    route_moves: int
    processor_moves: int
from repro.topology.builders import Topology
from repro.topology.network import Network
from repro.topology.routing import (
    Route,
    RoutingBase,
    ShortestPathRouting,
    TableRouting,
    make_route,
)


@dataclass
class GeneratedDesign:
    """A synthesized network and everything needed to use it.

    Attributes:
        topology: the generated network wrapped as a
            :class:`~repro.topology.builders.Topology` whose routing is
            the synthesized source-routing table (with shortest-path
            fallback for communications outside the target pattern).
        pattern: the communication pattern the network was designed for.
        analysis: the clique analysis of that pattern.
        certificate: Theorem 1 check of the pattern on this network.
        switch_map: synthesis switch id -> network switch id.
        pipe_links: pipe (network switch pair) -> link ids in color order.
        seed: the restart seed that produced this design.
        stats: partitioning counters (serialization-stable).
        result: the raw partitioning result (state, pipe widths) — only
            present on freshly computed designs; ``None`` after a
            rehydration from the synthesis cache, whose JSON payload
            carries :attr:`stats` instead.
    """

    topology: Topology
    pattern: CommunicationPattern
    analysis: CliqueAnalysis
    certificate: ContentionCertificate
    switch_map: Dict[int, int]
    pipe_links: Dict[FrozenSet[int], Tuple[int, ...]]
    seed: int
    stats: DesignStats
    result: Optional[PartitionResult] = None

    @property
    def network(self) -> Network:
        return self.topology.network

    @property
    def num_switches(self) -> int:
        return self.network.num_switches

    @property
    def num_links(self) -> int:
        return self.network.num_links


class FallbackRouting(RoutingBase):
    """Synthesized table routes with shortest-path fallback."""

    def __init__(self, table: TableRouting, network: Network) -> None:
        self._table = table
        self._fallback = ShortestPathRouting(network)

    def route(self, comm: Communication) -> Route:
        if self._table.has_route(comm):
            return self._table.route(comm)
        return self._fallback.route(comm)

    @property
    def table(self) -> TableRouting:
        return self._table


def generate_network(
    pattern: CommunicationPattern,
    constraints: Optional[DesignConstraints] = None,
    seed: int = 0,
    restarts: int = 16,
    reroute: bool = True,
    moves: bool = True,
    obs: Optional[Observability] = None,
    anneal_schedule: Optional[AnnealSchedule] = None,
) -> GeneratedDesign:
    """Run the full design methodology on a communication pattern.

    Args:
        pattern: the target application's communication pattern.
        constraints: design constraints (default: max node degree 5, as
            in the paper's evaluation).
        seed: base RNG seed; restart ``i`` uses ``seed + i``.
        restarts: how many independent runs to take the best of.  The
            initial halving and violator selection are random, so
            restarts play the role of the annealing schedule's
            temperature restarts.
        reroute: enable the global route optimizer (ablation knob).
        moves: enable inter-partition processor moves (ablation knob).
        obs: optional observability bundle — per-restart spans,
            bisection/route-move counters, and ``Fast_Color`` vs exact
            coloring gap events (``docs/OBSERVABILITY.md``).
        anneal_schedule: run temperature-driven processor moves after
            each bisection under this schedule (the paper's "simulated
            annealing technique"; ``None`` keeps the Appendix's greedy
            walk only).

    Returns:
        The best design found, by (total links, switch count).
    """
    if restarts < 1:
        raise SynthesisError(f"need at least one restart, got {restarts}")
    obs = obs if obs is not None else DISABLED
    constraints = constraints or DesignConstraints()
    with obs.tracer.span("synthesis.analyze", pattern=pattern.name):
        analysis = CliqueAnalysis.of(pattern)
        violations = permutation_violations(analysis.max_cliques)
    if violations:
        clique, reason = violations[0]
        raise SynthesisError(
            f"pattern {pattern.name!r} has a contention period that is not "
            f"a partial permutation ({reason}; period "
            f"{{{', '.join(str(c) for c in sorted(clique))}}}). No network "
            "with one port per processor can serve it contention-free — "
            "stage the offending collective into sequential phases "
            "(e.g. a tree broadcast) and re-extract the pattern."
        )
    best: Optional[Tuple[Tuple[int, int], int, PartitionResult]] = None
    failures: List[str] = []
    for i in range(restarts):
        try:
            with obs.tracer.span("synthesis.restart", seed=seed + i):
                result = Partitioner(
                    analysis,
                    constraints=constraints,
                    seed=seed + i,
                    reroute=reroute,
                    moves=moves,
                    anneal_schedule=anneal_schedule,
                    obs=obs,
                ).run()
        except SynthesisError as exc:
            failures.append(f"seed {seed + i}: {exc}")
            obs.metrics.counter("synthesis.failed_restarts").inc()
            continue
        score = (result.total_links(), len(result.state.switches))
        if best is None or score < best[0]:
            best = (score, seed + i, result)
    if best is None:
        raise SynthesisError(
            "all restarts failed to satisfy the design constraints:\n  "
            + "\n  ".join(failures)
        )
    _, best_seed, result = best
    if obs.metrics.enabled:
        m = obs.metrics
        m.gauge("synthesis.best_seed").set(best_seed)
        m.gauge("synthesis.total_links").set(result.total_links())
        m.gauge("synthesis.switches").set(len(result.state.switches))
    with obs.tracer.span("synthesis.materialize", seed=best_seed):
        return _materialize(pattern, analysis, result, best_seed)


def _materialize(
    pattern: CommunicationPattern,
    analysis: CliqueAnalysis,
    result: PartitionResult,
    seed: int,
) -> GeneratedDesign:
    """Turn a partition result into a concrete network + routing table."""
    state = result.state
    net = Network(pattern.num_processes)
    switch_map: Dict[int, int] = {}
    live_pipes = {final.switches for final in result.pipe_finals.values()}
    piped = {s for pair in live_pipes for s in pair}
    for s in state.switches:
        # Dead switches (no processors, no traffic) can appear when the
        # escape moves turn a switch into a relay and rerouting then
        # empties it; they have no hardware to build.
        if not state.switch_procs[s] and s not in piped:
            continue
        switch_map[s] = net.add_switch()
    for p, s in sorted(state.proc_switch.items()):
        net.attach_processor(p, switch_map[s])

    pipe_links: Dict[FrozenSet[int], Tuple[int, ...]] = {}
    for key, final in sorted(
        result.pipe_finals.items(), key=lambda kv: kv[1].switches
    ):
        u, v = final.switches
        ids = tuple(
            net.add_link(switch_map[u], switch_map[v]) for _ in range(final.width)
        )
        pipe_links[frozenset((switch_map[u], switch_map[v]))] = ids

    # Traffic-free links planned by the partitioner to keep the system
    # strongly connected (already accounted in its degree budget).  The
    # plan is the only owner of Definition 1 connectivity: should it
    # ever fall short, FallbackRouting's ShortestPathRouting validates
    # the network below and raises.
    for u, v in result.connectivity_links:
        link = net.add_link(switch_map[u], switch_map[v])
        pipe_links.setdefault(frozenset((switch_map[u], switch_map[v])), (link,))

    routes = []
    for comm in state.comms:
        path = state.route_of(comm)
        net_path = [switch_map[s] for s in path]
        link_choices: Dict[int, int] = {}
        for hop, (u, v) in enumerate(zip(path, path[1:])):
            final = result.pipe_finals[frozenset((u, v))]
            lo, hi = final.switches
            color = (
                final.forward_colors[comm] if (u, v) == (lo, hi) else final.backward_colors[comm]
            )
            link_choices[hop] = pipe_links[frozenset((switch_map[u], switch_map[v]))][color]
        routes.append(make_route(net, comm, net_path, link_choices))
    table = TableRouting(routes)
    routing = FallbackRouting(table, net)

    certificate = check_contention_free(pattern, routing)
    topology = Topology(
        name=f"generated-{pattern.name}",
        network=net,
        routing=routing,
        coords=None,
        kind="generated",
    )
    return GeneratedDesign(
        topology=topology,
        pattern=pattern,
        analysis=analysis,
        certificate=certificate,
        switch_map=switch_map,
        pipe_links=pipe_links,
        seed=seed,
        stats=DesignStats(
            bisections=result.bisections,
            route_moves=result.route_moves,
            processor_moves=result.processor_moves,
        ),
        result=result,
    )
