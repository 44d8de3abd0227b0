"""Orchestration: benchmark -> synthesized design -> floorplan.

A :class:`BenchmarkSetup` holds everything the evaluation cells of
:mod:`repro.eval.parallel` replay on.  Setups are cached per
(benchmark, size, seed), since synthesis and placement dominate the
cost of regenerating the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from repro.floorplan.place import Floorplan, place
from repro.obs import DISABLED, Observability
from repro.synthesis.generator import GeneratedDesign, generate_network
from repro.topology.builders import Topology, crossbar, mesh_for, torus_for, torus_link_delays
from repro.workloads.nas import Benchmark, benchmark

# Topologies compared throughout the paper's evaluation.
TOPOLOGY_ORDER = ("crossbar", "mesh", "torus", "generated")


@dataclass
class BenchmarkSetup:
    """Everything needed to evaluate one benchmark configuration."""

    benchmark: Benchmark
    design: GeneratedDesign
    floorplan: Floorplan
    baselines: Dict[str, Topology]

    @property
    def name(self) -> str:
        return self.benchmark.name

    def topology(self, kind: str) -> Topology:
        if kind == "generated":
            return self.design.topology
        return self.baselines[kind]

    def link_delays(self, kind: str) -> Optional[Dict[int, int]]:
        """Per-link delays: floorplan lengths for the generated network,
        one cycle for mesh links, two for (folded) torus wraparounds."""
        if kind == "generated":
            return self.floorplan.link_delays()
        if kind == "torus":
            return torus_link_delays(self.baselines["torus"])
        return None


def _build_setup(
    name: str, n: int, seed: int, restarts: int, obs: Observability
) -> BenchmarkSetup:
    tracer = obs.tracer
    with tracer.span("setup.benchmark", benchmark=name, n=n):
        bench = benchmark(name, n)
    with tracer.span("setup.synthesize", benchmark=name, n=n, seed=seed):
        design = generate_network(bench.pattern, seed=seed, restarts=restarts, obs=obs)
    with tracer.span("setup.floorplan", benchmark=name, n=n, seed=seed):
        plan = place(design.network, seed=seed, obs=obs)
    with tracer.span("setup.baselines", n=n):
        baselines = {
            "crossbar": crossbar(n),
            "mesh": mesh_for(n),
            "torus": torus_for(n),
        }
    return BenchmarkSetup(
        benchmark=bench,
        design=design,
        floorplan=plan,
        baselines=baselines,
    )


@lru_cache(maxsize=None)
def _prepare_cached(name: str, n: int, seed: int, restarts: int) -> BenchmarkSetup:
    return _build_setup(name, n, seed, restarts, DISABLED)


def prepare(
    name: str,
    n: int,
    seed: int = 0,
    restarts: int = 8,
    obs: Optional[Observability] = None,
) -> BenchmarkSetup:
    """Build (and cache) the full setup for one benchmark at size n.

    With observability enabled the in-process memo is bypassed — a
    profiled setup must actually run its synthesis and placement phases
    to have anything to measure (synthesis is deterministic per seed, so
    the rebuilt setup is identical to a memoized one).
    """
    if obs is None or not obs.enabled:
        return _prepare_cached(name, n, seed, restarts)
    return _build_setup(name, n, seed, restarts, obs)
