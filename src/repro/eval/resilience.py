"""Resilience evaluation: fault campaigns over topologies.

For each fault scenario the runner first repairs the routing function
around permanently dead resources (:mod:`repro.faults.repair`).  If any
communication the program needs is disconnected, the scenario is scored
without simulation — a minimal network that lost its only path cannot
deliver, and replaying the program would block forever.  Otherwise the
program is replayed with the fault injected and the repaired routes,
and degradation is measured against the fault-free baseline:
execution-time inflation, delivered-packet fraction, retransmissions,
fault-induced packet kills, and latency percentiles.

All topologies — including the torus, which the paper simulates with
fully-adaptive routing — are evaluated with deterministic source
routing here, so the repair pass applies uniformly and fault-free
baselines are directly comparable to degraded runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.eval.parallel import (
    ProgressCallback,
    ResilienceCell,
    ResultCache,
    run_cells,
)
from repro.eval.serialize import result_from_dict
from repro.faults.spec import FaultScenario
from repro.simulator.config import SimConfig
from repro.simulator.stats import SimulationResult
from repro.topology.builders import Topology
from repro.workloads.events import Program


@dataclass(frozen=True)
class ScenarioOutcome:
    """Degradation of one fault scenario relative to the fault-free run.

    Attributes:
        scenario: the injected faults.
        status: ``"ok"`` (repaired and fully delivered) or
            ``"disconnected"`` (some program pair lost its only path).
        rerouted_pairs: program pairs the repair pass moved to new routes.
        disconnected_pairs: program pairs with no surviving path.
        execution_cycles: degraded completion time (``None`` when
            disconnected — the program cannot finish).
        inflation: execution time over the fault-free baseline (>= 1.0
            up to scheduling noise; ``None`` when disconnected).
        delivered_fraction: deliverable messages over total messages.
            1.0 for repaired scenarios; below 1.0 when disconnection
            strands messages.
        retransmissions: packets re-injected (timeout- or fault-killed).
        fault_packet_kills: packets whose flits were lost on a failing
            channel.
        deadlocks: timeout-triggered recovery activations.
        p50/p95/p99: delivered-packet latency percentiles (0 when the
            scenario was not simulated).
    """

    scenario: FaultScenario
    status: str
    rerouted_pairs: int
    disconnected_pairs: int
    execution_cycles: Optional[int]
    inflation: Optional[float]
    delivered_fraction: float
    retransmissions: int
    fault_packet_kills: int
    deadlocks: int
    p50: int
    p95: int
    p99: int

    @property
    def disconnected(self) -> bool:
        return self.status == "disconnected"


@dataclass(frozen=True)
class ResilienceReport:
    """Aggregate outcome of one fault campaign on one topology."""

    topology_name: str
    program_name: str
    baseline: SimulationResult
    outcomes: Tuple[ScenarioOutcome, ...]

    @property
    def num_scenarios(self) -> int:
        return len(self.outcomes)

    @property
    def num_disconnected(self) -> int:
        return sum(1 for o in self.outcomes if o.disconnected)

    @property
    def connectivity(self) -> float:
        """Fraction of scenarios the network survives fully connected."""
        if not self.outcomes:
            return 1.0
        return 1.0 - self.num_disconnected / self.num_scenarios

    @property
    def max_inflation(self) -> float:
        """Worst execution-time inflation over the connected scenarios."""
        return max(
            (o.inflation for o in self.outcomes if o.inflation is not None),
            default=1.0,
        )

    @property
    def mean_inflation(self) -> float:
        inflations = [o.inflation for o in self.outcomes if o.inflation is not None]
        if not inflations:
            return 1.0
        return sum(inflations) / len(inflations)

    @property
    def min_delivered_fraction(self) -> float:
        return min((o.delivered_fraction for o in self.outcomes), default=1.0)

    @property
    def total_retransmissions(self) -> int:
        return sum(o.retransmissions for o in self.outcomes)

    def summary(self) -> str:
        """One-line aggregate used by the CLI and benches."""
        return (
            f"{self.program_name} on {self.topology_name}: "
            f"{self.num_scenarios} scenarios, "
            f"{100 * self.connectivity:.0f}% survive connected, "
            f"mean inflation {self.mean_inflation:.3f}x "
            f"(worst {self.max_inflation:.3f}x), "
            f"min delivered {100 * self.min_delivered_fraction:.0f}%, "
            f"{self.total_retransmissions} retransmissions"
        )


def run_resilience(
    program: Program,
    topology: Topology,
    scenarios: Iterable[FaultScenario],
    config: Optional[SimConfig] = None,
    link_delays: Optional[Dict[int, int]] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> ResilienceReport:
    """Sweep fault scenarios for one program on one topology.

    The fault-free baseline uses the topology's own (deterministic)
    routing function; each scenario uses the repaired table, so the
    baseline and the degraded runs share the routing discipline.  The
    baseline and every scenario are independent cells fanned out (and
    cached) through :mod:`repro.eval.parallel`.
    """
    config = config or SimConfig()
    scenario_list = list(scenarios)
    cells = [
        ResilienceCell(
            label=f"{program.name}/{topology.name}/baseline",
            program=program,
            topology=topology,
            config=config,
            link_delays=link_delays,
            scenario=None,
        )
    ]
    cells.extend(
        ResilienceCell(
            label=f"{program.name}/{topology.name}/{scenario.name}",
            program=program,
            topology=topology,
            config=config,
            link_delays=link_delays,
            scenario=scenario,
        )
        for scenario in scenario_list
    )
    payloads = [
        o.payload for o in run_cells(cells, jobs=jobs, cache=cache, progress=progress)
    ]
    baseline = result_from_dict(payloads[0]["result"])
    total_messages = program.total_messages
    outcomes = []
    for scenario, payload in zip(scenario_list, payloads[1:]):
        if payload["status"] == "disconnected":
            stranded = payload["stranded_messages"]
            outcomes.append(
                ScenarioOutcome(
                    scenario=scenario,
                    status="disconnected",
                    rerouted_pairs=payload["rerouted_pairs"],
                    disconnected_pairs=payload["disconnected_pairs"],
                    execution_cycles=None,
                    inflation=None,
                    delivered_fraction=(
                        (total_messages - stranded) / total_messages
                        if total_messages
                        else 1.0
                    ),
                    retransmissions=0,
                    fault_packet_kills=0,
                    deadlocks=0,
                    p50=0,
                    p95=0,
                    p99=0,
                )
            )
            continue
        result = result_from_dict(payload["result"])
        outcomes.append(
            ScenarioOutcome(
                scenario=scenario,
                status="ok",
                rerouted_pairs=payload["rerouted_pairs"],
                disconnected_pairs=0,
                execution_cycles=result.execution_cycles,
                inflation=result.execution_cycles / max(1, baseline.execution_cycles),
                delivered_fraction=(
                    result.delivered_packets / total_messages if total_messages else 1.0
                ),
                retransmissions=result.retransmissions,
                fault_packet_kills=result.fault_packet_kills,
                deadlocks=result.deadlocks_detected,
                p50=result.p50_packet_latency,
                p95=result.p95_packet_latency,
                p99=result.p99_packet_latency,
            )
        )
    return ResilienceReport(
        topology_name=topology.name,
        program_name=program.name,
        baseline=baseline,
        outcomes=tuple(outcomes),
    )
