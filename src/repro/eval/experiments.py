"""The paper's experiments as structured row producers.

Each function regenerates one table/figure of the evaluation section:

* :func:`figure7_rows` — switch/link area of the generated networks
  normalized to the mesh (Figure 7a for the 8/9-node sizes, 7b for 16).
* :func:`figure8_rows` — total execution and communication time of
  mesh/torus/generated networks normalized to the crossbar (Figure 8).
* :func:`cross_workload_rows` — FFT and BT traces replayed on the
  CG-generated network (Section 4.2's robustness paragraph).

All row producers accept ``jobs``/``cache``/``progress`` and fan their
simulation cells out through :mod:`repro.eval.parallel`; rows are always
built from the JSON round-tripped payloads, so serial, parallel and
cache-hit invocations produce identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.eval.parallel import (
    PerformanceCell,
    ProgressCallback,
    ResultCache,
    SetupTask,
    prepare_setups,
    run_cells,
)
from repro.eval.runner import TOPOLOGY_ORDER, BenchmarkSetup
from repro.eval.serialize import result_from_dict
from repro.floorplan.area import TORUS_LINK_FACTOR, measure_area
from repro.simulator.config import SimConfig
from repro.workloads.nas import PAPER_LARGE_SIZE, paper_sizes


def _setups(
    sizes: Dict[str, int],
    seed: int,
    jobs: Optional[int],
    cache: Optional[ResultCache],
) -> Dict[str, BenchmarkSetup]:
    tasks = {name: SetupTask(name, n, seed=seed) for name, n in sizes.items()}
    built = prepare_setups(list(tasks.values()), jobs=jobs, cache=cache)
    return {name: built[task] for name, task in tasks.items()}


@dataclass(frozen=True)
class Figure7Row:
    """One bar group of Figure 7: resources normalized to the mesh."""

    benchmark: str
    num_processes: int
    generated_switch_ratio: float
    generated_link_ratio: float
    torus_switch_ratio: float = 1.0
    torus_link_ratio: float = TORUS_LINK_FACTOR
    num_switches: int = 0
    num_links: int = 0


def figure7_rows(
    size: str,
    seed: int = 0,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
) -> List[Figure7Row]:
    """Regenerate Figure 7(a) ("small") or 7(b) ("large").

    Figure 7 needs no simulation — only the synthesized designs and
    their floorplans — so parallelism and caching apply to the setups.
    """
    sizes = paper_sizes(size)
    setups = _setups(sizes, seed, jobs, cache)
    rows = []
    for name, n in sizes.items():
        setup = setups[name]
        report = measure_area(
            setup.design.topology, seed=seed, floorplan=setup.floorplan
        )
        rows.append(
            Figure7Row(
                benchmark=setup.name,
                num_processes=n,
                generated_switch_ratio=report.switch_ratio,
                generated_link_ratio=report.link_ratio,
                num_switches=report.num_switches,
                num_links=setup.design.num_links,
            )
        )
    return rows


@dataclass(frozen=True)
class Figure8Row:
    """One bar group of Figure 8: times normalized to the crossbar."""

    benchmark: str
    num_processes: int
    topology: str
    execution_ratio: float
    communication_ratio: float
    execution_cycles: int
    avg_comm_cycles: float
    deadlocks: int


def figure8_rows(
    size: str,
    seed: int = 0,
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[Figure8Row]:
    """Regenerate Figure 8(a) ("small") or 8(b) ("large")."""
    config = config or SimConfig()
    sizes = paper_sizes(size)
    setups = _setups(sizes, seed, jobs, cache)
    cells = [
        PerformanceCell(
            label=f"{setups[name].name}/{kind}",
            program=setups[name].benchmark.program,
            topology=setups[name].topology(kind),
            config=config,
            link_delays=setups[name].link_delays(kind),
        )
        for name in sizes
        for kind in TOPOLOGY_ORDER
    ]
    outcomes = run_cells(cells, jobs=jobs, cache=cache, progress=progress)
    rows = []
    per_kind = len(TOPOLOGY_ORDER)
    for group, name in enumerate(sizes):
        setup = setups[name]
        results = {
            kind: result_from_dict(outcomes[group * per_kind + i].payload)
            for i, kind in enumerate(TOPOLOGY_ORDER)
        }
        base = results["crossbar"]
        for kind in TOPOLOGY_ORDER:
            r = results[kind]
            rows.append(
                Figure8Row(
                    benchmark=setup.name,
                    num_processes=sizes[name],
                    topology=kind,
                    execution_ratio=r.execution_cycles / base.execution_cycles,
                    communication_ratio=(
                        r.avg_comm_cycles / base.avg_comm_cycles
                        if base.avg_comm_cycles
                        else 1.0
                    ),
                    execution_cycles=r.execution_cycles,
                    avg_comm_cycles=r.avg_comm_cycles,
                    deadlocks=r.deadlocks_detected,
                )
            )
    return rows


@dataclass(frozen=True)
class CrossWorkloadRow:
    """One row of the Section 4.2 robustness study."""

    guest: str
    network: str  # "own", "host" (CG network) or "mesh"
    execution_cycles: int
    degradation_vs_own: float


def cross_workload_rows(
    seed: int = 0,
    config: Optional[SimConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[CrossWorkloadRow]:
    """FFT-16 and BT-16 replayed on the CG-16 generated network."""
    config = config or SimConfig()
    guests = ("fft", "bt")
    sizes = {name: PAPER_LARGE_SIZE for name in ("cg",) + guests}
    setups = _setups(sizes, seed, jobs, cache)
    host = setups["cg"]

    def cell(guest: BenchmarkSetup, network: str) -> PerformanceCell:
        if network == "own":
            topology, delays = guest.design.topology, guest.floorplan.link_delays()
        elif network == "host":
            topology, delays = host.design.topology, host.floorplan.link_delays()
        else:
            topology, delays = guest.baselines["mesh"], None
        return PerformanceCell(
            label=f"{guest.name}/{network}",
            program=guest.benchmark.program,
            topology=topology,
            config=config,
            link_delays=delays,
        )

    networks = ("own", "host", "mesh")
    cells = [cell(setups[g], network) for g in guests for network in networks]
    outcomes = run_cells(cells, jobs=jobs, cache=cache, progress=progress)
    rows = []
    for group, g in enumerate(guests):
        results = {
            network: result_from_dict(outcomes[group * len(networks) + i].payload)
            for i, network in enumerate(networks)
        }
        own = results["own"].execution_cycles
        for network in networks:
            cycles = results[network].execution_cycles
            rows.append(
                CrossWorkloadRow(
                    guest=setups[g].name,
                    network=network,
                    execution_cycles=cycles,
                    degradation_vs_own=cycles / own - 1.0,
                )
            )
    return rows
