"""Parallel synthesis portfolio: K seeded runs fanned through the eval runner.

The paper's evaluation stops at 16 nodes; at 64-256 nodes a single
annealing run is minutes of work and many seeds fail the constraints
outright, so candidate generation only scales if the seeds run in
parallel and repeats hit cache.  This module treats each (seed,
schedule) of a portfolio as one :class:`~repro.eval.parallel.SynthesisCell`
— content-addressed exactly like the evaluation grids — and fans the
whole grid through :func:`~repro.eval.parallel.run_cells`.

Determinism contract
--------------------
The winner is selected from the cells' JSON payloads by
``(objective, links, seed, cell index)`` and rehydrated from the
winning payload via :func:`~repro.eval.serialize.design_from_dict`, so
the returned design is byte-identical (under ``design_to_dict``) across
``--jobs`` values and cold/warm cache states — the same guarantee the
eval determinism harness pins for simulation grids.  Every cell of the
grid always runs (or hits the cache), so the set of candidates never
depends on the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.eval.parallel import (
    CellOutcome,
    ProgressCallback,
    ResultCache,
    SynthesisCell,
    run_cells,
)
from repro.eval.serialize import design_from_dict
from repro.model.pattern import CommunicationPattern
from repro.obs import DISABLED, Observability
from repro.synthesis.annealing import AnnealSchedule
from repro.synthesis.constraints import DesignConstraints
from repro.synthesis.generator import GeneratedDesign

# Deterministic objectives over the serialized design payload (the
# winner must be selectable from cached JSON without rehydrating every
# candidate).  Lower is better for all of them.
OBJECTIVES: Dict[str, Callable[[dict], float]] = {
    "links": lambda design: float(len(design["links"])),
    "switches": lambda design: float(design["num_switches"]),
    "avg-hops": lambda design: (
        sum(len(route[2]) - 1 for route in design["routes"]) / len(design["routes"])
        if design["routes"]
        else 0.0
    ),
}


@dataclass(frozen=True)
class PortfolioConfig:
    """Shape of one synthesis portfolio.

    Attributes:
        size: number of seeds; seed ``i`` of the grid is
            ``seed_base + i``.
        seed_base: first seed of the grid.
        schedules: annealing schedules crossed with every seed
            (``None`` entries run the Appendix's greedy walk only), so
            the portfolio has ``size * len(schedules)`` runs.
        objective: key into :data:`OBJECTIVES` ranking the candidates.
    """

    size: int = 8
    seed_base: int = 0
    schedules: Tuple[Optional[AnnealSchedule], ...] = (None,)
    objective: str = "links"

    def __post_init__(self) -> None:
        if self.size < 1:
            raise SynthesisError(f"portfolio needs at least one seed, got {self.size}")
        if not self.schedules:
            raise SynthesisError("portfolio needs at least one schedule (None is one)")
        if self.objective not in OBJECTIVES:
            raise SynthesisError(
                f"unknown objective {self.objective!r}; "
                f"choose from {sorted(OBJECTIVES)}"
            )


@dataclass(frozen=True)
class PortfolioRun:
    """Outcome summary of one (seed, schedule) cell of the portfolio."""

    label: str
    seed: int
    schedule_index: int
    status: str  # "ok" | "infeasible"
    cache_hit: bool
    seconds: float
    objective: Optional[float] = None
    links: Optional[int] = None
    switches: Optional[int] = None
    contention_free: Optional[bool] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class PortfolioResult:
    """A selected winner plus the full per-run record."""

    design: GeneratedDesign
    winner: PortfolioRun
    runs: Tuple[PortfolioRun, ...]
    objective: str

    def summary_dict(self) -> dict:
        """Deterministic summary (no timings, no cache state) — the
        byte-identity surface the portfolio determinism tests pin."""
        return {
            "objective": self.objective,
            "winner": {
                "seed": self.winner.seed,
                "schedule_index": self.winner.schedule_index,
                "objective": self.winner.objective,
                "links": self.winner.links,
                "switches": self.winner.switches,
            },
            "runs": [
                {
                    "seed": run.seed,
                    "schedule_index": run.schedule_index,
                    "status": run.status,
                    "objective": run.objective,
                    "links": run.links,
                    "switches": run.switches,
                }
                for run in self.runs
            ],
        }

    def render(self) -> str:
        """Human-readable per-run table for the CLI."""
        header = f"{'run':<24} {'status':<10} {'objective':>9} {'links':>5} {'sw':>3} {'time':>8}"
        lines = [header, "-" * len(header)]
        for run in self.runs:
            timing = "cached" if run.cache_hit else f"{run.seconds:.2f}s"
            obj = f"{run.objective:.2f}" if run.objective is not None else "-"
            links = str(run.links) if run.links is not None else "-"
            switches = str(run.switches) if run.switches is not None else "-"
            marker = " *" if run is self.winner else ""
            lines.append(
                f"{run.label:<24} {run.status:<10} {obj:>9} {links:>5} "
                f"{switches:>3} {timing:>8}{marker}"
            )
        return "\n".join(lines)


def portfolio_cells(
    pattern: CommunicationPattern,
    constraints: Optional[DesignConstraints],
    config: PortfolioConfig,
) -> List[SynthesisCell]:
    """The seed-major (seed x schedule) cell grid of one portfolio."""
    cells = []
    for i in range(config.size):
        seed = config.seed_base + i
        for j, schedule in enumerate(config.schedules):
            suffix = f"/g{j}" if len(config.schedules) > 1 else ""
            cells.append(
                SynthesisCell(
                    label=f"synth:{pattern.name}:s{seed}{suffix}",
                    pattern=pattern,
                    seed=seed,
                    constraints=constraints,
                    schedule=schedule,
                )
            )
    return cells


def _summarize(
    cell: SynthesisCell,
    outcome: CellOutcome,
    schedule_index: int,
    objective: Callable[[dict], float],
) -> PortfolioRun:
    payload = outcome.payload
    if payload.get("status") != "ok":
        return PortfolioRun(
            label=cell.label,
            seed=cell.seed,
            schedule_index=schedule_index,
            status="infeasible",
            cache_hit=outcome.cache_hit,
            seconds=outcome.seconds,
            error=payload.get("error"),
        )
    design = payload["design"]
    return PortfolioRun(
        label=cell.label,
        seed=cell.seed,
        schedule_index=schedule_index,
        status="ok",
        cache_hit=outcome.cache_hit,
        seconds=outcome.seconds,
        objective=objective(design),
        links=len(design["links"]),
        switches=design["num_switches"],
        contention_free=design["certificate"]["contention_free"],
    )


def synthesize_portfolio(
    pattern: CommunicationPattern,
    constraints: Optional[DesignConstraints] = None,
    config: Optional[PortfolioConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressCallback] = None,
    obs: Optional[Observability] = None,
) -> PortfolioResult:
    """Fan a portfolio of seeded synthesis runs and pick the winner.

    Every (seed, schedule) run is one cached :class:`SynthesisCell`;
    ``jobs``/``cache`` behave exactly as in
    :func:`repro.eval.parallel.run_cells`.  The winner minimizes
    ``(objective, links, seed, cell index)`` over the successful runs
    and is rehydrated from its serialized payload, making the result
    byte-identical across ``jobs`` values and cache states.  Raises
    :class:`SynthesisError` when every run failed the constraints.
    """
    obs = obs if obs is not None else DISABLED
    config = config or PortfolioConfig()
    objective = OBJECTIVES[config.objective]
    cells = portfolio_cells(pattern, constraints, config)
    with obs.tracer.span(
        "portfolio.run",
        pattern=pattern.name,
        runs=len(cells),
        objective=config.objective,
    ):
        executed = run_cells(cells, jobs=jobs, cache=cache, progress=progress, obs=obs)
    schedules = len(config.schedules)
    runs = tuple(
        _summarize(cell, outcome, i % schedules, objective)
        for i, (cell, outcome) in enumerate(zip(cells, executed))
    )
    ranked = [
        (run.objective, run.links, run.seed, i)
        for i, run in enumerate(runs)
        if run.status == "ok" and run.objective is not None and run.links is not None
    ]
    if obs.metrics.enabled:
        m = obs.metrics
        m.counter("portfolio.runs").inc(len(runs))
        m.counter("portfolio.cache_hits").inc(sum(1 for r in runs if r.cache_hit))
        m.counter("portfolio.infeasible").inc(
            sum(1 for r in runs if r.status == "infeasible")
        )
    if not ranked:
        errors = [f"{run.label}: {run.error}" for run in runs if run.error]
        raise SynthesisError(
            f"portfolio: all {len(runs)} runs failed the design constraints:\n  "
            + "\n  ".join(errors)
        )
    _, _, _, winner_index = min(ranked)
    winner = runs[winner_index]
    design = design_from_dict(executed[winner_index].payload["design"], pattern)
    if obs.metrics.enabled:
        m = obs.metrics
        m.gauge("portfolio.winner_seed").set(winner.seed)
        if winner.objective is not None:
            m.gauge("portfolio.winner_objective").set(winner.objective)
        m.gauge("portfolio.winner_links").set(design.num_links)
    return PortfolioResult(
        design=design,
        winner=winner,
        runs=runs,
        objective=config.objective,
    )
