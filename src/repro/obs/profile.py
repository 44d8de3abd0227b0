"""The ``repro profile`` report: one observed evaluation, summarized.

Runs one benchmark setup plus its per-topology simulations with a fully
enabled :class:`~repro.obs.Observability` bundle, then renders a
phase/time/counter breakdown.  Cells go through the parallel runner's
serial path so the cache phase is exercised (and counted) exactly like
a real evaluation run.

This module imports the eval layer, so it must never be imported from
``repro.obs.__init__`` — the CLI loads it lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.parallel import PerformanceCell, ResultCache, run_cells
from repro.eval.runner import TOPOLOGY_ORDER, prepare
from repro.obs import MANDATORY_COUNTERS, Observability, enabled_observability
from repro.simulator.config import SimConfig


@dataclass
class ProfileReport:
    """Everything one profiled run produced."""

    benchmark: str
    n: int
    seed: int
    obs: Observability
    outcomes: list

    def render(self) -> str:
        return render_report(self)


def run_profile(
    benchmark: str,
    n: int,
    seed: int = 0,
    restarts: int = 8,
    kinds: Sequence[str] = TOPOLOGY_ORDER,
    cache: Optional[ResultCache] = None,
    sample_every: int = 128,
) -> ProfileReport:
    """Run one benchmark end to end under full observability.

    The setup (synthesis + floorplan) and every simulation carry the
    same bundle, so the report covers the whole pipeline: setup spans,
    per-bisection synthesis spans, simulator counters, and the eval
    cache phase.  Cells run serially — observability cannot cross a
    process-pool boundary.
    """
    obs = enabled_observability(sample_every=sample_every)
    config = SimConfig()
    with obs.tracer.span("profile.setup", benchmark=benchmark, n=n):
        setup = prepare(benchmark, n, seed=seed, restarts=restarts, obs=obs)
    cells = [
        PerformanceCell(
            label=f"{benchmark}-{n}/{kind}",
            program=setup.benchmark.program,
            topology=setup.topology(kind),
            config=config,
            link_delays=setup.link_delays(kind),
        )
        for kind in kinds
    ]
    with obs.tracer.span("profile.simulate", cells=len(cells)):
        outcomes = run_cells(cells, jobs=None, cache=cache, obs=obs)
    return ProfileReport(
        benchmark=benchmark, n=n, seed=seed, obs=obs, outcomes=outcomes
    )


def _aggregate_spans(spans: List[dict]) -> List[Tuple[str, int, float]]:
    """(name, count, total seconds) per span name, by descending time."""
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        count, seconds = totals.get(span["name"], (0, 0.0))
        totals[span["name"]] = (count + 1, seconds + span["dur_s"])
    return sorted(
        ((name, c, s) for name, (c, s) in totals.items()),
        key=lambda row: (-row[2], row[0]),
    )


def render_report(report: ProfileReport) -> str:
    """Human-facing phase/time/counter breakdown table."""
    obs = report.obs
    lines: List[str] = [
        f"profile: {report.benchmark}-{report.n} (seed {report.seed})",
        "",
        f"{'phase':<40} {'count':>7} {'total':>10} {'mean':>10}",
    ]
    for name, count, seconds in _aggregate_spans(obs.tracer.spans()):
        lines.append(
            f"{name:<40} {count:>7} {seconds:>9.3f}s {seconds / count:>9.3f}s"
        )

    snapshot = obs.metrics.snapshot(include_wall=True)
    lines += ["", f"{'counter':<40} {'value':>10}"]
    for name, value in snapshot["counters"].items():
        lines.append(f"{name:<40} {value:>10}")
    # Mandatory counters appear even when zero this run, so a reader
    # scanning the table sees the full set.
    for name in MANDATORY_COUNTERS:
        if name not in snapshot["counters"]:
            lines.append(f"{name:<40} {0:>10}")

    if snapshot["gauges"]:
        lines += ["", f"{'gauge':<40} {'value':>10}"]
        for name, value in snapshot["gauges"].items():
            lines.append(f"{name:<40} {value:>10}")

    if snapshot["histograms"]:
        lines += [
            "",
            f"{'histogram':<40} {'count':>7} {'mean':>9} {'min':>7} {'max':>7}",
        ]
        for name, h in snapshot["histograms"].items():
            lines.append(
                f"{name:<40} {h['count']:>7} {h['mean']:>9.1f} "
                f"{h['min']:>7} {h['max']:>7}"
            )

    cells = [o for o in report.outcomes]
    if cells:
        lines += ["", f"{'cell':<40} {'status':>10} {'seconds':>10}"]
        for outcome in cells:
            status = "cached" if outcome.cache_hit else "computed"
            lines.append(
                f"{outcome.label:<40} {status:>10} {outcome.seconds:>9.3f}s"
            )
    return "\n".join(lines)
