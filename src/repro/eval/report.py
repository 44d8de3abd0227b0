"""ASCII tables in the shape of the paper's figures."""

from __future__ import annotations

from typing import List, Sequence

from repro.eval.experiments import CrossWorkloadRow, Figure7Row, Figure8Row
from repro.eval.resilience import ResilienceReport


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows])


def figure7_table(rows: List[Figure7Row], title: str) -> str:
    """Resources normalized to the mesh (mesh = 1.00 by definition)."""
    body = [
        [
            r.benchmark,
            f"{r.generated_switch_ratio:.2f}",
            f"{r.generated_link_ratio:.2f}",
            f"{r.torus_switch_ratio:.2f}",
            f"{r.torus_link_ratio:.2f}",
            f"{r.num_switches}",
            f"{r.num_links}",
        ]
        for r in rows
    ]
    headers = [
        "benchmark",
        "gen switch",
        "gen link",
        "torus switch",
        "torus link",
        "#sw",
        "#links",
    ]
    return f"{title}\n" + _table(headers, body)


def figure8_table(rows: List[Figure8Row], title: str) -> str:
    """Execution/communication time normalized to the crossbar."""
    body = [
        [
            r.benchmark,
            r.topology,
            f"{r.execution_ratio:.3f}",
            f"{r.communication_ratio:.3f}",
            f"{r.deadlocks}",
        ]
        for r in rows
    ]
    headers = ["benchmark", "topology", "exec/xbar", "comm/xbar", "deadlocks"]
    return f"{title}\n" + _table(headers, body)


def cross_workload_table(rows: List[CrossWorkloadRow], title: str) -> str:
    body = [
        [
            r.guest,
            r.network,
            f"{r.execution_cycles}",
            f"{100 * r.degradation_vs_own:+.1f}%",
        ]
        for r in rows
    ]
    headers = ["guest", "network", "exec cycles", "vs own net"]
    return f"{title}\n" + _table(headers, body)


def resilience_table(report: ResilienceReport, title: str) -> str:
    """Per-scenario degradation plus the aggregate summary line.

    Baseline is the fault-free run; "infl" is execution time over it.
    Disconnected scenarios show the deliverable-message fraction and no
    timing (the program cannot finish on a partitioned network).
    """
    body = []
    for o in report.outcomes:
        body.append(
            [
                o.scenario.name,
                o.status,
                "-" if o.execution_cycles is None else f"{o.execution_cycles}",
                "-" if o.inflation is None else f"{o.inflation:.3f}",
                f"{100 * o.delivered_fraction:.0f}%",
                f"{o.rerouted_pairs}",
                f"{o.disconnected_pairs}",
                f"{o.retransmissions}",
                "-" if o.disconnected else f"{o.p99}",
            ]
        )
    headers = [
        "scenario",
        "status",
        "exec",
        "infl",
        "delivered",
        "rerouted",
        "cut pairs",
        "retrans",
        "p99 lat",
    ]
    baseline_line = (
        f"fault-free baseline: {report.baseline.execution_cycles} cycles, "
        f"p50/p95/p99 latency {report.baseline.p50_packet_latency}/"
        f"{report.baseline.p95_packet_latency}/{report.baseline.p99_packet_latency}"
    )
    return "\n".join(
        [f"{title}", baseline_line, _table(headers, body), report.summary()]
    )
