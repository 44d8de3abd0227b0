"""ASCII visualization helpers.

Everything here renders to plain text so the library stays
dependency-free: pattern timelines in the style of the paper's
Figure 1 and source x destination traffic matrices, the two views
``repro inspect`` prints.
"""

from __future__ import annotations

from typing import Dict

from repro.model.cliques import contention_periods
from repro.model.pattern import CommunicationPattern


def render_pattern_timeline(
    pattern: CommunicationPattern, width: int = 60, max_rows: int = 40
) -> str:
    """A Figure 1-style timeline: one row per message, bars over time.

    Rows beyond ``max_rows`` are summarized (pattern timelines of real
    applications can run to thousands of messages).
    """
    if not pattern.messages:
        return "(empty pattern)"
    t_lo, t_hi = pattern.time_span
    span = max(t_hi - t_lo, 1e-9)

    def col(t: float) -> int:
        return min(width - 1, int((t - t_lo) / span * (width - 1)))

    msgs = pattern.sorted_by_start()
    lines = [f"pattern {pattern.name}: {len(msgs)} messages over [{t_lo:g}, {t_hi:g}]"]
    for m in msgs[:max_rows]:
        lo, hi = col(m.t_start), col(m.t_finish)
        bar = " " * lo + "#" * max(1, hi - lo + 1)
        lines.append(f"{str(m.communication):>9} |{bar.ljust(width)}|")
    if len(msgs) > max_rows:
        lines.append(f"... {len(msgs) - max_rows} more messages")
    periods = contention_periods(pattern)
    lines.append(f"{len(periods)} contention periods")
    return "\n".join(lines)


def render_comm_matrix(pattern: CommunicationPattern) -> str:
    """Source x destination traffic matrix (message counts)."""
    n = pattern.num_processes
    counts: Dict[tuple, int] = {}
    for m in pattern.messages:
        counts[(m.source, m.dest)] = counts.get((m.source, m.dest), 0) + 1
    head = "     " + " ".join(f"{d:>3}" for d in range(n))
    lines = [head]
    for s in range(n):
        row = " ".join(
            f"{counts.get((s, d), 0) or '.':>3}" for d in range(n)
        )
        lines.append(f"{s:>3}  {row}")
    return "\n".join(lines)
