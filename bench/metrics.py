"""Metric arithmetic of the benchmark harness.

Pure functions over plain numbers and span dictionaries, so
``bench/test_metrics.py`` can check them on synthetic inputs without
running a workload.  Nothing here imports :mod:`repro`.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only where at least this many samples
#: lie beyond it; fewer make the tail a single unlucky sample.
MIN_BEYOND = 10


def tail_percentile(
    values: Sequence[float], min_beyond: int = MIN_BEYOND
) -> Optional[Tuple[float, float]]:
    """The highest nearest-rank percentile with ``min_beyond`` samples above it.

    Returns ``(percentile, value)``, or ``None`` when there are too few
    samples for any percentile to have ``min_beyond`` beyond it.  With
    100 samples this is the 90th percentile; with 120, the 90.83rd.
    """
    ordered = sorted(values)
    index = len(ordered) - 1 - min_beyond
    if index < 0:
        return None
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def self_times(spans: Sequence[dict]) -> List[float]:
    """Self time of each span: its duration minus its direct children's.

    Spans are :class:`repro.obs.Tracer` span events (``start_s``,
    ``dur_s``, ``depth``), in any order.  A span's parent is the nearest
    earlier-starting open span one level shallower, which is how the
    tracer's depth stack nested them.  Returns self times aligned with
    ``spans``.
    """
    order = sorted(range(len(spans)), key=lambda i: (spans[i]["start_s"], spans[i]["depth"]))
    own = [float(s["dur_s"]) for s in spans]
    stack: List[int] = []
    for i in order:
        depth = spans[i]["depth"]
        while stack and spans[stack[-1]]["depth"] >= depth:
            stack.pop()
        if stack and spans[stack[-1]]["depth"] == depth - 1:
            own[stack[-1]] -= spans[i]["dur_s"]
        stack.append(i)
    return own


def self_time_by_name(spans: Sequence[dict]) -> Dict[str, float]:
    """Total self time per span name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError(f"geomean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def dispatch_estimate(wall_s: float, cell_seconds: Sequence[float], workers: int) -> float:
    """Pool spawn plus IPC time of one ``run_cells`` call.

    The cells' own time (``CellOutcome.seconds``) spread over the
    workers that ran them is the least wall time the call could take;
    the rest is spent starting workers and moving cells and payloads.
    """
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    return max(0.0, wall_s - sum(cell_seconds) / workers)


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
