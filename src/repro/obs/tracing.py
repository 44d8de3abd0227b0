"""Structured span tracing with JSONL and Chrome-trace export.

A :class:`Tracer` records nested spans (wall-clock durations) and
instant events (simulated-cycle markers).  Spans nest via a stack, so
``repro profile`` can print an indented phase tree, and the whole trace
exports either as JSONL (one event per line, easy to grep) or as the
Chrome ``chrome://tracing`` / Perfetto JSON format.

Wall-clock data lives only in the dedicated ``ts``/``dur``/``start_s``
/``dur_s`` fields; everything else (names, simulated cycles, counts in
``args``) is deterministic.  Traces are observability artifacts — they
never feed result payloads or cache keys, so the determinism harness is
unaffected by tracing being on or off.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

# Chrome trace event phases used by the exporter.
_PHASE_SPAN = "X"  # complete event (ts + dur)
_PHASE_INSTANT = "i"  # instant event


class Tracer:
    """Records spans and instant events on one logical thread."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[dict] = []
        self._origin = time.perf_counter()
        self._depth = 0

    def _now(self) -> float:
        return time.perf_counter() - self._origin

    @contextmanager
    def span(self, name: str, **args) -> Iterator[None]:
        """Time a phase; nests with other spans opened inside it."""
        if not self.enabled:
            yield
            return
        start = self._now()
        depth = self._depth
        self._depth += 1
        try:
            yield
        finally:
            self._depth = depth
            end = self._now()
            self.events.append(
                {
                    "type": "span",
                    "name": name,
                    "depth": depth,
                    "start_s": start,
                    "dur_s": end - start,
                    "args": args,
                }
            )

    def complete(self, name: str, seconds: float, **args) -> None:
        """Record an already-timed span (e.g. a cell outcome whose
        duration was measured elsewhere) ending now."""
        if not self.enabled:
            return
        end = self._now()
        self.events.append(
            {
                "type": "span",
                "name": name,
                "depth": self._depth,
                "start_s": max(0.0, end - seconds),
                "dur_s": seconds,
                "args": args,
            }
        )

    def event(self, name: str, cycle: Optional[int] = None, **args) -> None:
        """Record an instant event, stamped with a simulated cycle."""
        if not self.enabled:
            return
        if cycle is not None:
            args = dict(args, cycle=cycle)
        self.events.append(
            {
                "type": "instant",
                "name": name,
                "depth": self._depth,
                "start_s": self._now(),
                "args": args,
            }
        )

    # -- queries -------------------------------------------------------

    def spans(self) -> List[dict]:
        return [e for e in self.events if e["type"] == "span"]

    def instants(self) -> List[dict]:
        return [e for e in self.events if e["type"] == "instant"]

    # -- export --------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line, in recording order."""
        return "\n".join(json.dumps(e, sort_keys=True) for e in self.events)

    def chrome_trace(self, process_name: str = "repro") -> dict:
        """The Chrome tracing JSON object (load via ``chrome://tracing``
        or https://ui.perfetto.dev)."""
        trace_events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": process_name},
            }
        ]
        for e in self.events:
            if e["type"] == "span":
                trace_events.append(
                    {
                        "name": e["name"],
                        "cat": e["name"].split(".", 1)[0],
                        "ph": _PHASE_SPAN,
                        "ts": e["start_s"] * 1e6,
                        "dur": e["dur_s"] * 1e6,
                        "pid": 0,
                        "tid": 0,
                        "args": e["args"],
                    }
                )
            else:
                trace_events.append(
                    {
                        "name": e["name"],
                        "cat": e["name"].split(".", 1)[0],
                        "ph": _PHASE_INSTANT,
                        "ts": e["start_s"] * 1e6,
                        "s": "g",
                        "pid": 0,
                        "tid": 0,
                        "args": e["args"],
                    }
                )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        """Write the trace to ``path``: JSONL when the name ends in
        ``.jsonl``, Chrome trace JSON otherwise."""
        with open(path, "w", encoding="utf-8") as fh:
            if path.endswith(".jsonl"):
                fh.write(self.to_jsonl())
                fh.write("\n")
            else:
                json.dump(self.chrome_trace(), fh, indent=2)
                fh.write("\n")


def validate_chrome_trace(trace: dict) -> List[str]:
    """Schema check of a Chrome-trace object; returns problem strings
    (empty when valid).  Used by tests and the CI smoke step."""
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be an object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            problems.append(f"event {i}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in e:
                problems.append(f"event {i}: missing {field!r}")
        ph = e.get("ph")
        if ph not in ("X", "i", "B", "E", "M", "C"):
            problems.append(f"event {i}: unknown phase {ph!r}")
        if ph in ("X", "i") and not isinstance(e.get("ts"), (int, float)):
            problems.append(f"event {i}: missing numeric ts")
        if ph == "X" and not isinstance(e.get("dur"), (int, float)):
            problems.append(f"event {i}: complete event missing numeric dur")
        if "args" in e and not isinstance(e["args"], dict):
            problems.append(f"event {i}: args must be an object")
    return problems


NULL_TRACER = Tracer(enabled=False)
