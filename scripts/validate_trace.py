#!/usr/bin/env python
"""Validate observability artifacts produced by ``repro profile``.

Usage:
    PYTHONPATH=src python scripts/validate_trace.py TRACE.json [METRICS.json]

Checks the Chrome-trace export against the schema expected by
``chrome://tracing``/Perfetto (via ``repro.obs.validate_chrome_trace``)
and, when a metrics snapshot is given, that every mandatory counter is
present and non-negative.  Exits non-zero on any problem; CI runs this on a
tiny cg-8 profile for every push (see ``.github/workflows/ci.yml``).
"""

import json
import sys

from repro.obs import MANDATORY_COUNTERS, validate_chrome_trace


def check_trace(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        trace = json.load(fh)
    problems = [f"{path}: {p}" for p in validate_chrome_trace(trace)]
    if not problems:
        events = trace["traceEvents"]
        spans = sum(1 for e in events if e.get("ph") == "X")
        if spans == 0:
            problems.append(f"{path}: trace contains no complete (X) spans")
        else:
            print(f"{path}: OK ({len(events)} events, {spans} spans)")
    return problems


def check_metrics(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        snapshot = json.load(fh)
    counters = snapshot.get("counters")
    if not isinstance(counters, dict):
        return [f"{path}: no counters section"]
    problems = []
    for name in MANDATORY_COUNTERS:
        value = counters.get(name)
        # Presence is the contract; zero is a legitimate value (e.g. a
        # pattern that Best_Route never needs to re-route).
        if not isinstance(value, int) or value < 0:
            problems.append(f"{path}: mandatory counter {name} = {value!r}")
    if not problems:
        print(f"{path}: OK ({len(MANDATORY_COUNTERS)} mandatory counters)")
    return problems


def main(argv) -> int:
    if not 2 <= len(argv) <= 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = check_trace(argv[1])
    if len(argv) == 3:
        problems += check_metrics(argv[2])
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
