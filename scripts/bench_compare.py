#!/usr/bin/env python3
"""Compare ``bench/`` timings of a parent checkout and this one.

Usage::

    python3 scripts/bench_compare.py --base DIR [--summary PATH]

``DIR`` is a checkout of the parent commit.  Every ``BENCHMARK.json``
workload runs ``PAIRS`` times in each checkout, the parent first on
even pairs.  Exit 1 when a run prints no result line, when a run here
reports ``"correct": false``, or on a resolved regression: an
end-to-end metric's median here is worse than the parent's by more
than its bound and every run here is worse than every parent run.
Worse medians whose runs overlap print as "unresolved" and pass.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Five pairs: on unchanged code, "every change run worse than every
#: parent run" on one metric has a chance of 1 in C(10, 5) = 252.
PAIRS = 5
#: One pass per run keeps all pairs of the four workloads near ten
#: minutes on a 2-vCPU runner.
SECONDS = 1


def run(command, checkout, workload, seed):
    """The parsed last stdout line of one ``bench/run.py`` run."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.exit(f"{checkout} {workload} seed {seed}: no result line\n{proc.stderr[-2000:]}")
    return result


def compare(base, change, bounds):
    """Decide from parsed runs, ``{workload: [result, ...]}`` per side.

    Returns ``(rows, problems)``: one ``(workload, metric, parent
    median, change median, verdict)`` row per workload and metric,
    verdict ``ok``, ``unresolved`` or ``regressed``; and the reasons to
    fail, if any.
    """
    rows, problems = [], []
    for workload, runs in change.items():
        if not all(r["correct"] for r in runs):
            problems.append(f"{workload}: a run reported correct: false")
        for metric, bound in bounds.items():
            b = [r["metrics"][metric]["value"] for r in base[workload]]
            c = [r["metrics"][metric]["value"] for r in runs]
            mb, mc = statistics.median(b), statistics.median(c)
            verdict = "ok"
            if mc > mb * (1 + bound):
                verdict = "regressed" if min(c) > max(b) else "unresolved"
            if verdict == "regressed":
                problems.append(f"{workload} {metric}: every run worse, median beyond {bound:.0%}")
            rows.append((workload, metric, mb, mc, verdict))
    return rows, problems


def table(rows):
    lines = [
        "| workload | metric | parent median | change median | delta | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for workload, metric, mb, mc, verdict in rows:
        delta = f"{mc / mb - 1:+.1%}" if mb else "n/a"
        lines.append(f"| {workload} | {metric} | {mb:.4g} | {mc:.4g} | {delta} | {verdict} |")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="checkout of the parent commit")
    parser.add_argument("--summary", help="append the table here as markdown")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if any(m["better"] != "lower" for m in spec["end_to_end"]):
        sys.exit("BENCHMARK.json: every end-to-end metric must be lower-is-better")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": Path(args.base).resolve(), "change": ROOT}
    runs = {side: {w: [] for w in workloads} for side in sides}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in workloads:
            for side in order:
                result = run(spec["command"], sides[side], workload, i)
                runs[side][workload].append(result)
                values = " ".join(f"{k} {m['value']:.4g}" for k, m in result["metrics"].items())
                print(f"pair {i} {workload} {side}: {values}", flush=True)
    rows, problems = compare(runs["parent"], runs["change"], bounds)
    text = table(rows)
    print(text)
    if args.summary:
        with open(args.summary, "a") as f:
            f.write(f"### bench/ parent vs change ({PAIRS} pairs)\n\n{text}\n")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
