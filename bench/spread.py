"""Run-to-run spread of the end-to-end metrics: the two-set check.

Runs ``bench/run.py`` on every workload for ``--runs`` seeds, twice
(set A on seeds ``0..runs-1``, set B on the next ``runs`` seeds), with
the two sets interleaved so drift on the machine hits both alike.  For
each workload and end-to-end metric it prints both sets' medians, their
quartile spread (IQR over median) and the change of B's median against
A's, next to the metric's bound in ``BENCHMARK.json``.  A spread or
change above the bound is flagged ``!``; above a third of it, ``~``.

Usage::

    python3 bench/spread.py --runs 10 [--workload design-flow] [--out spread.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import quartile_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def measure(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def flag(value: float, bound: float) -> str:
    if value > bound:
        return "!"
    return "~" if value > bound / 3 else " "


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="also write every measured value here as JSON")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    values = {w: ([], []) for w in workloads}
    for i in range(args.runs):
        for s in (0, 1):
            for w in workloads:
                values[w][s].append(measure(w, i + s * args.runs, spec["run_seconds"]))
                print(f"set {'AB'[s]} run {i + 1}/{args.runs} {w}", file=sys.stderr, flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1) + "\n")
    print(f"{'workload':<17} {'metric':<12} {'median A':>10} {'median B':>10} "
          f"{'spread A':>9} {'spread B':>9} {'B vs A':>8} {'bound':>6}")
    for w in workloads:
        for m in spec["end_to_end"]:
            a = [v[m["name"]] for v in values[w][0]]
            b = [v[m["name"]] for v in values[w][1]]
            sa, sb = quartile_spread(a), quartile_spread(b)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            print(f"{w:<17} {m['name']:<12} {ma:>10.4g} {mb:>10.4g} "
                  f"{sa:>8.1%}{flag(sa, m['bound'])} {sb:>8.1%}{flag(sb, m['bound'])} "
                  f"{worse:>+7.1%}{flag(worse, m['bound'])} {m['bound']:>6.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
