"""Benchmark harness: the paper's design flow, timed end to end and per layer.

Usage::

    python3 bench/run.py --workload design-flow --seed 0 --seconds 25 --trace 0

Workloads (see ``bench/README.md`` for why each was chosen):

* ``design-flow`` — synthesize, floorplan, measure and certify seven
  paper designs (one op per design);
* ``figure8-cold`` — ``figure8_rows("small")`` against an empty result
  cache (one op per simulation cell);
* ``saturation-sweep`` — three open-loop saturation sweeps (one op per
  curve);
* ``warm-replay`` — rounds of Figure 8 + a synthesis portfolio + a sweep,
  every cell a cache hit, fanned over at most two workers (one op per
  round).

Each pass runs in a fresh interpreter (``bench/passes.py``); passes
repeat until ``--seconds`` would be exceeded (at least one; with
``--trace 1``, one untraced and one traced).  Outputs are checked
against ``bench/expected.json`` and the workload's invariants; the last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` holding every end-to-end metric of
``BENCHMARK.json`` (``--trace 0``) or every per-layer one (``--trace 1``).
The exit code is 0 only when every op passed its checks.

Cache directories are created under the checkout and removed at exit;
nothing outside it is read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from metrics import failed_frac, tail_percentile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
WORKLOADS = ("design-flow", "figure8-cold", "saturation-sweep", "warm-replay")

#: Rounds per warm-replay pass (~3 s at ~0.1 s a round).
WARM_ROUNDS = 30

#: A run must exit within 180 s; passes stop being started, and a
#: running pass is killed, this long after the run began.
RUN_LIMIT_S = 170.0


def provenance(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    return {
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit or "unknown",
    }


def spawn(spec: dict, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    spawned_at = time.time()
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "passes.py"), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise SystemExit(f"{spec['workload']} pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_first_op"] - spawned_at
    result["process_s"] = time.perf_counter() - started
    result["traced"] = spec["traced"]
    result["trace_path"] = spec.get("trace_path")
    return result


def run_passes(workload: str, args, tmp: str) -> tuple:
    """The fill (warm-replay only) and every measured pass of one run."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    base = {"workload": workload, "seed": args.seed}
    fill = None
    if workload == "warm-replay":
        base["cache_dir"] = tempfile.mkdtemp(prefix="cache-", dir=tmp)
        base["rounds"] = WARM_ROUNDS
        # One untimed cold round fills the cache every measured pass reads.
        fill = spawn(dict(base, traced=False, rounds=1), deadline)
    passes: List[dict] = []
    started = time.perf_counter()
    while True:
        # Alternate untraced and traced passes, untraced first.
        traced = bool(args.trace) and len(passes) % 2 == 1
        spec = dict(base, traced=traced)
        if workload == "figure8-cold":
            spec["cache_dir"] = tempfile.mkdtemp(prefix="cache-", dir=tmp)
        if traced:
            spec["trace_path"] = os.path.join(tmp, f"trace-{len(passes)}.json")
        passes.append(spawn(spec, deadline))
        enough = not args.trace or len(passes) >= 2
        typical = statistics.median(p["process_s"] for p in passes)
        if enough and (
            time.perf_counter() - started + typical > args.seconds
            or time.perf_counter() + typical > deadline
        ):
            return fill, passes


def check(workload: str, seed: int, fill: Optional[dict], passes: List[dict]) -> None:
    """Append a failure to every op whose output is not the expected one."""
    expected = json.loads(EXPECTED.read_text()).get(str(seed), {}).get(workload)
    for p in passes:
        summary_ok = expected is None or p["summary"] == expected["summary"]
        for op in p["ops"]:
            if not summary_ok:
                op["failures"].append("summary differs from expected.json")
            if expected is not None and op.get("output") != expected["ops"].get(op["key"]):
                op["failures"].append("output differs from expected.json")
            if fill is not None and op.get("output") != fill["ops"][0]["output"]:
                op["failures"].append("round differs from the cold fill")


def record(workload: str, seed: int, passes: List[dict]) -> None:
    """Store this run's outputs as the expected ones for (seed, workload)."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    first = passes[0]
    expected.setdefault(str(seed), {})[workload] = {
        "summary": first["summary"],
        "ops": {op["key"]: op["output"] for op in first["ops"]},
    }
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def peak_rss_mb() -> float:
    """Largest resident set of the harness or any process it waited for."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def end_to_end(passes: List[dict]) -> Dict[str, float]:
    op_seconds = [op["seconds"] for p in passes for op in p["ops"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(op_seconds),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(fill: Optional[dict], passes: List[dict], trace_out: Optional[str]) -> Dict[str, float]:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs import validate_chrome_trace

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    merged: List[dict] = []
    for i, p in enumerate(traced):
        trace = json.loads(Path(p["trace_path"]).read_text())
        problems = validate_chrome_trace(trace)
        if problems:
            raise SystemExit(f"invalid Chrome trace {p['trace_path']}: {problems[:3]}")
        merged += [dict(e, pid=i) for e in trace["traceEvents"]]
    if trace_out:
        Path(trace_out).write_text(json.dumps({"traceEvents": merged, "displayTimeUnit": "ms"}))
    layers = {
        name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
    }
    layers["eval.fill_s"] = fill["wall_s"] if fill else 0.0
    layers["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced)
        - 1.0
    )
    return layers


def run_workload(workload: str, args, declared: dict) -> bool:
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        fill, passes = run_passes(workload, args, tmp)
        if args.record_expected:
            record(workload, args.seed, passes)
        check(workload, args.seed, fill, passes)
        values = per_layer(fill, passes, args.trace_out) if args.trace else end_to_end(passes)

    ops = [op for p in passes for op in p["ops"]]
    failed = sum(1 for op in ops if op["failures"])
    for op in ops:
        for why in op["failures"]:
            print(f"FAILED {workload} {op['id']}: {why}")
    missing = set(declared) - set(values)
    if missing:
        raise SystemExit(f"{workload}: no value for declared metrics {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    tail = tail_percentile([op["seconds"] for op in ops])
    report = {
        "workload": workload,
        "provenance": provenance(args.seed),
        "passes": len(passes),
        "failed_frac": failed_frac(failed, len(ops)),
        "op_tail": {"percentile": tail[0], "seconds": tail[1]} if tail else None,
        "quality": passes[0]["summary"],
        "metrics": metrics,
    }
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(dict(report, pass_results=passes), indent=1) + "\n")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
        )
    )
    return failed == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four, in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced passes' Chrome trace here")
    parser.add_argument("--out", help="write the full report (every pass) as JSON here")
    parser.add_argument(
        "--record-expected",
        action="store_true",
        help="store this run's outputs in bench/expected.json for this seed",
    )
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ok = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        ok = run_workload(workload, args, declared) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
