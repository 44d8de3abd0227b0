#!/usr/bin/env python
"""Write schema-versioned benchmark snapshots (``BENCH_*.json``).

Measures the hot paths the repo pins — synthesis (cg-16 annealed
partitioning plus portfolio fan-outs at 16 and 64 nodes, serial vs
fanned and cold vs warm cache), the flit-level simulator (trace replay
plus the idle-heavy NIC-wake workload), and the saturation-sweep driver
(tornado + uniform knee searches on the 4x4 mesh, plus the batched
suite fan-out against per-pair sweeps on the robustness smoke grid) —
and writes
``BENCH_synthesis.json``, ``BENCH_simulator.json`` and
``BENCH_sweep.json``.

Each snapshot carries:

* ``calibration_s`` — the wall time of a fixed pure-Python loop on the
  measuring machine.  Per-case wall times are also stored as
  ``calibrated`` multiples of it, so a snapshot taken on a fast laptop
  and one taken on a loaded CI runner are comparable:
  ``check_bench_regression.py`` gates on the calibrated ratio, not raw
  seconds.
* ``deterministic`` fields per case — seeded result quantities (links,
  cycles, moves) that must match the committed baseline *exactly*; a
  mismatch means behavior changed, not performance.

Usage::

    PYTHONPATH=src python scripts/bench_snapshot.py [--out-dir DIR]
    PYTHONPATH=src python scripts/bench_snapshot.py --repeats 5
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SCHEMA_VERSION = 1


def _calibrate(repeats: int = 3) -> float:
    """Wall time of a fixed pure-Python workload (best of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_500_000):
            acc += (i * i) & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    assert acc >= 0
    return best


def _best_of(fn, repeats: int):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _synthesis_cases(repeats: int):
    from repro.model.cliques import CliqueAnalysis
    from repro.synthesis.annealing import AnnealSchedule
    from repro.synthesis.constraints import DesignConstraints
    from repro.synthesis.partition import Partitioner
    from repro.synthesis.portfolio import PortfolioConfig
    from repro.workloads.nas import benchmark as nas_benchmark

    analysis = CliqueAnalysis.of(nas_benchmark("cg", 16).pattern)

    def run():
        return Partitioner(
            analysis, constraints=DesignConstraints(), seed=0, anneal=True
        ).run()

    run()  # warm imports and caches outside the timed region
    wall, result = _best_of(run, max(repeats, 5))  # fast case: extra repeats are cheap
    cases = {
        "cg16-anneal-seed0": {
            "wall_s": round(wall, 6),
            "deterministic": {
                "total_links": result.total_links(),
                "bisections": result.bisections,
                "route_moves": result.route_moves,
                "processor_moves": result.processor_moves,
                "switches": len(result.state.switch_procs),
            },
        }
    }

    # Portfolio cases: serial (jobs=1) vs fanned (jobs=2), each run cold
    # against a fresh cache and again warm against its own.  The winner's
    # deterministic fields and the full summary+design byte identity are
    # pinned across all four variants — the portfolio's core contract.
    cg16 = nas_benchmark("cg", 16).pattern
    cases["cg16-portfolio-k4"] = _portfolio_case(
        cg16, DesignConstraints(), PortfolioConfig(size=4)
    )
    cases["cg16-portfolio-grid"] = _portfolio_case(
        cg16,
        DesignConstraints(),
        PortfolioConfig(
            size=2,
            schedules=(None, AnnealSchedule(steps=400, moves_per_temperature=10)),
        ),
    )
    # The scaled-NAS corpus (workloads.nas.scaled_suite): cg at 64 nodes
    # is infeasible at the paper's degree-5 bound, so the 64-node bench
    # runs at max_degree=8 where seeds 0 and 1 both succeed.
    cases["cg64-portfolio-k2"] = _portfolio_case(
        nas_benchmark("cg", 64).pattern,
        DesignConstraints(max_degree=8),
        PortfolioConfig(size=2),
    )
    return cases


def _portfolio_case(pattern, constraints, config):
    """Time one synthesis portfolio serial vs fanned, cold vs warm.

    Four variants: serial (``jobs=1``) and fanned (``jobs=2``), each
    cold against a fresh content-addressed cache and then warm against
    its own.  ``fanned_speedup`` is the cold ratio — real compute
    parallelism, so it grows with core count and is ~1 on a single-core
    runner; the warm ratio is also recorded and is ~1 everywhere
    (pure cache hits).  ``byte_identical`` pins the portfolio's
    determinism contract: the summary and the rehydrated winner design
    serialize identically across jobs values and cache states.
    """
    import hashlib
    import shutil
    import tempfile

    from repro.eval.parallel import ResultCache
    from repro.eval.serialize import canonical_json, design_to_dict
    from repro.synthesis.portfolio import synthesize_portfolio

    def identity(result):
        return canonical_json(
            {
                "summary": result.summary_dict(),
                "design": design_to_dict(result.design),
            }
        )

    tmp = tempfile.mkdtemp(prefix="bench-portfolio-")
    try:
        serial_cache = ResultCache(Path(tmp) / "serial")
        fanned_cache = ResultCache(Path(tmp) / "fanned")

        def run(jobs, cache):
            return synthesize_portfolio(
                pattern, constraints=constraints, config=config,
                jobs=jobs, cache=cache,
            )

        walls = {}
        t0 = time.perf_counter()
        serial = run(1, serial_cache)
        walls["cold_serial"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_serial = run(1, serial_cache)
        walls["warm_serial"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        fanned = run(2, fanned_cache)
        walls["cold_fanned"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm_fanned = run(2, fanned_cache)
        walls["warm_fanned"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    text = identity(fanned)
    return {
        "wall_s": round(walls["cold_fanned"], 6),
        "wall_serial_s": round(walls["cold_serial"], 6),
        "wall_warm_s": round(walls["warm_fanned"], 6),
        "wall_warm_serial_s": round(walls["warm_serial"], 6),
        "fanned_speedup": round(walls["cold_serial"] / walls["cold_fanned"], 4),
        "fanned_speedup_warm": round(
            walls["warm_serial"] / walls["warm_fanned"], 4
        ),
        "deterministic": {
            "winner_seed": fanned.winner.seed,
            "winner_objective": fanned.winner.objective,
            "winner_links": fanned.winner.links,
            "winner_switches": fanned.winner.switches,
            "feasible_runs": sum(1 for r in fanned.runs if r.status == "ok"),
            "runs": len(fanned.runs),
            "byte_identical": (
                identity(serial) == text
                and identity(warm_serial) == text
                and identity(warm_fanned) == text
            ),
            "result_sha256": hashlib.sha256(text.encode()).hexdigest(),
        },
    }


def _simulator_cases(repeats: int):
    from repro.simulator import SimConfig, simulate
    from repro.topology import mesh, torus
    from repro.workloads.events import Program, RecvEvent, SendEvent
    from repro.workloads.nas import benchmark as nas_benchmark

    cases = {}

    def record(name, program, topology):
        def run():
            return simulate(program, topology, SimConfig(max_cycles=5_000_000))

        run()
        wall, r = _best_of(run, repeats)
        cases[name] = {
            "wall_s": round(wall, 6),
            "deterministic": {
                "execution_cycles": r.execution_cycles,
                "delivered_packets": r.delivered_packets,
                "flit_hops": r.flit_hops,
                "deadlocks_detected": r.deadlocks_detected,
                "retransmissions": r.retransmissions,
            },
        }

    record("cg8-mesh4x2", nas_benchmark("cg", 8).program, mesh(4, 2))
    record("mg8-torus4x2", nas_benchmark("mg", 8).program, torus(4, 2))

    # Idle-heavy: a neighbour stream on a 256-node mesh — 254 NICs idle
    # every cycle; pins the event-driven NIC wake lists.
    n, messages = 256, 2000
    events = [()] * n
    events[0] = tuple(SendEvent(dest=1, size_bytes=64) for _ in range(messages))
    events[1] = tuple(RecvEvent(source=0) for _ in range(messages))
    idle = Program(name="idle-heavy", num_processes=n, events=tuple(events))
    record("idle-heavy-mesh16x16", idle, mesh(16, 16))
    return cases


def _sweep_cases(repeats: int):
    from repro.sweeps import SweepConfig, run_sweep
    from repro.topology import mesh

    topology = mesh(4, 4)
    sweep = SweepConfig(
        initial_points=4,
        refine_iters=3,
        warmup_cycles=200,
        measure_cycles=800,
        drain_cycles=800,
    )

    cases = {}
    for pattern in ("tornado", "uniform"):
        def run(pattern=pattern):
            return run_sweep(topology, pattern, sweep=sweep)

        run()
        wall, curve = _best_of(run, repeats)
        cases[f"mesh4x4-{pattern}"] = {
            "wall_s": round(wall, 6),
            "deterministic": {
                "points": len(curve.points),
                "saturated": curve.saturated,
                "saturation_rate": curve.saturation_rate,
                "saturation_throughput": curve.saturation_throughput,
                "delivered_total": sum(p.delivered for p in curve.points),
                "p50_latency_sum": sum(p.p50_latency for p in curve.points),
                "p95_latency_sum": sum(p.p95_latency for p in curve.points),
                "p99_latency_max": max(p.p99_latency for p in curve.points),
            },
        }
    cases["suite-fanout-smoke"] = _sweep_fanout_case()
    return cases


def _sweep_fanout_case():
    """Suite-level fan-out: the batched grid vs per-pair sweeps.

    Times the nightly robustness ``--smoke`` grid (cg at 8 nodes, four
    topologies, nine patterns) two ways with ``jobs=2``: through
    :func:`run_sweep_suite`'s single batched ``run_cells`` call, and
    through the pre-batching reference path — one :func:`run_sweep`
    per (topology, pattern) pair — each cold and again against its own
    warm cache.  ``fanout_speedup`` is the warm-cache re-run ratio; it
    tends to ~1 because ``run_cells`` answers cache hits without a
    worker pool on either path.  The cold ratio is also recorded; it
    grows with core count (per-pair sweeps stall the pool on each
    pair's slowest cell) and is ~1 on a single-core runner.
    """
    import hashlib
    import shutil
    import tempfile

    from repro.eval.parallel import ResultCache
    from repro.sweeps import SweepResult, run_sweep, run_sweep_suite, study_topology

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from robustness_study import STUDY_PATTERNS, STUDY_TOPOLOGIES, _sweep_config

    sweep = _sweep_config(smoke=True, seed=0)
    rows = [
        study_topology(kind, 8, benchmark="cg", seed=0)
        for kind in STUDY_TOPOLOGIES
    ]

    tmp = tempfile.mkdtemp(prefix="bench-fanout-")
    try:
        pair_cache = ResultCache(Path(tmp) / "per-pair")
        suite_cache = ResultCache(Path(tmp) / "batched")

        def per_pair():
            curves = []
            for top_label, topology, link_delays in rows:
                for pattern in STUDY_PATTERNS:
                    curve = run_sweep(
                        topology,
                        pattern,
                        sweep=sweep,
                        link_delays=link_delays,
                        jobs=2,
                        cache=pair_cache,
                        label=top_label,
                    )
                    curves.append((top_label, curve.pattern, curve))
            return SweepResult(label="bench-fanout", curves=tuple(curves))

        def batched():
            return run_sweep_suite(
                rows,
                STUDY_PATTERNS,
                sweep=sweep,
                jobs=2,
                cache=suite_cache,
                label="bench-fanout",
            )

        walls = {}
        t0 = time.perf_counter()
        reference = per_pair()
        walls["cold_per_pair"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        per_pair()
        walls["warm_per_pair"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = batched()
        walls["cold_batched"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        batched()
        walls["warm_batched"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    text = result.to_json()
    return {
        "wall_s": round(walls["cold_batched"], 6),
        "wall_per_pair_s": round(walls["cold_per_pair"], 6),
        "wall_warm_s": round(walls["warm_batched"], 6),
        "wall_warm_per_pair_s": round(walls["warm_per_pair"], 6),
        "fanout_speedup": round(walls["warm_per_pair"] / walls["warm_batched"], 4),
        "fanout_speedup_cold": round(
            walls["cold_per_pair"] / walls["cold_batched"], 4
        ),
        "deterministic": {
            "pairs": len(result.curves),
            "byte_identical": reference.to_json() == text,
            "result_sha256": hashlib.sha256(text.encode()).hexdigest(),
        },
    }


def _snapshot(kind: str, cases: dict, calibration_s: float) -> dict:
    for case in cases.values():
        case["calibrated"] = round(case["wall_s"] / calibration_s, 4)
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "calibration_s": round(calibration_s, 6),
        "cases": cases,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir", default=".", help="directory for the BENCH_*.json files"
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="best-of repeats per timed case (default 3)",
    )
    parser.add_argument(
        "--only", choices=("synthesis", "simulator", "sweep"),
        help="write just one snapshot",
    )
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Sample the calibration loop before and after every build and keep
    # the minimum: a load spike that slows a case also slows at least
    # one adjacent calibration sample less than it would need to, so
    # using the best sample keeps calibrated ratios conservative.
    calibration = _calibrate()
    print(f"calibration loop: {calibration * 1e3:.1f} ms", flush=True)

    targets = {
        "synthesis": _synthesis_cases,
        "simulator": _simulator_cases,
        "sweep": _sweep_cases,
    }
    built = {}
    for kind, build in targets.items():
        if args.only and kind != args.only:
            continue
        built[kind] = build(args.repeats)
        calibration = min(calibration, _calibrate())

    for kind, cases in built.items():
        snapshot = _snapshot(kind, cases, calibration)
        path = out_dir / f"BENCH_{kind}.json"
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        for name, case in sorted(snapshot["cases"].items()):
            print(
                f"{kind}/{name}: {case['wall_s'] * 1e3:.1f} ms "
                f"({case['calibrated']:.2f}x calibration)",
                flush=True,
            )
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
