#!/usr/bin/env python
"""Off-design robustness study: saturation sweeps across topologies.

The paper's generated networks are synthesized for one benchmark's
communication pattern.  This study asks how they hold up when the
traffic is *not* the one they were designed for: every topology
(generated, generated+one-spare-link-per-switch, mesh, torus) is swept
to saturation on the canonical synthetic suite (uniform, tornado,
transpose, bit permutations, hotspot, the routing-aware adversarial
permutation), and the resulting saturation throughputs are printed as
a degradation table relative to the mesh baseline.

Each pattern is resolved against the study topologies first: a pattern
whose node-count requirement the scale violates (``transpose`` at 8
nodes, say) would raise, so it is skipped and reported instead of
failing the whole grid.  Skipped patterns and their reasons are
printed and written into the ``--json`` artifact.

Full mode covers every NAS benchmark at 16 and 64 nodes (both valid
for every benchmark: powers of two for CG/FFT/MG, perfect squares for
BT/SP); ``--smoke`` runs one benchmark at its paper small size with
shortened sweep windows — the fast CI gate.  The nightly lane runs
full mode and uploads the ``--json`` artifact.

Usage::

    PYTHONPATH=src python scripts/robustness_study.py --smoke --jobs 0
    PYTHONPATH=src python scripts/robustness_study.py --benchmarks cg,mg \
        --nodes 16 --json study.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Sweep suite of the study — every non-parameterized family plus one
#: representative hotspot (node 0 drawing 60% of the traffic).
STUDY_PATTERNS = (
    "uniform",
    "neighbor",
    "tornado",
    "transpose",
    "bit_complement",
    "bit_reverse",
    "shuffle",
    "hotspot:0:0.6",
    "adversarial",
)

STUDY_TOPOLOGIES = ("generated", "generated-spare", "mesh", "torus")


def _sweep_config(smoke: bool, seed: int):
    from repro.sweeps import SweepConfig

    if smoke:
        return SweepConfig(
            initial_points=4,
            refine_iters=2,
            warmup_cycles=200,
            measure_cycles=600,
            drain_cycles=800,
            seed=seed,
        )
    return SweepConfig(seed=seed)


def split_patterns(patterns, rows):
    """Resolve every pattern against every study topology.

    Returns the runnable patterns, in order, and ``{pattern: reason}``
    for the ones some topology rejects.
    """
    from repro.errors import SimulationError
    from repro.sweeps import resolve_pattern

    runnable, skipped = [], {}
    for pattern in patterns:
        try:
            for _, topology, _ in rows:
                resolve_pattern(pattern, topology=topology)
        except SimulationError as exc:
            skipped[pattern] = str(exc)
        else:
            runnable.append(pattern)
    return tuple(runnable), skipped


def run_study(
    benchmark: str,
    nodes: int,
    patterns=STUDY_PATTERNS,
    topologies=STUDY_TOPOLOGIES,
    smoke: bool = False,
    seed: int = 0,
    jobs: int = 1,
    cache=None,
    progress=None,
):
    """One benchmark/scale cell of the study.

    Returns the ``SweepResult`` of the runnable patterns and the
    ``{pattern: reason}`` map of the skipped ones.
    """
    from repro.sweeps import run_sweep_suite, study_topology

    rows = [
        study_topology(kind, nodes, benchmark=benchmark, seed=seed)
        for kind in topologies
    ]
    runnable, skipped = split_patterns(patterns, rows)
    result = run_sweep_suite(
        rows,
        runnable,
        sweep=_sweep_config(smoke, seed),
        jobs=jobs,
        cache=cache,
        progress=progress,
        label=f"robustness-{benchmark}-{nodes}",
    )
    return result, skipped


def main() -> int:
    from repro.eval.parallel import DEFAULT_CACHE_DIR, ResultCache, print_progress
    from repro.sweeps import degradation_table
    from repro.workloads import BENCHMARK_NAMES, PAPER_LARGE_SIZE, PAPER_SMALL_SIZES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="one benchmark at small scale with short sweep windows",
    )
    parser.add_argument(
        "--benchmarks", default=None, metavar="LIST",
        help="comma-separated NAS benchmarks (default: all; smoke: cg)",
    )
    parser.add_argument(
        "--nodes", default=None, metavar="LIST",
        help="comma-separated node counts (default 16,64; smoke: the "
        "benchmark's paper small size)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes per sweep (1 = serial, 0 = all cores)",
    )
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--cache-dir", default=None, metavar="DIR")
    parser.add_argument("--progress", action="store_true")
    parser.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write every SweepResult as one canonical-JSON artifact",
    )
    args = parser.parse_args()

    benchmarks = tuple(
        b.strip() for b in args.benchmarks.split(",") if b.strip()
    ) if args.benchmarks else (("cg",) if args.smoke else BENCHMARK_NAMES)
    unknown = [b for b in benchmarks if b not in BENCHMARK_NAMES]
    if unknown:
        parser.error(f"unknown benchmarks {unknown}; choose from {BENCHMARK_NAMES}")
    if args.nodes:
        try:
            node_counts = tuple(
                int(n.strip()) for n in args.nodes.split(",") if n.strip()
            )
        except ValueError:
            parser.error(f"--nodes must be a comma-separated int list, got {args.nodes!r}")
        if not node_counts or any(n < 2 for n in node_counts):
            parser.error(f"--nodes needs counts >= 2, got {args.nodes!r}")
    else:
        node_counts = None  # smoke: per-benchmark small size; full: 16,64

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    progress = print_progress if args.progress else None

    artifacts = []
    skipped_rows = []
    first = True
    for bench in benchmarks:
        if node_counts is not None:
            scales = node_counts
        elif args.smoke:
            scales = (PAPER_SMALL_SIZES[bench],)
        else:
            scales = (PAPER_LARGE_SIZE, 4 * PAPER_LARGE_SIZE)
        for nodes in scales:
            result, skipped = run_study(
                bench,
                nodes,
                smoke=args.smoke,
                seed=args.seed,
                jobs=args.jobs,
                cache=cache,
                progress=progress,
            )
            artifacts.append(result)
            if not first:
                print()
            first = False
            print(
                degradation_table(
                    result,
                    baseline="mesh",
                    title=(
                        f"{bench}-{nodes}: saturation throughput "
                        f"(flits/node/cycle), ratio vs mesh"
                    ),
                )
            )
            for pattern, reason in skipped.items():
                print(f"skipped {pattern} at {bench}-{nodes}: {reason}")
                skipped_rows.append(
                    {"benchmark": bench, "nodes": nodes, "pattern": pattern,
                     "reason": reason}
                )

    if args.json_out:
        payload = {
            "kind": "robustness-study",
            "schema": 2,
            "seed": args.seed,
            "smoke": args.smoke,
            "results": [r.to_dict() for r in artifacts],
            "skipped": skipped_rows,
        }
        with open(args.json_out, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        print(f"study written to {args.json_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
