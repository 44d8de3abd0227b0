"""One pass of a benchmark workload, in a fresh interpreter.

``bench/run.py`` starts this script once per pass, so every pass pays
interpreter start, ``import repro`` and input construction (its set-up),
and no in-process memo — ``repro.eval.runner.prepare`` is
``lru_cache``d — survives from one pass to the next.

Usage (normally only through ``run.py``)::

    python bench/passes.py '{"workload": "design-flow", "seed": 0, "traced": false}'

Optional spec keys: ``cache_dir`` (the result cache of ``figure8-cold``
and ``warm-replay``), ``rounds`` (``warm-replay`` rounds) and
``trace_path`` (where a traced pass writes its Chrome trace).  The last
line of standard output is one JSON object: the wall-clock time of the
first timed op, the timed region's wall time, every op with its time,
output and failed checks, a summary of the modelled network's quality,
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import SynthesisError  # noqa: E402
from repro.eval.serialize import canonical_json, design_to_dict  # noqa: E402
from repro.synthesis import DesignConstraints  # noqa: E402
from repro.workloads.nas import BENCHMARK_NAMES, PAPER_SMALL_SIZES  # noqa: E402

import repro.eval.experiments as experiments  # noqa: E402
import repro.eval.runner as runner  # noqa: E402
import repro.floorplan.area as area  # noqa: E402
import repro.sweeps.driver as driver  # noqa: E402
import repro.synthesis.portfolio as portfolio  # noqa: E402
import repro.verify as verify  # noqa: E402
import repro.workloads.nas as nas  # noqa: E402

from metrics import geomean  # noqa: E402

#: design-flow: every 8/9-node paper design plus two 16-node ones.  The
#: full 10-design corpus takes ~26 s, too long to repeat within a run;
#: cg-16 and mg-16 keep partitioning at about a third of the pass.
DESIGNS = tuple((name, PAPER_SMALL_SIZES[name]) for name in BENCHMARK_NAMES) + (
    ("cg", 16),
    ("mg", 16),
)
CERTIFIED_KINDS = ("generated", "mesh", "torus")

#: saturation-sweep: one curve per study topology and per pattern (a
#: diagonal of the 3x3 grid, ~9 s instead of ~27 s).
SWEEP_NODES = 16
SWEEP_CURVES = (("generated", "tornado"), ("mesh", "transpose"), ("torus", "uniform"))

#: warm-replay: the pool width of every fanned call.
WARM_JOBS = min(2, os.cpu_count() or 1)


def sha256(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class Run:
    """Timing, ops and (when traced) layer spans of one pass."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.ops: List[dict] = []
        self.t_first_op: Optional[float] = None
        self.wall_s: Optional[float] = None

    @contextmanager
    def region(self) -> Iterator[None]:
        """The timed region; set-up ends where it starts."""
        self.t_first_op = time.time()
        started = time.perf_counter()
        with self.recorder.region() if self.recorder else nullcontext():
            yield
        self.wall_s = time.perf_counter() - started

    @contextmanager
    def op(self, op_id: str, key: Optional[str] = None) -> Iterator[dict]:
        """Time one op; ``key`` names its entry in ``expected.json``."""
        record = {"id": op_id, "key": key or op_id, "failures": []}
        started = time.perf_counter()
        with self.recorder.op_span(op_id) if self.recorder else nullcontext():
            yield record
        record["seconds"] = time.perf_counter() - started
        self.ops.append(record)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def design_flow(run: Run, seed: int, spec: dict) -> dict:
    """Synthesize, floorplan, measure and certify each design."""
    max_degree = DesignConstraints().max_degree
    with run.region():
        for name, n in DESIGNS:
            setup = None
            with run.op(f"{name}-{n}") as op:
                try:
                    setup = runner.prepare(name, n, seed=seed)
                except SynthesisError as exc:
                    op["failures"].append(f"synthesis failed: {exc}")
                else:
                    report = area.measure_area(
                        setup.design.topology, seed=seed, floorplan=setup.floorplan
                    )
                    certs = {
                        kind: verify.certify(
                            setup.topology(kind),
                            setup.benchmark.pattern,
                            max_degree=max_degree if kind == "generated" else None,
                        )
                        for kind in CERTIFIED_KINDS
                    }
            if setup is None:
                continue
            if not setup.floorplan.feasible:
                op["failures"].append("floorplan infeasible")
            for kind, cert in certs.items():
                if not cert.ok(require_contention_free=kind == "generated"):
                    op["failures"].append(f"{kind} certificate fails the gate")
            op["output"] = {
                "design_sha256": sha256(design_to_dict(setup.design)),
                "switches": report.num_switches,
                "links": setup.design.num_links,
                "switch_ratio": report.switch_ratio,
                "link_ratio": report.link_ratio,
                "link_area": setup.floorplan.total_link_area,
                "certificates": {
                    kind: {f.name: f.status for f in cert.findings}
                    for kind, cert in certs.items()
                },
            }
    outputs = [op["output"] for op in run.ops if "output" in op]
    return {
        "gen_links": sum(o["links"] for o in outputs),
        "gen_switches": sum(o["switches"] for o in outputs),
    }


def figure8_cold(run: Run, seed: int, spec: dict) -> dict:
    """Figure 8 (small) against an empty result cache; one op per cell."""
    from repro.eval import ResultCache

    cache = ResultCache(spec["cache_dir"])
    cell_seconds: Dict[str, float] = {}

    def progress(outcome, index, total) -> None:
        cell_seconds[outcome.label] = outcome.seconds

    with run.region():
        with run.recorder.op_span("figure8") if run.recorder else nullcontext():
            rows = experiments.figure8_rows(
                "small", seed=seed, jobs=1, cache=cache, progress=progress
            )
    for row in rows:
        label = f"{row.benchmark}/{row.topology}"
        op = {"id": label, "key": label, "seconds": cell_seconds[label], "failures": []}
        if row.topology == "generated" and row.deadlocks:
            op["failures"].append(f"{row.deadlocks} deadlocks on the generated network")
        op["output"] = asdict(row)
        run.ops.append(op)
    return {"gen_exec_ratio": _gen_exec_ratio(rows)}


def _gen_exec_ratio(rows) -> float:
    return geomean(r.execution_ratio for r in rows if r.topology == "generated")


def saturation_sweep(run: Run, seed: int, spec: dict) -> dict:
    """Open-loop saturation sweeps; the cg-16 design is built in set-up."""
    from repro.sweeps.patterns import canonical_spec
    from repro.sweeps.report import SweepResult

    topologies = {
        kind: driver.study_topology(kind, SWEEP_NODES, seed=seed) for kind, _ in SWEEP_CURVES
    }
    config = driver.SweepConfig(seed=seed)
    curves = []
    with run.region():
        for kind, pattern in SWEEP_CURVES:
            label, topology, delays = topologies[kind]
            with run.op(f"{kind}/{pattern}") as op:
                curve = driver.run_sweep(
                    topology,
                    pattern,
                    sweep=config,
                    link_delays=delays,
                    label=label,
                    strict_patterns=True,
                )
            if curve.pattern != canonical_spec(pattern):
                op["failures"].append(f"curve ran {curve.pattern!r}, not {pattern!r}")
            op["output"] = {
                "curve_sha256": sha256(curve.to_dict()),
                "saturation_throughput": curve.saturation_throughput,
                "low_load_p99": curve.points[0].p99_latency,
            }
            curves.append((label, curve.pattern, curve))
    outputs = [op["output"] for op in run.ops]
    result = SweepResult(label="bench-saturation-sweep", curves=tuple(curves))
    return {
        "sweep_sha256": sha256(result.to_dict()),
        "sat_throughput": sum(o["saturation_throughput"] for o in outputs) / len(outputs),
        "low_load_p99_cycles": sum(o["low_load_p99"] for o in outputs) / len(outputs),
    }


def _warm_inputs(seed: int, spec: dict):
    from repro.eval import ResultCache
    from repro.topology.builders import mesh_for

    return (
        nas.benchmark("cg", 16).pattern,
        mesh_for(16),
        portfolio.PortfolioConfig(size=4, seed_base=seed),
        driver.SweepConfig(seed=seed),
        ResultCache(spec["cache_dir"]),
    )


def _warm_round(seed: int, inputs) -> tuple:
    pattern, mesh, portfolio_config, sweep_config, cache = inputs
    rows = experiments.figure8_rows("small", seed=seed, jobs=WARM_JOBS, cache=cache)
    chosen = portfolio.synthesize_portfolio(
        pattern, config=portfolio_config, jobs=WARM_JOBS, cache=cache
    )
    curve = driver.run_sweep(
        mesh, "tornado", sweep=sweep_config, jobs=WARM_JOBS, cache=cache, strict_patterns=True
    )
    return rows, chosen, curve


def _round_sha256(rows, chosen, curve) -> str:
    return sha256(
        {
            "figure8": [asdict(r) for r in rows],
            "portfolio": chosen.summary_dict(),
            "design": design_to_dict(chosen.design),
            "sweep": curve.to_dict(),
        }
    )


def warm_replay(run: Run, seed: int, spec: dict) -> dict:
    """Rounds of figure8 + portfolio + sweep; once the first pass has
    filled the cache, the cache answers every cell."""
    inputs = _warm_inputs(seed, spec)
    results = []
    with run.region():
        for i in range(spec["rounds"]):
            with run.op(f"round-{i}", key="round") as op:
                results.append(_warm_round(seed, inputs))
    for op, result in zip(run.ops, results):
        op["output"] = {"round_sha256": _round_sha256(*result)}
    return {"gen_exec_ratio": _gen_exec_ratio(results[0][0])}


WORKLOADS: Dict[str, Callable[[Run, int, dict], dict]] = {
    "design-flow": design_flow,
    "figure8-cold": figure8_cold,
    "saturation-sweep": saturation_sweep,
    "warm-replay": warm_replay,
}

#: Layers each workload must reach in its timed region.  A traced pass
#: that records no call of one of them has its wrapper at the wrong call
#: site, or the workload no longer does what it claims.
MUST_FIRE = {
    "design-flow": (
        "workloads.build",
        "model.cliques",
        "synthesis.generate",
        "synthesis.partition",
        "floorplan.place",
        "floorplan.area",
        "verify.certify",
    ),
    "figure8-cold": (
        "workloads.build",
        "model.cliques",
        "synthesis.generate",
        "synthesis.partition",
        "floorplan.place",
        "simulator.replay",
        "eval.run_cells",
        "eval.prepare_setups",
        "eval.cache_read",
        "eval.cache_write",
        "eval.decode",
        "eval.cell_key",
    ),
    "saturation-sweep": (
        "simulator.openloop",
        "sweeps.driver",
        "eval.run_cells",
        "eval.decode",
        "eval.cell_key",
    ),
    "warm-replay": (
        "synthesis.portfolio",
        "sweeps.driver",
        "eval.run_cells",
        "eval.prepare_setups",
        "eval.cache_read",
        "eval.decode",
    ),
}

#: Layers the cache must keep ``warm-replay``'s timed region out of.
MUST_NOT_FIRE = {"warm-replay": ("synthesis.partition", "simulator.replay", "simulator.openloop")}


def _check_layers(workload: str, recorder) -> None:
    calls = recorder.calls()
    silent = [layer for layer in MUST_FIRE[workload] if not calls[layer]]
    if silent:
        raise SystemExit(f"{workload}: traced pass recorded no call of {silent}")
    busy = [layer for layer in MUST_NOT_FIRE.get(workload, ()) if calls[layer]]
    if busy:
        raise SystemExit(f"{workload}: timed region ran {busy}; the cache was not used")
    if workload == "warm-replay" and recorder.metrics()["eval.cache_hit_frac"] != 1.0:
        raise SystemExit("warm-replay: a cell missed the cache")


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    workload = spec["workload"]
    recorder = None
    if spec["traced"]:
        from layers import Recorder

        recorder = Recorder()
        recorder.install()
    run = Run(recorder)
    summary = WORKLOADS[workload](run, spec["seed"], spec)
    result = {
        "t_first_op": run.t_first_op,
        "wall_s": run.wall_s,
        "ops": run.ops,
        "summary": summary,
        "layers": None,
    }
    if recorder is not None:
        _check_layers(workload, recorder)
        result["layers"] = recorder.metrics()
        if spec.get("trace_path"):
            recorder.tracer.write(spec["trace_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
