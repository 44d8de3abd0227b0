"""Per-layer timing of a traced pass, recorded from outside the program.

:meth:`Recorder.install` replaces the public entry points of each layer
at the places the evaluated flows call them (the module attribute a
caller looks up, or the method on its class) with a wrapper that opens
a :class:`repro.obs.Tracer` span.  No code under ``src/`` changes.  The
pass opens one ``bench.region`` span around its timed region and one
``bench.op`` span per operation; layer spans carry the op id, and the
label of the eval cell being run when there is one.

Coloring runs about a million times per design pass, so
:class:`~repro.synthesis.memo.ColorMemo` lookups are accumulated as a
total and a count instead of spans; their time stays inside
``synthesis.partition``'s self time.

Calls made inside pool workers are not seen: their processes carry
their own copy of the recorder, which is discarded.  Their cost shows
in ``eval.run_cells`` and ``eval.dispatch_s``.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from metrics import dispatch_estimate, self_time_by_name

#: Layers timed as spans; every ``<layer>_s`` metric is a self time.
SPAN_LAYERS = (
    "workloads.build",
    "model.cliques",
    "synthesis.generate",
    "synthesis.partition",
    "synthesis.portfolio",
    "floorplan.place",
    "floorplan.area",
    "verify.certify",
    "simulator.replay",
    "simulator.openloop",
    "sweeps.driver",
    "eval.run_cells",
    "eval.prepare_setups",
    "eval.cache_read",
    "eval.cache_write",
    "eval.decode",
    "eval.cell_key",
)

After = Callable[["Recorder", object, tuple, dict, float], None]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _after_partition(rec: "Recorder", result, args, kwargs, seconds) -> None:
    memo = result.state.color_memo
    hits = memo.fast_hits + memo.exact_hits
    rec.counts["memo_hits"] += hits
    rec.counts["memo_lookups"] += hits + memo.fast_misses + memo.exact_misses


def _after_place(rec: "Recorder", result, args, kwargs, seconds) -> None:
    rec.counts["place_feasible"] += int(result.feasible)


def _after_certify(rec: "Recorder", result, args, kwargs, seconds) -> None:
    topology = args[0]
    if not result.ok(require_contention_free=topology.kind == "generated"):
        rec.counts["cert_fail"] += 1


def _after_simulate(rec: "Recorder", result, args, kwargs, seconds) -> None:
    rec.counts["flit_hops"] += result.flit_hops


def _after_open_loop(rec: "Recorder", result, args, kwargs, seconds) -> None:
    rec.counts["openloop_packets"] += result.delivered


def _after_sweep(rec: "Recorder", result, args, kwargs, seconds) -> None:
    rec.counts["sweep_points"] += len(result.points)


def _after_run_cells(rec: "Recorder", result, args, kwargs, seconds) -> None:
    from repro.eval.parallel import resolve_jobs

    rec.cell = None
    workers = resolve_jobs(kwargs.get("jobs"))
    used = 1 if workers is None or len(result) <= 1 else min(workers, len(result))
    rec.counts["cells"] += len(result)
    rec.counts["cache_hits"] += sum(1 for o in result if o.cache_hit)
    rec.counts["dispatch_s"] += dispatch_estimate(seconds, [o.seconds for o in result], used)


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        from repro.obs import Tracer

        self.tracer = Tracer()
        self.op = "setup"
        self.cell: Optional[str] = None
        self.counts: Counter = Counter()
        self._region: Optional[dict] = None
        self._counts_at: List[Counter] = []

    # -- wrappers ------------------------------------------------------

    def _span(self, layer: str, fn: Callable, after: Optional[After]) -> Callable:
        tracer = self.tracer
        counts = self.counts

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            span_args = {"op": self.op} if self.cell is None else {"op": self.op, "cell": self.cell}
            with tracer.span(layer, **span_args):
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    counts[f"{layer}.raised"] += 1
                    raise
            if after is not None:
                after(self, result, args, kwargs, time.perf_counter() - started)
            return result

        return wrapper

    def _cell_key(self, fn: Callable) -> Callable:
        timed = self._span("eval.cell_key", fn, None)

        def wrapper(cell):
            # A cell's key is the first thing run_cells computes for it,
            # so spans from here to the next key belong to this cell.
            self.cell = getattr(cell, "label", None)
            return timed(cell)

        return wrapper

    def _accumulate(self, fn: Callable) -> Callable:
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts["color_s"] += clock() - started
                counts["color_calls"] += 1

        return wrapper

    @staticmethod
    def _patch(owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        wrapped = make(original)
        if inspect.isclass(owner) and isinstance(
            inspect.getattr_static(owner, name), classmethod
        ):
            wrapped = staticmethod(wrapped)
        setattr(owner, name, wrapped)

    def install(self) -> None:
        """Wrap every layer entry point at its call sites."""
        import repro.eval.experiments as experiments
        import repro.eval.parallel as parallel
        import repro.eval.runner as runner
        import repro.floorplan.area as area
        import repro.simulator.openloop as openloop
        import repro.sweeps.driver as driver
        import repro.synthesis.generator as generator
        import repro.synthesis.portfolio as portfolio
        import repro.verify as verify
        import repro.workloads.nas as nas
        from repro.model.cliques import CliqueAnalysis
        from repro.synthesis.memo import ColorMemo
        from repro.synthesis.partition import Partitioner

        sites = (
            ("workloads.build", [(nas, "benchmark"), (runner, "benchmark")], None),
            ("model.cliques", [(CliqueAnalysis, "of")], None),
            ("synthesis.generate", [(runner, "generate_network"), (generator, "generate_network")], None),
            ("synthesis.partition", [(Partitioner, "run")], _after_partition),
            ("synthesis.portfolio", [(portfolio, "synthesize_portfolio")], None),
            ("floorplan.place", [(runner, "place"), (area, "place")], _after_place),
            ("floorplan.area", [(area, "measure_area"), (experiments, "measure_area")], None),
            ("verify.certify", [(verify, "certify")], _after_certify),
            ("simulator.replay", [(parallel, "simulate")], _after_simulate),
            ("simulator.openloop", [(openloop, "run_open_loop")], _after_open_loop),
            ("sweeps.driver", [(driver, "run_sweep")], _after_sweep),
            (
                "eval.run_cells",
                [(experiments, "run_cells"), (driver, "run_cells"), (portfolio, "run_cells")],
                _after_run_cells,
            ),
            ("eval.prepare_setups", [(experiments, "prepare_setups")], None),
            (
                "eval.cache_read",
                [(parallel.ResultCache, "get_result"), (parallel.ResultCache, "get_setup")],
                None,
            ),
            (
                "eval.cache_write",
                [(parallel.ResultCache, "put_result"), (parallel.ResultCache, "put_setup")],
                None,
            ),
            (
                "eval.decode",
                [
                    (experiments, "result_from_dict"),
                    (portfolio, "design_from_dict"),
                    (driver, "loadpoint_from_dict"),
                ],
                None,
            ),
        )
        for layer, owners, after in sites:
            for owner, name in owners:
                self._patch(owner, name, lambda fn, l=layer, a=after: self._span(l, fn, a))
        for cls in (
            parallel.PerformanceCell,
            parallel.OpenLoopCell,
            parallel.SynthesisCell,
            parallel.SetupTask,
        ):
            self._patch(cls, "key", self._cell_key)
        for name in ("fast_directional", "fast_pair", "exact"):
            self._patch(ColorMemo, name, self._accumulate)

    # -- regions and ops -----------------------------------------------

    @contextmanager
    def region(self) -> Iterator[None]:
        """The timed region; only spans and counts inside it are reported."""
        self._counts_at = [Counter(self.counts)]
        with self.tracer.span("bench.region"):
            yield
        self._counts_at.append(Counter(self.counts))
        self._region = self.tracer.spans()[-1]

    @contextmanager
    def op_span(self, op_id: str) -> Iterator[None]:
        self.op = op_id
        with self.tracer.span("bench.op", op=op_id):
            yield

    # -- results -------------------------------------------------------

    def region_spans(self) -> List[dict]:
        if self._region is None:
            raise RuntimeError("no timed region was recorded")
        start = self._region["start_s"]
        end = start + self._region["dur_s"]
        return [
            s
            for s in self.tracer.spans()
            if s is not self._region and start <= s["start_s"] <= end
        ]

    def calls(self) -> Counter:
        """Wrapped calls per layer inside the timed region."""
        return Counter(
            s["name"] for s in self.region_spans() if not s["name"].startswith("bench.")
        )

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the timed region."""
        spans = self.region_spans()
        own = self_time_by_name(spans)
        calls = self.calls()
        before, after = self._counts_at
        c = after - before
        # Counter subtraction drops zero and negative entries, which is
        # what a missing count should read as.
        m: Dict[str, float] = {f"{layer}_s": own.get(layer, 0.0) for layer in SPAN_LAYERS}
        m.update(
            {
                "synthesis.partition_runs": calls["synthesis.partition"],
                "synthesis.partition_fail_frac": _ratio(
                    c["synthesis.partition.raised"], calls["synthesis.partition"]
                ),
                "synthesis.color_s": c["color_s"],
                "synthesis.color_calls": c["color_calls"],
                "synthesis.color_memo_hit_frac": _ratio(c["memo_hits"], c["memo_lookups"]),
                "floorplan.place_calls": calls["floorplan.place"],
                "floorplan.feasible_frac": _ratio(c["place_feasible"], calls["floorplan.place"]),
                "verify.certs": calls["verify.certify"],
                "verify.cert_fail_frac": _ratio(c["cert_fail"], calls["verify.certify"]),
                "simulator.replay_calls": calls["simulator.replay"],
                "simulator.flit_hops": c["flit_hops"],
                "simulator.replay_ns_per_flit_hop": _ratio(
                    1e9 * m["simulator.replay_s"], c["flit_hops"]
                ),
                "simulator.openloop_points": calls["simulator.openloop"],
                "simulator.openloop_packets": c["openloop_packets"],
                "simulator.openloop_us_per_packet": _ratio(
                    1e6 * m["simulator.openloop_s"], c["openloop_packets"]
                ),
                "sweeps.points": _ratio(c["sweep_points"], calls["sweeps.driver"]),
                "eval.cells": c["cells"],
                "eval.cache_hit_frac": _ratio(c["cache_hits"], c["cells"]),
                "eval.dispatch_s": c["dispatch_s"],
                "eval.cache_reads": calls["eval.cache_read"],
                "eval.cache_writes": calls["eval.cache_write"],
                "trace.coverage_frac": _ratio(
                    sum(own.get(layer, 0.0) for layer in SPAN_LAYERS), self._region["dur_s"]
                ),
            }
        )
        return m
