"""Zero-dependency metrics: counters, gauges, histograms, series.

Every instrument hangs off a :class:`MetricsRegistry`.  A disabled
registry hands out shared null instruments whose mutators are no-ops,
so instrumented code can keep unconditional ``counter.inc()`` calls on
warm paths; truly hot paths (per-flit, per-cycle) should count in plain
integers and report them once, which is what the simulator engine does
(``Engine.publish_metrics``), gating only its per-window sampling on a
cached boolean.

Determinism: every value recorded through this module must be derived
from simulated state (cycles, counts, energies) — never from the wall
clock.  Wall-clock timings belong to the tracer
(:mod:`repro.obs.tracing`) or to the registry's dedicated ``wall``
section (:meth:`MetricsRegistry.record_wall`), which
:meth:`MetricsRegistry.snapshot` excludes by default so canonical
metric output is byte-stable across runs.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """Summary statistics plus power-of-two bucket counts.

    Bucket ``k`` counts observations in ``[2**k, 2**(k+1))``; bucket 0
    also absorbs values below 1.  Compact enough to sit on delivery
    paths and still answer "what does the latency distribution look
    like" without storing every sample.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.buckets: Dict[int, int] = {}

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = max(0, int(value).bit_length() - 1) if value >= 1 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class Series:
    """An (x, y) time series — x is a simulated coordinate (cycle,
    annealing step, ...), never wall time."""

    __slots__ = ("name", "points")

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[Number, Number]] = []

    def append(self, x: Number, y: Number) -> None:
        self.points.append((x, y))


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: Number = 1) -> None:  # pragma: no cover - trivial
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: Number) -> None:  # pragma: no cover - trivial
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: Number) -> None:  # pragma: no cover - trivial
        pass


class _NullSeries(Series):
    __slots__ = ()

    def append(self, x: Number, y: Number) -> None:  # pragma: no cover - trivial
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")
_NULL_SERIES = _NullSeries("null")


class MetricsRegistry:
    """Creates and holds named instruments.

    Instruments are created on first use and shared by name, so two
    call sites incrementing ``sim.retransmissions`` add to the same
    counter.  A disabled registry returns null instruments and records
    nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, Series] = {}
        self._wall: Dict[str, float] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def series(self, name: str) -> Series:
        if not self.enabled:
            return _NULL_SERIES
        if name not in self._series:
            self._series[name] = Series(name)
        return self._series[name]

    def record_wall(self, name: str, seconds: float) -> None:
        """Record a wall-clock duration in the isolated ``wall`` section.

        Wall times never enter the deterministic snapshot; they exist so
        ``repro profile`` can print phase timings next to counters.
        """
        if self.enabled:
            self._wall[name] = self._wall.get(name, 0.0) + seconds

    # -- output --------------------------------------------------------

    def snapshot(self, include_wall: bool = False) -> dict:
        """Deterministic dictionary of everything recorded.

        With ``include_wall=False`` (the default) the result contains
        only simulated-coordinate data and is byte-stable across
        identical runs; ``include_wall=True`` adds the ``wall`` section
        for human-facing output.
        """
        out = {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min,
                    "max": h.max,
                    "mean": h.mean,
                    "buckets": {str(k): v for k, v in sorted(h.buckets.items())},
                }
                for n, h in sorted(self._histograms.items())
            },
            "series": {
                n: [[x, y] for x, y in s.points]
                for n, s in sorted(self._series.items())
            },
        }
        if include_wall:
            out["wall"] = {n: s for n, s in sorted(self._wall.items())}
        return out

    def canonical_json(self) -> str:
        """Canonical (wall-free) JSON form — byte-identical across runs
        with identical simulated behavior."""
        return json.dumps(
            self.snapshot(include_wall=False),
            sort_keys=True,
            separators=(",", ":"),
        )

    def write_json(self, path: str) -> None:
        """Write the snapshot to ``path``, wall section included under
        its dedicated key."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(include_wall=True), fh, indent=2, sort_keys=True)
            fh.write("\n")


NULL_REGISTRY = MetricsRegistry(enabled=False)
