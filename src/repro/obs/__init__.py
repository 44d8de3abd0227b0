"""Observability: metrics, tracing, and the profile report.

The subsystem is zero-dependency and off by default.  Hot layers
(synthesis, the flit-level engine, the eval runner) accept an optional
:class:`Observability` bundle; when none is supplied they run with the
shared :data:`DISABLED` bundle, whose instruments are no-ops, and keep
per-cycle work off the disabled path (the simulator counts in plain
integers and samples only when ``obs.enabled``), aiming for a <2%
disabled overhead.

Determinism contract: every metric value is derived from simulated
state (cycles, counts, energies).  Wall-clock data is confined to
tracer span timestamps and the registry's dedicated ``wall`` section,
both excluded from canonical metric JSON — so the PR 2 byte-identity
harness passes with collection enabled.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
)
from repro.obs.tracing import NULL_TRACER, Tracer, validate_chrome_trace

# Counters every `repro profile` run must emit.  The profile table lists
# each one (zero when it did not fire), `scripts/validate_trace.py`
# checks them in the metrics JSON, and `sim.contention_stalls` is the
# tally certificate cross-validation holds at zero.
MANDATORY_COUNTERS = (
    "synthesis.bisections",
    "synthesis.route_moves",
    "synthesis.color.pipes",
    "sim.flits_injected",
    "sim.flit_hops",
    "sim.packets_delivered",
    "sim.credit_stalls",
    "sim.contention_stalls",
    "eval.cache.lookups",
)


class Observability:
    """A metrics registry plus a tracer, handed through the hot layers.

    Identity-hashed (no value equality) so it can ride through
    ``functools.lru_cache``-decorated call chains unharmed.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        sample_every: int = 128,
    ) -> None:
        if sample_every < 1:
            raise ReproError(f"sample_every must be positive, got {sample_every}")
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.sample_every = sample_every

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.tracer.enabled


def enabled_observability(sample_every: int = 128) -> Observability:
    """A fresh, fully enabled bundle (its own registry and tracer)."""
    return Observability(
        metrics=MetricsRegistry(enabled=True),
        tracer=Tracer(enabled=True),
        sample_every=sample_every,
    )


#: The shared no-op bundle instrumented code falls back to.
DISABLED = Observability(NULL_REGISTRY, NULL_TRACER)

__all__ = [
    "Counter",
    "DISABLED",
    "Gauge",
    "Histogram",
    "MANDATORY_COUNTERS",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Observability",
    "Series",
    "Tracer",
    "enabled_observability",
    "validate_chrome_trace",
]
