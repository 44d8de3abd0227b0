"""``repro.sweeps`` — synthetic traffic suite + saturation-sweep driver.

Three layers (see ``docs/SWEEPS.md``):

* :mod:`repro.sweeps.patterns` — the canonical synthetic destination
  patterns (uniform, tornado, transpose, bit permutations, hotspot, a
  routing-aware adversarial permutation) behind one extensible
  registry of spec strings (``"tornado"``, ``"hotspot:3:0.8"``);
* :mod:`repro.sweeps.driver` — the automated saturation sweep: walks
  injection rates, bisects around the knee, detects the saturation
  point, and fans every measurement out through the cached parallel
  eval runner so repeated sweeps are nearly free;
* :mod:`repro.sweeps.report` — schema-versioned canonical-JSON
  :class:`SaturationCurve` / :class:`SweepResult` artifacts with
  CSV/table rendering and the robustness-study degradation table.
"""

from __future__ import annotations

from repro.sweeps.driver import (
    CRITERIA,
    STUDY_TOPOLOGIES,
    SweepConfig,
    criterion_latency,
    detect_saturation,
    latency_reference,
    point_is_saturated,
    run_sweep,
    run_sweep_suite,
    spare_link_variant,
    study_topology,
)
from repro.sweeps.patterns import (
    DestinationPattern,
    adversarial_pattern,
    adversarial_permutation,
    bit_complement_pattern,
    bit_reverse_pattern,
    bit_rotation_pattern,
    canonical_spec,
    hotspot_pattern,
    neighbor_pattern,
    pattern_catalog,
    pattern_entries,
    pattern_names,
    register_pattern,
    resolve_pattern,
    shuffle_pattern,
    tornado_pattern,
    transpose_pattern,
    uniform_random,
)
from repro.sweeps.report import (
    SWEEP_SCHEMA,
    SaturationCurve,
    SweepResult,
    curve_csv,
    curve_plot,
    curve_table,
    degradation_table,
)

__all__ = [
    "CRITERIA",
    "DestinationPattern",
    "STUDY_TOPOLOGIES",
    "SWEEP_SCHEMA",
    "SaturationCurve",
    "SweepConfig",
    "SweepResult",
    "adversarial_pattern",
    "adversarial_permutation",
    "bit_complement_pattern",
    "bit_reverse_pattern",
    "bit_rotation_pattern",
    "canonical_spec",
    "criterion_latency",
    "curve_csv",
    "curve_plot",
    "curve_table",
    "degradation_table",
    "detect_saturation",
    "hotspot_pattern",
    "latency_reference",
    "neighbor_pattern",
    "pattern_catalog",
    "pattern_entries",
    "pattern_names",
    "point_is_saturated",
    "register_pattern",
    "resolve_pattern",
    "run_sweep",
    "run_sweep_suite",
    "shuffle_pattern",
    "spare_link_variant",
    "study_topology",
    "tornado_pattern",
    "transpose_pattern",
    "uniform_random",
]
