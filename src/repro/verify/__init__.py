"""Static network certification: deadlock freedom + Theorem-1 certificates.

The verifier takes any routed network plus a workload pattern and emits
a machine-checkable :class:`NetworkCertificate` — connectivity, degree,
route validity, Theorem-1 contention freedom, and Dally–Seitz
channel-dependency acyclicity (with dateline VC classes on tori and
schedule slicing for pattern-scoped guarantees), each as a named
finding with a concrete witness on failure.  ``repro verify`` and
``scripts/certify_corpus.py`` expose it; :mod:`repro.verify.dynamic`
cross-validates certificates against the flit-level engine.  See
``docs/VERIFICATION.md``.
"""

from repro.verify.cdg import (
    CdgNode,
    CycleWitness,
    DependencyEdge,
    DependencyGraph,
    build_cdg,
    cdg_node_key,
    route_nodes,
)
from repro.verify.certificate import (
    CERTIFICATE_SCHEMA,
    FINDING_NAMES,
    Finding,
    NetworkCertificate,
    VerificationError,
)
from repro.verify.dynamic import (
    ReplayReport,
    cross_validate,
    injection_scale,
    replay_pattern,
)
from repro.verify.vcmap import (
    DatelineClasses,
    SingleClass,
    VcClassifier,
    classifier_for,
)
from repro.verify.verify import certify, cycle_to_dict, schedule_slices

__all__ = [
    "CERTIFICATE_SCHEMA",
    "CdgNode",
    "CycleWitness",
    "DatelineClasses",
    "DependencyEdge",
    "DependencyGraph",
    "FINDING_NAMES",
    "Finding",
    "NetworkCertificate",
    "ReplayReport",
    "SingleClass",
    "VcClassifier",
    "VerificationError",
    "build_cdg",
    "cdg_node_key",
    "certify",
    "classifier_for",
    "cross_validate",
    "cycle_to_dict",
    "injection_scale",
    "replay_pattern",
    "route_nodes",
    "schedule_slices",
]
