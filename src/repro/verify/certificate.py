"""Machine-checkable network certificates.

A :class:`NetworkCertificate` bundles every static safety property the
verifier establishes for one (network, workload pattern) pair into a
schema-versioned, canonically serializable artifact: named findings
with pass/fail status, structured details, and concrete witnesses on
failure.  The JSON form (:meth:`NetworkCertificate.to_json`) is
byte-stable across runs for the same inputs — it contains no
timestamps, no absolute paths, and every collection is sorted — so CI
can archive and diff certificates directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ReproError
from repro.eval.serialize import canonical_json

# Bump when the certificate JSON layout changes shape.
CERTIFICATE_SCHEMA = 1

# The findings every certificate carries, in report order.
FINDING_NAMES = ("connectivity", "degree", "routes_valid", "contention", "deadlock")


class VerificationError(ReproError):
    """A certificate could not be produced or is internally inconsistent."""


@dataclass(frozen=True)
class Finding:
    """One named check's outcome.

    Attributes:
        name: check identifier (one of :data:`FINDING_NAMES`).
        status: ``"pass"`` or ``"fail"``.
        summary: one human-readable line.
        details: JSON-safe structured facts backing the status.
        witness: JSON-safe counterexample when the check fails (or an
            informational witness on pass, e.g. the schedule-excluded
            cycle of a ``deadlock``/``schedule`` finding).
    """

    name: str
    status: str
    summary: str
    details: Dict = field(default_factory=dict)
    witness: Optional[Dict] = None

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail"):
            raise VerificationError(
                f"finding {self.name!r} has invalid status {self.status!r}"
            )

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "status": self.status,
            "summary": self.summary,
            "details": self.details,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class NetworkCertificate:
    """The verifier's verdict on one routed network under one pattern.

    Attributes:
        topology_name/topology_kind: the certified network.
        pattern_name: the workload pattern the certificate is scoped to
            (contention and schedule-based deadlock findings are
            statements about this pattern, not all possible traffic).
        num_processors/num_switches/num_links: network size facts.
        findings: the named checks, in :data:`FINDING_NAMES` order.
    """

    topology_name: str
    topology_kind: str
    pattern_name: str
    num_processors: int
    num_switches: int
    num_links: int
    findings: Tuple[Finding, ...]

    def finding(self, name: str) -> Finding:
        for f in self.findings:
            if f.name == name:
                return f
        raise VerificationError(f"certificate has no finding named {name!r}")

    @property
    def contention_free(self) -> bool:
        """Theorem 1 holds: the pattern cannot contend on this network."""
        return self.finding("contention").passed

    @property
    def deadlock_free(self) -> bool:
        return self.finding("deadlock").passed

    @property
    def deadlock_method(self) -> str:
        """How deadlock freedom was established: ``"acyclic"`` (the
        channel-dependency graph has no cycle — unconditional),
        ``"schedule"`` (every set of communications that can coexist
        under the pattern's timing has an acyclic CDG), or ``"none"``
        when the finding failed."""
        if not self.deadlock_free:
            return "none"
        return self.finding("deadlock").details.get("method", "acyclic")

    def ok(self, require_contention_free: bool = False) -> bool:
        """Whether the certificate grants the safety properties asked of it.

        Connectivity, route validity, degree and deadlock freedom are
        always required; Theorem-1 contention freedom only when the
        caller demands it (synthesized networks promise it, regular
        baselines do not).
        """
        for f in self.findings:
            if f.name == "contention" and not require_contention_free:
                continue
            if not f.passed:
                return False
        return True

    def to_dict(self) -> Dict:
        return {
            "schema_version": CERTIFICATE_SCHEMA,
            "topology_name": self.topology_name,
            "topology_kind": self.topology_kind,
            "pattern_name": self.pattern_name,
            "num_processors": self.num_processors,
            "num_switches": self.num_switches,
            "num_links": self.num_links,
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self) -> str:
        """Canonical JSON text (sorted keys, no whitespace, newline-terminated)."""
        return canonical_json(self.to_dict()) + "\n"

    def render(self) -> str:
        """Human-readable report."""
        lines = [
            f"certificate for {self.topology_name} "
            f"({self.topology_kind}) under {self.pattern_name}:",
            f"  {self.num_processors} processors, {self.num_switches} switches, "
            f"{self.num_links} links",
        ]
        for f in self.findings:
            mark = "PASS" if f.passed else "FAIL"
            lines.append(f"  [{mark}] {f.name}: {f.summary}")
            if not f.passed and f.witness is not None:
                for row in _render_witness(f.witness):
                    lines.append(f"         {row}")
        return "\n".join(lines)


def _render_witness(witness: Dict) -> list:
    """Flatten a witness dictionary into indented report lines."""
    lines = []
    for key in sorted(witness):
        value = witness[key]
        if isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            lines.append(f"{key}:")
            for item in value:
                lines.append(f"  {canonical_json(item)}")
        else:
            lines.append(f"{key}: {canonical_json(value)}")
    return lines
