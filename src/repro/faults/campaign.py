"""Fault-campaign generation: enumerate or sample failure scenarios.

A campaign is an ordered tuple of :class:`~repro.faults.spec.FaultScenario`
covering a topology's failure space: every single link, every single
switch, optionally every unordered pair of those (double faults).  When
the full enumeration exceeds ``max_scenarios`` a seeded sample is drawn,
so campaigns stay deterministic and reproducible at any size.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import FaultError
from repro.faults.spec import FaultScenario, FaultSpec, LinkFault, SwitchFault
from repro.topology.network import Network

FAULT_KINDS = ("link", "switch")


@dataclass(frozen=True)
class CampaignSpec:
    """Parameters of a fault campaign.

    Attributes:
        kinds: which resource classes fail ("link", "switch").
        double: also include every unordered pair of single faults.
        max_scenarios: cap on campaign size; beyond it a seeded sample
            of the full enumeration is drawn.  ``None`` means unbounded.
        seed: RNG seed used only when sampling is needed.
        start: cycle every fault activates at.
        end: cycle every fault recovers at (``None`` = permanent).
    """

    kinds: Tuple[str, ...] = ("link",)
    double: bool = False
    max_scenarios: Optional[int] = None
    seed: int = 0
    start: int = 0
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.kinds:
            raise FaultError("campaign needs at least one fault kind")
        unknown = [k for k in self.kinds if k not in FAULT_KINDS]
        if unknown:
            raise FaultError(
                f"unknown fault kinds {unknown}; choose from {FAULT_KINDS}"
            )
        if self.max_scenarios is not None and self.max_scenarios < 1:
            raise FaultError("max_scenarios must be positive when given")


def _single_faults(network: Network, spec: CampaignSpec) -> List[FaultSpec]:
    faults: List[FaultSpec] = []
    if "link" in spec.kinds:
        for link in network.links:
            faults.append(LinkFault(link.link_id, start=spec.start, end=spec.end))
    if "switch" in spec.kinds:
        for s in network.switches:
            faults.append(SwitchFault(s, start=spec.start, end=spec.end))
    return faults


def build_campaign(
    network: Network, spec: Optional[CampaignSpec] = None
) -> Tuple[FaultScenario, ...]:
    """Enumerate (or sample) the fault scenarios of a campaign.

    Single-fault scenarios come first in resource order; double-fault
    scenarios (when enabled) follow in lexicographic pair order.  If the
    total exceeds ``spec.max_scenarios``, a seeded sample is drawn
    without replacement, preserving the enumeration order.
    """
    spec = spec or CampaignSpec()
    singles = _single_faults(network, spec)
    scenarios = [FaultScenario.of(f) for f in singles]
    if spec.double:
        scenarios.extend(
            FaultScenario.of(a, b) for a, b in itertools.combinations(singles, 2)
        )
    if spec.max_scenarios is not None and len(scenarios) > spec.max_scenarios:
        rng = random.Random(spec.seed)
        picked = rng.sample(range(len(scenarios)), spec.max_scenarios)
        scenarios = [scenarios[i] for i in sorted(picked)]
    return tuple(scenarios)
