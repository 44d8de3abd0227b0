"""Fault injection and resilience machinery for synthesized interconnects.

The paper's minimal generated networks carry no spare paths by design;
this subsystem measures how they degrade when links or switches fail,
against the mesh/torus baselines:

* :mod:`repro.faults.spec` — declarative fault models (permanent and
  transient link faults, whole-switch faults) and named scenarios,
* :mod:`repro.faults.state` — cycle-resolved outage windows the
  simulation engine consults,
* :mod:`repro.faults.campaign` — seeded enumeration/sampling of single-
  and double-fault campaigns over any network,
* :mod:`repro.faults.repair` — fault-aware route repair with
  disconnection as a first-class outcome.

The campaign *runner* lives in :mod:`repro.eval.resilience`.
"""

from repro.faults.campaign import (
    FAULT_KINDS,
    CampaignSpec,
    build_campaign,
)
from repro.faults.repair import (
    RepairResult,
    all_pairs,
    repair_routes,
)
from repro.faults.spec import FaultScenario, FaultSpec, LinkFault, SwitchFault
from repro.faults.state import FaultState

__all__ = [
    "CampaignSpec",
    "FAULT_KINDS",
    "FaultScenario",
    "FaultSpec",
    "FaultState",
    "LinkFault",
    "RepairResult",
    "SwitchFault",
    "all_pairs",
    "build_campaign",
    "repair_routes",
]
