"""repro — reproduction of Ho & Pinkston, "A Methodology for Designing
Efficient On-Chip Interconnects on Well-Behaved Communication Patterns"
(HPCA 2003).

The package is organized around the paper's pipeline:

* :mod:`repro.model` — the contention model (Definitions 1-7, Theorem 1),
* :mod:`repro.topology` — system graphs, reference topologies, routing,
* :mod:`repro.synthesis` — the recursive-bisection design methodology,
* :mod:`repro.simulator` — a trace-driven flit-level network simulator,
* :mod:`repro.workloads` — NAS-like benchmark program generators,
* :mod:`repro.floorplan` — tile floorplanning and the area model,
* :mod:`repro.eval` — the paper's experiments (Figures 7 and 8),
* :mod:`repro.sweeps` — synthetic traffic suite and automated
  saturation sweeps (the off-design robustness study),
* :mod:`repro.faults` — fault injection, route repair, resilience,
* :mod:`repro.verify` — static network certificates (deadlock freedom,
  Theorem 1) with engine cross-validation.
"""

from repro.faults import (
    FaultScenario,
    LinkFault,
    SwitchFault,
    build_campaign,
    repair_routes,
)
from repro.model import (
    CliqueAnalysis,
    Communication,
    CommunicationPattern,
    ContentionEvent,
    Message,
    check_contention_free,
    read_pattern,
    write_pattern,
)
from repro.simulator import SimConfig, simulate
from repro.synthesis import (
    DesignConstraints,
    GeneratedDesign,
    generate_network,
    generate_network_for_set,
)
from repro.topology import (
    Network,
    Topology,
    crossbar,
    mesh,
    mesh_for,
    torus,
    torus_for,
)
from repro.verify import NetworkCertificate, certify, cross_validate
from repro.workloads import PhaseProgramBuilder, benchmark, extract_pattern

__version__ = "1.0.0"

__all__ = [
    "CliqueAnalysis",
    "Communication",
    "CommunicationPattern",
    "ContentionEvent",
    "DesignConstraints",
    "FaultScenario",
    "GeneratedDesign",
    "LinkFault",
    "Message",
    "Network",
    "NetworkCertificate",
    "PhaseProgramBuilder",
    "SimConfig",
    "SwitchFault",
    "Topology",
    "benchmark",
    "build_campaign",
    "certify",
    "check_contention_free",
    "cross_validate",
    "crossbar",
    "extract_pattern",
    "generate_network",
    "generate_network_for_set",
    "mesh",
    "mesh_for",
    "read_pattern",
    "repair_routes",
    "simulate",
    "torus",
    "torus_for",
    "write_pattern",
    "__version__",
]
