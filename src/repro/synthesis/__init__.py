"""The design methodology (paper Section 3): recursive bisection,
Best_Route, Fast_Color and exact-coloring finalization."""

from repro.synthesis.annealing import AnnealSchedule
from repro.synthesis.best_route import best_route
from repro.synthesis.coloring import (
    build_adjacency,
    dsatur_coloring,
    exact_coloring,
    greedy_clique_lower_bound,
    greedy_coloring,
    is_proper_coloring,
    num_colors,
)
from repro.synthesis.conflict_graph import build_conflict_graph, conflict_edge_count
from repro.synthesis.constraints import PAPER_MAX_DEGREE, DesignConstraints
from repro.synthesis.fast_color import fast_color, fast_color_directional
from repro.synthesis.generator import (
    DesignStats,
    FallbackRouting,
    GeneratedDesign,
    generate_network,
)
from repro.synthesis.moves import ProcessorMove, annealed_moves, best_processor_move
from repro.synthesis.multi import generate_network_for_set, merge_patterns

# Imported after generator/constraints/annealing: portfolio pulls in
# repro.eval.parallel, whose lazy reverse imports land back in those
# (already initialized) modules.
from repro.synthesis.portfolio import (
    OBJECTIVES,
    PortfolioConfig,
    PortfolioResult,
    PortfolioRun,
    portfolio_cells,
    synthesize_portfolio,
)
from repro.synthesis.reroute import global_processor_moves, reduce_degree_violations
from repro.synthesis.partition import (
    PartitionResult,
    Partitioner,
    PipeFinal,
    finalize_pipes,
    partition,
)
from repro.synthesis.state import SynthesisState, normalize_path

__all__ = [
    "AnnealSchedule",
    "DesignConstraints",
    "DesignStats",
    "FallbackRouting",
    "GeneratedDesign",
    "OBJECTIVES",
    "PAPER_MAX_DEGREE",
    "PartitionResult",
    "Partitioner",
    "PipeFinal",
    "PortfolioConfig",
    "PortfolioResult",
    "PortfolioRun",
    "ProcessorMove",
    "SynthesisState",
    "annealed_moves",
    "best_processor_move",
    "best_route",
    "build_adjacency",
    "build_conflict_graph",
    "conflict_edge_count",
    "dsatur_coloring",
    "global_processor_moves",
    "reduce_degree_violations",
    "exact_coloring",
    "fast_color",
    "fast_color_directional",
    "finalize_pipes",
    "generate_network",
    "generate_network_for_set",
    "merge_patterns",
    "greedy_clique_lower_bound",
    "greedy_coloring",
    "is_proper_coloring",
    "normalize_path",
    "num_colors",
    "partition",
    "portfolio_cells",
    "synthesize_portfolio",
]
