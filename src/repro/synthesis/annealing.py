"""The geometric cooling schedule of the annealed searches.

The paper applies "a simulated annealing technique" to both the
partitioning moves and (in our reproduction) the floorplan placement.
The deterministic hill-climbing variants in :mod:`repro.synthesis.moves`
and :mod:`repro.synthesis.best_route` are what the Appendix pseudo-code
specifies.  :class:`AnnealSchedule` parameterizes the partitioner's
annealed walk (``Partitioner(anneal_schedule=...)``, also crossed with
seeds by the portfolio and part of its cell keys) and the floorplan
annealer, whose in-place loop is :func:`repro.floorplan.place._anneal`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling schedule.

    Attributes:
        initial_temperature: starting temperature (in objective units).
        cooling: multiplicative factor per temperature level, in (0, 1).
        steps: total number of proposed moves.
        moves_per_temperature: proposals evaluated before cooling.
    """

    initial_temperature: float = 10.0
    cooling: float = 0.95
    steps: int = 2000
    moves_per_temperature: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.cooling < 1.0:
            raise ValueError(f"cooling must be in (0, 1), got {self.cooling}")
        if self.initial_temperature <= 0:
            raise ValueError("initial temperature must be positive")
        if self.steps < 1 or self.moves_per_temperature < 1:
            raise ValueError("steps and moves_per_temperature must be positive")
