"""A small, generic simulated-annealing engine.

The paper applies "a simulated annealing technique" to both the
partitioning moves and (in our reproduction) the floorplan placement.
The deterministic hill-climbing variants in :mod:`repro.synthesis.moves`
and :mod:`repro.synthesis.best_route` are what the Appendix pseudo-code
specifies; this engine provides the temperature-driven variant used by
the floorplanner, and :class:`AnnealSchedule` also parameterizes the
partitioner's annealed walk (``Partitioner(anneal_schedule=...)``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Generic, Optional, Tuple, TypeVar

from repro.obs import DISABLED, Observability

State = TypeVar("State")


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric cooling schedule.

    Attributes:
        initial_temperature: starting temperature (in objective units).
        cooling: multiplicative factor per step, in (0, 1).
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


class SimulatedAnnealing(Generic[State]):
    """Minimize ``energy`` over states connected by ``neighbor`` moves.

    ``neighbor(state, rng)`` must return a *new* state (it must not
    mutate its argument); the best state ever visited is returned, so a
    pessimal final temperature cannot lose the incumbent.
    """

    def __init__(
        self,
        energy: Callable[[State], float],
        neighbor: Callable[[State, random.Random], State],
        schedule: Optional[AnnealSchedule] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
        label: str = "anneal",
    ) -> None:
        self._energy = energy
        self._neighbor = neighbor
        self._schedule = schedule or AnnealSchedule()
        self._rng = random.Random(seed)
        self._obs = obs if obs is not None else DISABLED
        self._label = label

    def run(self, initial: State) -> Tuple[State, float]:
        """Anneal from ``initial``; returns ``(best state, best energy)``."""
        sched = self._schedule
        current = initial
        current_e = self._energy(current)
        best, best_e = current, current_e
        temperature = sched.initial_temperature
        record = self._obs.metrics.enabled
        if record:
            m = self._obs.metrics
            accepted = m.counter(f"{self._label}.accepted")
            accepted_worse = m.counter(f"{self._label}.accepted_worse")
            rejected = m.counter(f"{self._label}.rejected")
            temp_series = m.series(f"{self._label}.temperature")
            energy_series = m.series(f"{self._label}.energy")
        for step in range(sched.steps):
            candidate = self._neighbor(current, self._rng)
            cand_e = self._energy(candidate)
            if cand_e <= current_e or self._accept_worse(cand_e - current_e, temperature):
                if record:
                    accepted.inc()
                    if cand_e > current_e:
                        accepted_worse.inc()
                current, current_e = candidate, cand_e
                if current_e < best_e:
                    best, best_e = current, current_e
            elif record:
                rejected.inc()
            if (step + 1) % sched.moves_per_temperature == 0:
                if record:
                    # One point per temperature level, in step coordinates.
                    temp_series.append(step + 1, temperature)
                    energy_series.append(step + 1, current_e)
                temperature *= sched.cooling
        if record and sched.steps % sched.moves_per_temperature != 0:
            # Flush the trailing partial temperature level: when steps is
            # not a multiple of moves_per_temperature the loop above never
            # reaches its recording branch for the final proposals, which
            # would silently drop them from the series.
            temp_series.append(sched.steps, temperature)
            energy_series.append(sched.steps, current_e)
        return best, best_e

    def _accept_worse(self, delta: float, temperature: float) -> bool:
        if temperature <= 0:
            return False
        return self._rng.random() < math.exp(-delta / temperature)
