"""Random-permutation patterns.

Used by the property tests to exercise the methodology on patterns
beyond the NAS suite.
"""

from __future__ import annotations

import random
from typing import List

from repro.errors import WorkloadError
from repro.model.message import Message
from repro.model.pattern import CommunicationPattern


def random_permutation_pattern(
    n: int, num_phases: int, seed: int = 0
) -> CommunicationPattern:
    """``num_phases`` contention periods, each a random full permutation
    without fixed points (a derangement-ish shuffle)."""
    if n < 2:
        raise WorkloadError(f"need at least two processes, got {n}")
    if num_phases < 1:
        raise WorkloadError(f"need at least one phase, got {num_phases}")
    rng = random.Random(seed)
    messages: List[Message] = []
    for phase in range(num_phases):
        targets = _fixed_point_free_shuffle(n, rng)
        for src, dst in enumerate(targets):
            messages.append(
                Message(
                    source=src,
                    dest=dst,
                    t_start=float(phase),
                    t_finish=phase + 0.9,
                    size_bytes=512,
                    tag=f"perm{phase}",
                )
            )
    return CommunicationPattern(
        messages=tuple(messages),
        num_processes=n,
        name=f"randperm-{n}x{num_phases}",
    )


def _fixed_point_free_shuffle(n: int, rng: random.Random) -> List[int]:
    """A uniform-ish permutation with no fixed points (rotation repair)."""
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        if perm[i] == i:
            j = (i + 1) % n
            perm[i], perm[j] = perm[j], perm[i]
    return perm
