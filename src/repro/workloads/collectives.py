"""Collective-communication building blocks.

Expands the collectives that dominate the NAS benchmarks (reductions,
broadcasts, all-to-all, transpose) into sequences of point-to-point
message phases, the level at which the contention model operates.
Every function returns a list of phases; each phase is a list of
``(source, dest)`` pairs forming a partial permutation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import WorkloadError

Phase = List[Tuple[int, int]]


def _require_group(group: Sequence[int]) -> None:
    if len(group) != len(set(group)):
        raise WorkloadError(f"group has duplicate members: {group}")
    if len(group) < 2:
        raise WorkloadError(f"collectives need at least two members, got {group}")


def pairwise_exchange(group: Sequence[int], distance: int) -> Phase:
    """Bidirectional exchange between members ``i`` and ``i XOR distance``."""
    _require_group(group)
    phase: Phase = []
    n = len(group)
    for i in range(n):
        j = i ^ distance
        if j < n and i != j:
            phase.append((group[i], group[j]))
    return phase


def recursive_halving_reduce(group: Sequence[int]) -> List[Phase]:
    """Reduce to ``group[0]``: each round the upper half sends down."""
    _require_group(group)
    n = len(group)
    if n & (n - 1):
        raise WorkloadError(f"recursive halving needs a power-of-two group, got {n}")
    phases = []
    half = n // 2
    while half >= 1:
        phases.append([(group[i + half], group[i]) for i in range(half)])
        half //= 2
    return phases


def binomial_broadcast(group: Sequence[int], root_index: int = 0) -> List[Phase]:
    """Broadcast from ``group[root_index]`` along a binomial tree."""
    _require_group(group)
    n = len(group)
    if n & (n - 1):
        raise WorkloadError(f"binomial broadcast needs a power-of-two group, got {n}")
    if not 0 <= root_index < n:
        raise WorkloadError(f"root index {root_index} outside the group")
    # Work in root-relative ranks, translate back at the end.
    phases = []
    have = 1
    while have < n:
        phase = [
            (group[(rank + root_index) % n], group[(rank + have + root_index) % n])
            for rank in range(have)
            if rank + have < n
        ]
        phases.append(phase)
        have *= 2
    return phases


def shifted_all_to_all(group: Sequence[int]) -> List[Phase]:
    """All-to-all personalized exchange as ``n - 1`` shifted permutations.

    Phase ``k`` has member ``i`` sending to member ``i + k (mod n)`` —
    the standard contention-avoiding schedule for all-to-all.
    """
    _require_group(group)
    n = len(group)
    phases = []
    for k in range(1, n):
        phases.append([(group[i], group[(i + k) % n]) for i in range(n)])
    return phases


def transpose_exchange(rows: int, cols: int) -> Phase:
    """Matrix-transpose exchange over a ``rows x cols`` process grid.

    Processor ``(r, c)`` (id ``r*cols + c``) exchanges with the
    transposed flattened index — for square grids the paper's CG
    transpose; for ``cols == 2*rows`` the NAS CG layout's exchange.
    """
    if rows < 1 or cols < 1:
        raise WorkloadError(f"bad grid {rows}x{cols}")
    n = rows * cols
    phase: Phase = []
    for me in range(n):
        partner = (me % rows) * cols + me // rows
        if partner != me:
            phase.append((me, partner))
    return phase
