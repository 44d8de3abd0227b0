"""Synthetic pattern generators: random permutations, hotspots, etc.

Used by the property tests to exercise the methodology on patterns
beyond the NAS suite.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.errors import WorkloadError
from repro.model.message import Message
from repro.model.pattern import CommunicationPattern


def random_permutation_pattern(
    n: int,
    num_phases: int,
    seed: int = 0,
    size_bytes: int = 512,
    name: str = "",
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
                    size_bytes=size_bytes,
                    tag=f"perm{phase}",
                )
            )
    return CommunicationPattern(
        messages=tuple(messages),
        num_processes=n,
        name=name or f"randperm-{n}x{num_phases}",
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


def hotspot_pattern(
    n: int,
    hotspot: int = 0,
    num_phases: int = 1,
    size_bytes: int = 512,
    name: str = "",
) -> CommunicationPattern:
    """Sequential phases in which each process sends to one hotspot.

    Each phase holds a single message (they cannot overlap: the hotspot
    can only absorb one at a time through its ejection link), so the
    pattern is contention-free on any connected topology — a useful
    degenerate case for the synthesizer.
    """
    if not 0 <= hotspot < n:
        raise WorkloadError(f"hotspot {hotspot} outside range(0, {n})")
    messages: List[Message] = []
    slot = 0
    for phase in range(num_phases):
        for src in range(n):
            if src == hotspot:
                continue
            messages.append(
                Message(
                    source=src,
                    dest=hotspot,
                    t_start=float(slot),
                    t_finish=slot + 0.9,
                    size_bytes=size_bytes,
                    tag=f"hot{phase}",
                )
            )
            slot += 1
    return CommunicationPattern(
        messages=tuple(messages), num_processes=n, name=name or f"hotspot-{n}"
    )


def neighbor_ring_pattern(
    n: int,
    num_phases: int = 2,
    size_bytes: int = 512,
    name: str = "",
) -> CommunicationPattern:
    """Alternating +1 / -1 ring shifts — the friendliest possible load."""
    if n < 3:
        raise WorkloadError(f"a ring pattern needs at least 3 processes, got {n}")
    messages: List[Message] = []
    for phase in range(num_phases):
        step = 1 if phase % 2 == 0 else -1
        for src in range(n):
            messages.append(
                Message(
                    source=src,
                    dest=(src + step) % n,
                    t_start=float(phase),
                    t_finish=phase + 0.9,
                    size_bytes=size_bytes,
                    tag=f"ring{phase}",
                )
            )
    return CommunicationPattern(
        messages=tuple(messages), num_processes=n, name=name or f"ring-{n}"
    )
