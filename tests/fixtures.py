"""Shared test fixtures: small hand-built patterns, including the
paper's Figure 1 CG example (translated to 0-indexed processors), and
a hand-split synthesis state."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.model import CliqueAnalysis, Communication, CommunicationPattern, Message
from repro.synthesis import SynthesisState


def pattern_from_phases(
    phases: Sequence[Sequence[Tuple[int, int]]],
    num_processes: int,
    name: str = "fixture",
    size_bytes: int = 1024,
) -> CommunicationPattern:
    """Build a pattern where phase ``i`` occupies the interval (i, i+0.9).

    Phases are strictly separated in time (no shared endpoints), so each
    phase is exactly one contention period.
    """
    messages: List[Message] = []
    for i, phase in enumerate(phases):
        for s, d in phase:
            messages.append(
                Message(
                    source=s,
                    dest=d,
                    t_start=float(i),
                    t_finish=i + 0.9,
                    size_bytes=size_bytes,
                    tag=f"phase{i}",
                )
            )
    return CommunicationPattern(
        messages=tuple(messages), num_processes=num_processes, name=name
    )


def _row_exchange(row: Sequence[int], distance: int) -> List[Tuple[int, int]]:
    """Pairwise exchange at ``distance`` within a row (both directions)."""
    msgs = []
    n = len(row)
    for i in range(n):
        j = i ^ distance
        if j < n:
            msgs.append((row[i], row[j]))
    return msgs


def figure1_pattern() -> CommunicationPattern:
    """The CG communication pattern of the paper's Figure 1 (16 nodes).

    Three contention periods: row-reduction exchanges at distance 1 and
    2 within each row of a 4x4 process grid, then the matrix-transpose
    exchange.  Period 3 matches the clique listed in Section 2.2 (the
    paper uses 1-indexed nodes; we use 0-indexed).
    """
    rows = [[4 * r + c for c in range(4)] for r in range(4)]
    phase1 = [m for row in rows for m in _row_exchange(row, 1)]
    phase2 = [m for row in rows for m in _row_exchange(row, 2)]
    phase3 = []
    for r in range(4):
        for c in range(4):
            if r != c:
                phase3.append((4 * r + c, 4 * c + r))
    return pattern_from_phases(
        [phase1, phase2, phase3], num_processes=16, name="figure1-cg"
    )


# The transpose clique of the paper's "Contention Period 3", 1-indexed
# as printed: {(2,5), (5,2), (3,9), (9,3), (4,13), (13,4), (7,10),
# (10,7), (8,14), (14,8), (12,15), (15,12)}.
PAPER_PERIOD3_1INDEXED = [
    (2, 5), (5, 2), (3, 9), (9, 3), (4, 13), (13, 4),
    (7, 10), (10, 7), (8, 14), (14, 8), (12, 15), (15, 12),
]


def paper_period3_clique() -> frozenset:
    """Period-3 clique translated to 0-indexed communications."""
    return frozenset(Communication(s - 1, d - 1) for s, d in PAPER_PERIOD3_1INDEXED)


def dense_stuck_state() -> SynthesisState:
    """A 6-process pattern where each process talks to many partners,
    split down to one processor per switch with direct routes."""
    phases = [
        [(i, (i + 1) % 6) for i in range(6)],
        [(i, (i + 2) % 6) for i in range(6)],
        [(i, (i + 3) % 6) for i in range(6)],
    ]
    pattern = pattern_from_phases(phases, num_processes=6)
    state = SynthesisState.initial(CliqueAnalysis.of(pattern))
    # Manually split into singletons with direct routes.
    for p in range(1, 6):
        s = state._new_switch()
        state.switch_procs[0].discard(p)
        state.switch_procs[s].add(p)
        state.proc_switch[p] = s
    for comm in state.comms:
        state.set_route(comm, state._endpoint_adjusted(comm, (0,)))
    return state
