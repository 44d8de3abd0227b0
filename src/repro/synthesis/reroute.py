"""Global route optimization for design-constraint satisfaction.

``Best_Route`` only considers detours through the sibling of a freshly
split switch.  Patterns whose processes talk to many distinct partners
(BT/SP's six-neighbour sweeps) additionally need *multi-hop* routes
that funnel several logical neighbours over one physical link; the
paper folds this into its simulated-annealing route optimization.  This
module implements that global pass: communications crossing a pipe of
an over-budget switch are detoured through intermediate switches
whenever doing so reduces, lexicographically, (total degree excess,
total estimated links).

A detour through ``m`` takes a communication off its ``s-k`` hop
``u -> v`` (in path order) and puts it on ``u -> m`` and ``m -> v``.
:meth:`~repro.synthesis.state.SynthesisState.preview_detours` prices
every ``m`` from one shared ``s-k`` delta plus the ``u-m`` and ``m-v``
deltas; each price equals what ``preview_objective`` reads for
``preview_route_change`` of that detour.

``Fast_Color`` is ``max_K |K ∩ C|``, so a pipe's estimate never drops
when the pipe gains a communication.  If taking the communication off
``u -> v`` leaves the ``s-k`` estimate unchanged, then under any detour
no estimate and no switch degree drops, and ``(excess, links)`` cannot
fall.  :func:`_improve_comm` then skips the detours.  A shortcut that
drops the interior switch ``w`` from ``… a, w, b …`` takes the
communication off ``a -> w`` and ``w -> b`` and puts it on ``a -> b``;
by the same argument it cannot lower the objective unless one of those
two removals lowers its pipe's estimate, so :func:`_improve_comm` skips
it before building a preview.  Both prunes read
:meth:`~repro.synthesis.state.SynthesisState.hop_relief`, and
:func:`_improve_comm` commits the same move as a sweep over every
candidate.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.model.message import Communication
from repro.synthesis.constraints import DesignConstraints
from repro.synthesis.state import SynthesisState


def reduce_degree_violations(state: SynthesisState, constraints: DesignConstraints) -> int:
    """Greedy global rerouting until no move lowers the objective.

    In each round, every communication crossing a pipe of an over-budget
    switch tries (a) a detour through a switch piped to either end of
    the hop and (b) a shortcut that removes an intermediate switch from
    its path.  Moves are committed when they strictly lower (degree
    excess, total links), so the loop terminates; it also stops after
    30 rounds.
    Returns the number of committed moves.
    """
    moves = 0
    for _ in range(30):
        violators = [
            s
            for s in state.switches
            if state.estimated_degree(s) > constraints.max_degree
        ]
        if not violators:
            break
        improved = False
        for s in sorted(violators, key=state.estimated_degree, reverse=True):
            for k in state.pipes_of(s):
                crossing = sorted(
                    state.pipe_forward(s, k) | state.pipe_forward(k, s)
                )
                for comm in crossing:
                    if _improve_comm(state, constraints, comm, s, k):
                        moves += 1
                        improved = True
            # Compound move: emptying a whole pipe drops one port at
            # both endpoints; single-communication moves cannot cross
            # that barrier when the pipe carries several non-conflicting
            # communications.
            for k in state.pipes_of(s):
                if _try_eliminate_pipe(state, constraints, s, k):
                    moves += 1
                    improved = True
        if not improved:
            break
    return moves


def _try_eliminate_pipe(
    state: SynthesisState,
    constraints: DesignConstraints,
    s: int,
    k: int,
) -> bool:
    """Reroute every communication off the ``s-k`` pipe if that lowers
    the objective overall (each communication takes its individually
    best detour, the first minimum in candidate order)."""
    crossing = sorted(state.pipe_forward(s, k) | state.pipe_forward(k, s))
    if not crossing:
        return False
    max_degree = constraints.max_degree
    before = state.objective(max_degree)
    with state.transaction() as txn:
        for comm in crossing:
            path = state.route_of(comm)
            if not _uses_hop(path, s, k):
                continue
            best_path = None
            best_score = None
            _, detours = state.preview_detours(comm, s, k, max_degree)
            for candidate, score in detours:
                if best_score is None or score < best_score:
                    best_score = score
                    best_path = candidate
            for candidate in _shortcuts(path):
                if _uses_hop(candidate, s, k):
                    continue
                changed = state.preview_route_change(comm, candidate)
                score = state.preview_objective(changed, max_degree)
                if best_score is None or score < best_score:
                    best_score = score
                    best_path = candidate
            if best_path is None:
                return False
            state.set_route(comm, best_path)
        if state.objective(max_degree) < before:
            txn.commit()
            return True
    return False


def global_processor_moves(state: SynthesisState, constraints: DesignConstraints) -> int:
    """Move processors off over-budget switches onto any other switch.

    A last-resort escape used when no violating switch can be split
    further: relocating a processor (with direct route re-anchoring)
    can relieve a port-starved switch.  Moving a switch's only
    processor is allowed — the switch then becomes a pure relay (or
    dies and is dropped at materialization).  Moves commit only when
    they strictly lower (degree excess, total links), for at most 10
    rounds.  Returns the number of committed moves.
    """
    moves = 0
    for _ in range(10):
        violators = [
            s
            for s in state.switches
            if state.estimated_degree(s) > constraints.max_degree
        ]
        if not violators:
            break
        improved = False
        for s in violators:
            if not state.switch_procs[s]:
                continue
            before = state.objective(constraints.max_degree)
            for proc in sorted(state.switch_procs[s]):
                for target in state.switches:
                    if target == s:
                        continue
                    with state.transaction() as txn:
                        state.move_processor(proc, target)
                        if state.objective(constraints.max_degree) < before:
                            txn.commit()
                            moves += 1
                            improved = True
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    return moves


def _improve_comm(
    state: SynthesisState,
    constraints: DesignConstraints,
    comm: Communication,
    s: int,
    k: int,
) -> bool:
    """Commit the first single-switch detour, then shortcut, of one hop
    of ``comm`` that lowers the objective.  Detours are priced only when
    leaving the hop lowers its estimate, and a shortcut only when leaving
    one of the two hops it replaces does (see the module docstring)."""
    old_path = state.route_of(comm)
    if not _uses_hop(old_path, s, k):
        return False
    max_degree = constraints.max_degree
    before = state.objective(max_degree)
    relief, detours = state.preview_detours(comm, s, k, max_degree)
    if relief < 0:
        for candidate, score in detours:
            if score < before:
                state.set_route(comm, candidate)
                return True
    for idx in range(1, len(old_path) - 1):
        a, w, b = old_path[idx - 1 : idx + 2]
        if not (state.hop_relief(comm, a, w) or state.hop_relief(comm, w, b)):
            continue
        candidate = old_path[:idx] + old_path[idx + 1 :]
        changed = state.preview_route_change(comm, candidate)
        if state.preview_objective(changed, max_degree) < before:
            state.set_route(comm, candidate)
            return True
    return False


def _uses_hop(path: Tuple[int, ...], s: int, k: int) -> bool:
    prev = path[0]
    for node in path[1:]:
        if (prev == s and node == k) or (prev == k and node == s):
            return True
        prev = node
    return False


def _shortcuts(path: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Routes that drop one interior switch of ``path`` — simple paths
    again, since ``path`` is simple."""
    return [path[:idx] + path[idx + 1 :] for idx in range(1, len(path) - 1)]
