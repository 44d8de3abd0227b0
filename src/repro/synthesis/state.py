"""Mutable state of the recursive-bisection methodology (paper Section 3).

The state tracks, at every step of the main partitioning algorithm:

* which processors sit on which switch,
* the switch-level route of every communication of the target pattern,
* the *pipes* — for each ordered switch pair, the set of communications
  crossing it in that direction — and their ``Fast_Color`` link
  estimates (cached, invalidated incrementally as routes change).

Routes are stored as switch paths; concrete links are only assigned at
finalization, when exact coloring fixes each pipe's width.

Hot-path machinery
------------------

The move-evaluation loops propose thousands of speculative mutations
per bisection.  Three structures keep each proposal cheap:

* **Transactions** (:meth:`SynthesisState.transaction`): mutators append
  inverse operations to an undo log while a transaction is open, so a
  speculative candidate reverts in O(routes touched) instead of the
  O(|state|) deep copies :meth:`snapshot`/:meth:`restore` pay.
  Transactions nest with savepoint semantics; an inner commit merely
  hands its operations to the enclosing transaction.
* **Incremental pipe indexes**: ``_adj`` (switch → neighbour → crossing
  communication count) answers :meth:`pipes_of`/:meth:`pipes` without
  scanning ``pipe_comms``, and ``_incident`` (switch → incident directed
  memberships) makes :meth:`pair_traffic` O(1).
* **Content-keyed coloring memoization** (:class:`~repro.synthesis.memo
  .ColorMemo`): ``Fast_Color`` is a pure function of a pipe's
  communication sets, and the loops revisit identical contents
  constantly — estimates marked dirty by a route change usually resolve
  to a cache hit instead of a clique enumeration.

All three are exact: every value observable through the public API is
byte-identical to the recompute-from-scratch implementation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import random

from repro.errors import SynthesisError
from repro.model.cliques import CliqueAnalysis
from repro.model.message import Communication
from repro.synthesis.memo import ColorMemo

SwitchPath = Tuple[int, ...]
PipeKey = Tuple[int, int]  # directed (from_switch, to_switch)

# Undo-log operation tags.
_OP_ROUTE = 0  # (comm, previous path or None)
_OP_PROC = 1  # (processor, previous switch)
_OP_SWITCH = 2  # (switch id created)

#: Shared empty directional pipe content.
_EMPTY_COMMS: FrozenSet[Communication] = frozenset()


def normalize_path(path: Sequence[int]) -> SwitchPath:
    """Collapse revisits: keep the path simple.

    Consecutive duplicates disappear and any loop (a switch appearing
    twice) is spliced out by cutting back to its first occurrence.
    Runs in O(n) via a position index of the switches currently kept.
    """
    out: List[int] = []
    pos: Dict[int, int] = {}
    for s in path:
        at = pos.get(s)
        if at is not None:
            for dropped in out[at + 1 :]:
                del pos[dropped]
            del out[at + 1 :]
        else:
            pos[s] = len(out)
            out.append(s)
    return tuple(out)


@dataclass
class StateSnapshot:
    """A restorable copy of the mutable parts of a synthesis state."""

    switch_procs: Dict[int, Set[int]]
    proc_switch: Dict[int, int]
    routes: Dict[Communication, SwitchPath]
    pipe_comms: Dict[PipeKey, Set[Communication]]
    estimates: Dict[PipeKey, int]  # unordered (min, max) keys
    next_switch: int


class Transaction:
    """Handle for one open :meth:`SynthesisState.transaction` scope.

    Leaving the scope without :meth:`commit` reverts every mutation made
    inside it.  :meth:`savepoint`/:meth:`rollback_to` give loops a way
    to keep the best state visited without deep copies.
    """

    __slots__ = ("_state", "committed")

    def __init__(self, state: "SynthesisState") -> None:
        self._state = state
        self.committed = False

    def commit(self) -> None:
        """Keep the mutations made inside this transaction."""
        self.committed = True

    def savepoint(self) -> int:
        """A marker for the current state within the scope: the length
        of the undo log."""
        return len(self._state._undo_log)

    def rollback_to(self, savepoint: int) -> None:
        """Revert every mutation made after ``savepoint``."""
        self._state._rollback(savepoint)


class SynthesisState:
    """Partitioning state over a clique analysis of the target pattern."""

    def __init__(self, analysis: CliqueAnalysis) -> None:
        self.analysis = analysis
        self.max_cliques = analysis.max_cliques
        self.comms: Tuple[Communication, ...] = tuple(sorted(analysis.communications))
        self.num_processors = analysis.pattern.num_processes
        self.switch_procs: Dict[int, Set[int]] = {}
        self.proc_switch: Dict[int, int] = {}
        self.routes: Dict[Communication, SwitchPath] = {}
        self.pipe_comms: Dict[PipeKey, Set[Communication]] = {}
        self._next_switch = 0
        # Communications incident to each processor, in self.comms
        # order — so move_processor re-anchors O(degree) routes instead
        # of scanning every communication.
        self._comms_of_proc: Dict[int, Tuple[Communication, ...]] = {
            p: () for p in range(self.num_processors)
        }
        by_proc: Dict[int, List[Communication]] = {}
        for comm in self.comms:
            by_proc.setdefault(comm.source, []).append(comm)
            if comm.dest != comm.source:
                by_proc.setdefault(comm.dest, []).append(comm)
        for p, cs in by_proc.items():
            self._comms_of_proc[p] = tuple(cs)
        # Estimate accounting: ``_estimates`` holds the accounted
        # Fast_Color value per unordered pipe key ``(min, max)``; keys
        # whose membership changed since sit in ``_dirty`` until
        # flushed.  ``_links_total``/``_pipe_deg`` are running sums over
        # the accounted values, so the global objective is O(dirty
        # pipes) instead of O(all pipes).  Accounted entries are never
        # dropped without adjusting the sums — a later refresh of a
        # stale key subtracts exactly what was accounted, which keeps
        # the aggregates correct across rollbacks and switch reuse.
        self._estimates: Dict[PipeKey, int] = {}
        self._dirty: Set[PipeKey] = set()
        self._links_total = 0
        self._pipe_deg: Dict[int, int] = {}
        # Settled total degree excess per max_degree bound, invalidated
        # whenever a refresh moves ``_pipe_deg`` or a processor changes
        # switches — the objective reads it instead of scanning every
        # switch.
        self._excess_base: Dict[int, int] = {}
        # Cached frozenset per *directed* pipe, so estimate refreshes
        # and memo lookups reuse one hash-cached set instead of
        # rebuilding (and re-hashing every Communication) per read.
        self._frozen: Dict[PipeKey, FrozenSet[Communication]] = {}
        # Incremental pipe indexes (see module docstring).
        self._adj: Dict[int, Dict[int, int]] = {}
        self._incident: Dict[int, int] = {}
        # Transaction machinery.
        self._undo_log: List[tuple] = []
        self._txn_depth = 0
        self.txn_reverts = 0
        # Shared content-keyed coloring memo (see repro.synthesis.memo).
        self.color_memo = ColorMemo(self.max_cliques)
        # Move-preview results, valid only until the next mutation
        # (annealing re-proposes the same move many times between
        # accepted steps — the state, and hence the score, is unchanged
        # in between).
        self._preview_cache: Dict[Tuple[int, int, int, int], Tuple[int, int]] = {}
        # Hypothetical pipe contents (pipe ± one communication), valid
        # until the next mutation: every candidate path of one
        # communication removes it from the same old hops, so the
        # frozensets recur across the candidate sweep.
        self._content_cache: Dict[tuple, FrozenSet[Communication]] = {}

    @classmethod
    def initial(cls, analysis: CliqueAnalysis) -> "SynthesisState":
        """The starting point: one mega-switch connecting all processors."""
        state = cls(analysis)
        mega = state._new_switch()
        for p in range(state.num_processors):
            state.switch_procs[mega].add(p)
            state.proc_switch[p] = mega
        for comm in state.comms:
            state.routes[comm] = (mega,)
        return state

    # -- switches ------------------------------------------------------

    def _new_switch(self) -> int:
        sid = self._next_switch
        self._next_switch += 1
        self.switch_procs[sid] = set()
        # Seed the per-switch index entries so the route hot loop can
        # index them directly.  ``_pipe_deg`` carries estimate
        # accounting across a rolled-back creation (a stale entry is
        # settled by the pending dirty refresh), so it is only seeded
        # when absent.
        self._adj[sid] = {}
        self._incident[sid] = 0
        if sid not in self._pipe_deg:
            self._pipe_deg[sid] = 0
        if self._txn_depth:
            self._undo_log.append((_OP_SWITCH, sid))
        return sid

    @property
    def switches(self) -> Tuple[int, ...]:
        return tuple(sorted(self.switch_procs))

    def switch_of(self, processor: int) -> int:
        return self.proc_switch[processor]

    # -- routes and pipes ----------------------------------------------

    def route_of(self, comm: Communication) -> SwitchPath:
        return self.routes[comm]

    def set_route(self, comm: Communication, path: Sequence[int]) -> None:
        """Replace a communication's switch path, updating pipe sets."""
        new_path = normalize_path(path)
        self._check_route(comm, new_path)
        old_path = self.routes.get(comm)
        if old_path == new_path:
            return
        if self._txn_depth:
            self._undo_log.append((_OP_ROUTE, comm, old_path))
        self._apply_route(comm, new_path)

    def _set_route_direct(self, comm: Communication, new_path: SwitchPath) -> None:
        """:meth:`set_route` for paths already normalized and valid by
        construction (endpoint re-anchoring) — skips re-normalization
        and validation on the move-evaluation hot path."""
        old_path = self.routes.get(comm)
        if old_path == new_path:
            return
        if self._txn_depth:
            self._undo_log.append((_OP_ROUTE, comm, old_path))
        self._apply_route(comm, new_path)

    def _apply_route(self, comm: Communication, new_path: Optional[SwitchPath]) -> None:
        """Raw route replacement: no validation, no undo logging.

        ``None`` removes the route entirely (only the undo of a route
        creation needs that).  Pipe index maintenance is inlined — this
        loop runs tens of thousands of times per bisection.
        """
        old_path = self.routes.get(comm)
        self._preview_cache.clear()
        self._content_cache.clear()
        pc = self.pipe_comms
        dirty = self._dirty
        frozen = self._frozen
        incident = self._incident
        adj = self._adj
        if old_path is not None:
            u = old_path[0]
            for v in old_path[1:]:
                duv = (u, v)
                pc[duv].discard(comm)
                dirty.add(duv if u < v else (v, u))
                frozen.pop(duv, None)
                incident[u] -= 1
                incident[v] -= 1
                row = adj[u]
                count = row[v] - 1
                if count:
                    row[v] = count
                else:
                    del row[v]
                row = adj[v]
                count = row[u] - 1
                if count:
                    row[u] = count
                else:
                    del row[u]
                u = v
        if new_path is None:
            del self.routes[comm]
            return
        u = new_path[0]
        for v in new_path[1:]:
            duv = (u, v)
            members = pc.get(duv)
            if members is None:
                members = pc[duv] = set()
            members.add(comm)
            dirty.add(duv if u < v else (v, u))
            frozen.pop(duv, None)
            incident[u] += 1
            incident[v] += 1
            row = adj[u]
            row[v] = row.get(v, 0) + 1
            row = adj[v]
            row[u] = row.get(u, 0) + 1
            u = v
        self.routes[comm] = new_path

    def _check_route(self, comm: Communication, path: SwitchPath) -> None:
        if not path:
            raise SynthesisError(f"empty route for {comm}")
        if path[0] != self.proc_switch[comm.source]:
            raise SynthesisError(
                f"route for {comm} starts at S{path[0]}, "
                f"but its source sits on S{self.proc_switch[comm.source]}"
            )
        if path[-1] != self.proc_switch[comm.dest]:
            raise SynthesisError(
                f"route for {comm} ends at S{path[-1]}, "
                f"but its destination sits on S{self.proc_switch[comm.dest]}"
            )
        for s in path:
            if s not in self.switch_procs:
                raise SynthesisError(f"route for {comm} visits unknown switch S{s}")

    def pipe_forward(self, u: int, v: int) -> FrozenSet[Communication]:
        """Communications crossing the pipe in the ``u -> v`` direction.

        The frozenset is cached per directed pipe (invalidated on
        membership change), so repeated reads — estimate refreshes, memo
        lookups — reuse one object with a cached hash.
        """
        key = (u, v)
        fs = self._frozen.get(key)
        if fs is None:
            comms = self.pipe_comms.get(key)
            fs = frozenset(comms) if comms else _EMPTY_COMMS
            self._frozen[key] = fs
        return fs

    def pipes(self) -> Tuple[FrozenSet[int], ...]:
        """All pipes (unordered switch pairs) with traffic in either direction."""
        seen = set()
        for u, row in self._adj.items():
            for v in row:
                seen.add(frozenset((u, v)))
        return tuple(sorted(seen, key=sorted))

    def pipes_of(self, switch: int) -> Tuple[int, ...]:
        """Switches sharing a non-empty pipe with ``switch``."""
        row = self._adj.get(switch)
        return tuple(sorted(row)) if row else ()

    def pair_traffic(self, si: int, sj: int) -> int:
        """Communications crossing any directed pipe incident to the
        pair — the secondary move objective, answered in O(1) from the
        incidence index."""
        cross = len(self.pipe_comms.get((si, sj), ())) + len(
            self.pipe_comms.get((sj, si), ())
        )
        return self._incident[si] + self._incident[sj] - cross

    def _refresh(self, key: PipeKey) -> int:
        """Recompute one pipe's accounted estimate, adjusting the sums."""
        u, v = key
        frozen = self._frozen
        pc = self.pipe_comms
        duv = (u, v)
        fwd = frozen.get(duv)
        if fwd is None:
            members = pc.get(duv)
            fwd = frozenset(members) if members else _EMPTY_COMMS
            frozen[duv] = fwd
        dvu = (v, u)
        bwd = frozen.get(dvu)
        if bwd is None:
            members = pc.get(dvu)
            bwd = frozenset(members) if members else _EMPTY_COMMS
            frozen[dvu] = bwd
        new = self.color_memo.fast_pair(fwd, bwd) if (fwd or bwd) else 0
        old = self._estimates.get(key, 0)
        if new != old:
            delta = new - old
            self._links_total += delta
            deg = self._pipe_deg
            deg[u] += delta
            deg[v] += delta
            self._excess_base.clear()
        self._estimates[key] = new
        return new

    def _flush_dirty(self) -> None:
        """Settle every dirty pipe so the aggregate sums are current."""
        dirty = self._dirty
        if dirty:
            refresh = self._refresh
            for key in dirty:
                refresh(key)
            dirty.clear()

    def pipe_estimate(self, u: int, v: int) -> int:
        """``Fast_Color`` link estimate for the pipe between two switches."""
        key = (u, v) if u < v else (v, u)
        if key in self._dirty:
            self._dirty.discard(key)
            return self._refresh(key)
        return self._estimates.get(key, 0)

    def estimated_degree(self, switch: int) -> int:
        """Estimated port count: processors + estimated pipe links."""
        self._flush_dirty()
        return len(self.switch_procs[switch]) + self._pipe_deg.get(switch, 0)

    def total_links(self) -> int:
        """Sum of link estimates over every pipe (the synthesis objective)."""
        self._flush_dirty()
        return self._links_total

    def all_estimated_degrees(self) -> Dict[int, int]:
        """Estimated port count of every switch, from the running sums."""
        self._flush_dirty()
        deg = self._pipe_deg
        return {s: len(procs) + deg.get(s, 0) for s, procs in self.switch_procs.items()}

    def _excess(self, max_degree: int) -> int:
        """Settled total degree excess; call after :meth:`_flush_dirty`."""
        base = self._excess_base.get(max_degree)
        if base is None:
            deg = self._pipe_deg
            base = 0
            for s, procs in self.switch_procs.items():
                over = len(procs) + deg.get(s, 0) - max_degree
                if over > 0:
                    base += over
            self._excess_base[max_degree] = base
        return base

    def objective(self, max_degree: int) -> Tuple[int, int]:
        """(total degree excess over ``max_degree``, total links) — the
        lexicographic objective of the global route optimizers."""
        self._flush_dirty()
        return (self._excess(max_degree), self._links_total)

    def local_links(self, switches: Iterable[int]) -> int:
        """Sum of link estimates over pipes incident to any given switch."""
        self._flush_dirty()
        adj = self._adj
        est = self._estimates
        pairs = set()
        for s in switches:
            row = adj.get(s)
            if row:
                for other in row:
                    pairs.add((s, other) if s < other else (other, s))
        return sum(est.get(pair, 0) for pair in pairs)

    # -- previews ---------------------------------------------------------
    #
    # The optimization loops evaluate thousands of candidates and reject
    # most of them.  Previews compute exactly the objective a candidate
    # mutation would produce — from the settled aggregates plus the
    # hypothetical contents of the touched pipes — without mutating the
    # state, so a rejected candidate costs no apply/rollback churn at
    # all.  Every preview value is byte-identical to mutate-then-read.

    def preview_route_change(
        self, comm: Communication, new_path: SwitchPath
    ) -> Dict[PipeKey, FrozenSet[Communication]]:
        """Directed pipe contents a hypothetical :meth:`set_route` would
        produce, keyed by directed pipe — only the changed pipes."""
        old_path = self.routes[comm]
        old_hops = set(zip(old_path, old_path[1:]))
        new_hops = set(zip(new_path, new_path[1:]))
        changed: Dict[PipeKey, FrozenSet[Communication]] = {}
        cache = self._content_cache
        single = None
        for sign, hops in ((-1, old_hops - new_hops), (1, new_hops - old_hops)):
            for duv in hops:
                key = (duv, comm, sign)
                fs = cache.get(key)
                if fs is None:
                    if single is None:
                        single = frozenset((comm,))
                    base = self.pipe_forward(*duv)
                    fs = base - single if sign < 0 else base | single
                    cache[key] = fs
                changed[duv] = fs
        return changed

    def _preview_estimate(
        self, key: PipeKey, changed: Dict[PipeKey, FrozenSet[Communication]]
    ) -> int:
        """Estimate of one unordered pipe under hypothetical contents."""
        u, v = key
        fwd = changed.get((u, v))
        if fwd is None:
            fwd = self.pipe_forward(u, v)
        bwd = changed.get((v, u))
        if bwd is None:
            bwd = self.pipe_forward(v, u)
        if fwd or bwd:
            return self.color_memo.fast_pair(fwd, bwd)
        return 0

    def preview_objective(
        self,
        changed: Dict[PipeKey, FrozenSet[Communication]],
        max_degree: int,
    ) -> Tuple[int, int]:
        """:meth:`objective` as it would read after applying ``changed``."""
        self._flush_dirty()
        est = self._estimates
        memo_pair = self.color_memo.fast_pair
        delta_links = 0
        deg_delta: Dict[int, int] = {}
        seen: Set[PipeKey] = set()
        for u, v in changed:
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            fwd = changed.get((u, v))
            if fwd is None:
                fwd = self.pipe_forward(u, v)
            bwd = changed.get((v, u))
            if bwd is None:
                bwd = self.pipe_forward(v, u)
            new = memo_pair(fwd, bwd) if (fwd or bwd) else 0
            d = new - est.get(key, 0)
            if d:
                delta_links += d
                deg_delta[u] = deg_delta.get(u, 0) + d
                deg_delta[v] = deg_delta.get(v, 0) + d
        excess = self._excess(max_degree)
        if deg_delta:
            deg = self._pipe_deg
            sp = self.switch_procs
            for s, d in deg_delta.items():
                cur = len(sp[s]) + deg[s] - max_degree
                after = cur + d
                excess += (after if after > 0 else 0) - (cur if cur > 0 else 0)
        return (excess, self._links_total + delta_links)

    def preview_local_links(
        self,
        changed: Dict[PipeKey, FrozenSet[Communication]],
        switches: Iterable[int],
    ) -> int:
        """:meth:`local_links` over ``switches`` as it would read after
        applying ``changed`` (changed pipes always touch switches of the
        candidate path, which callers include)."""
        self._flush_dirty()
        adj = self._adj
        est = self._estimates
        touched: Set[PipeKey] = set()
        for u, v in changed:
            touched.add((u, v) if u < v else (v, u))
        pairs = set(touched)
        for s in switches:
            row = adj.get(s)
            if row:
                for other in row:
                    pairs.add((s, other) if s < other else (other, s))
        total = 0
        for key in pairs:
            if key in touched:
                total += self._preview_estimate(key, changed)
            else:
                total += est.get(key, 0)
        return total

    def preview_move_score(
        self, processor: int, to_switch: int, si: int, sj: int
    ) -> Tuple[int, int]:
        """The move objective ``(local links around the pair, pair
        traffic)`` as it would read after
        ``move_processor(processor, to_switch)`` — without mutating.

        Exactly reproduces the route re-anchoring of
        :meth:`move_processor` on hypothetical pipe contents, then
        evaluates the same quantities :func:`repro.synthesis.moves
        ._score` reads.

        Results are cached until the next mutation: the annealing walk
        re-proposes moves against an unchanged state most of the time.
        """
        cache_key = (processor, to_switch, si, sj)
        cached = self._preview_cache.get(cache_key)
        if cached is not None:
            return cached
        self._flush_dirty()
        proc_switch = self.proc_switch
        routes = self.routes
        pc = self.pipe_comms
        contents: Dict[PipeKey, Set[Communication]] = {}
        cnt_delta: Dict[PipeKey, int] = {}
        inc_delta: Dict[int, int] = {}
        for comm in self._comms_of_proc[processor]:
            old_path = routes[comm]
            src = to_switch if comm.source == processor else proc_switch[comm.source]
            dst = to_switch if comm.dest == processor else proc_switch[comm.dest]
            if src == dst:
                new_path: SwitchPath = (src,)
            elif len(old_path) <= 2:
                new_path = (src, dst)
            else:
                new_path = normalize_path([src, *old_path[1:-1], dst])
            if new_path == old_path:
                continue
            for path, sign in ((old_path, -1), (new_path, 1)):
                u = path[0]
                for v in path[1:]:
                    duv = (u, v)
                    working = contents.get(duv)
                    if working is None:
                        working = contents[duv] = set(pc.get(duv, ()))
                    if sign < 0:
                        working.discard(comm)
                    else:
                        working.add(comm)
                    key = duv if u < v else (v, u)
                    cnt_delta[key] = cnt_delta.get(key, 0) + sign
                    inc_delta[u] = inc_delta.get(u, 0) + sign
                    inc_delta[v] = inc_delta.get(v, 0) + sign
                    u = v
        adj = self._adj
        est = self._estimates
        touched_switches = set()
        for a, b in cnt_delta:
            touched_switches.add(a)
            touched_switches.add(b)

        def neighbors_after(s: int):
            row = adj.get(s) or {}
            if s not in touched_switches:
                # No pipe of this switch changes membership — its
                # neighbour set is exactly the settled adjacency row.
                return row.keys()
            out = set()
            for other, count in row.items():
                key = (s, other) if s < other else (other, s)
                if count + cnt_delta.get(key, 0) > 0:
                    out.add(other)
            for key, d in cnt_delta.items():
                if d > 0:
                    a, b = key
                    if a == s and b not in row:
                        out.add(b)
                    elif b == s and a not in row:
                        out.add(a)
            return out

        affected = {si, sj} | neighbors_after(si) | neighbors_after(sj)
        pairs: Set[PipeKey] = set()
        for s in affected:
            for other in neighbors_after(s):
                pairs.add((s, other) if s < other else (other, s))
        links = 0
        memo_pair = self.color_memo.fast_pair
        for key in pairs:
            u, v = key
            fwd_work = contents.get((u, v))
            bwd_work = contents.get((v, u))
            if fwd_work is None and bwd_work is None:
                links += est.get(key, 0)
                continue
            fwd = frozenset(fwd_work) if fwd_work is not None else self.pipe_forward(u, v)
            bwd = frozenset(bwd_work) if bwd_work is not None else self.pipe_forward(v, u)
            if fwd or bwd:
                links += memo_pair(fwd, bwd)
        forward_pair = contents.get((si, sj))
        if forward_pair is None:
            forward_pair = pc.get((si, sj), ())
        backward_pair = contents.get((sj, si))
        if backward_pair is None:
            backward_pair = pc.get((sj, si), ())
        incident = self._incident
        traffic = (
            incident[si]
            + inc_delta.get(si, 0)
            + incident[sj]
            + inc_delta.get(sj, 0)
            - len(forward_pair)
            - len(backward_pair)
        )
        score = (links, traffic)
        self._preview_cache[cache_key] = score
        return score

    # -- partitioning moves ---------------------------------------------

    def split_switch(self, si: int, rng: random.Random) -> int:
        """Partition ``si``: create a sibling and move half the processors.

        The moved half is chosen uniformly at random (Appendix step 5);
        routes through ``si`` are rewritten with direct paths, i.e. each
        occurrence of ``si`` keeps its identity except at endpoints that
        moved.
        """
        procs = sorted(self.switch_procs[si])
        if len(procs) < 2:
            raise SynthesisError(f"cannot split switch S{si} with {len(procs)} processor(s)")
        sj = self._new_switch()
        self._preview_cache.clear()
        self._excess_base.clear()
        moved = rng.sample(procs, len(procs) // 2)
        for p in moved:
            if self._txn_depth:
                self._undo_log.append((_OP_PROC, p, si))
            self.switch_procs[si].discard(p)
            self.switch_procs[sj].add(p)
            self.proc_switch[p] = sj
        for comm in self.comms:
            path = self.routes[comm]
            if si in path or self.proc_switch[comm.source] == sj or self.proc_switch[comm.dest] == sj:
                self._set_route_direct(comm, self._endpoint_adjusted(comm, path))
        return sj

    def move_processor(self, processor: int, to_switch: int) -> None:
        """Move one processor to another switch, re-anchoring its routes.

        Routes of communications that start or end at the processor are
        re-anchored on the new switch directly (Appendix step 7 assumes
        direct paths when evaluating moves).
        """
        frm = self.proc_switch[processor]
        if frm == to_switch:
            return
        if to_switch not in self.switch_procs:
            raise SynthesisError(f"no switch S{to_switch}")
        if self._txn_depth:
            self._undo_log.append((_OP_PROC, processor, frm))
        self._preview_cache.clear()
        self._excess_base.clear()
        self.switch_procs[frm].discard(processor)
        self.switch_procs[to_switch].add(processor)
        self.proc_switch[processor] = to_switch
        for comm in self._comms_of_proc[processor]:
            self._set_route_direct(comm, self._endpoint_adjusted(comm, self.routes[comm]))

    def _endpoint_adjusted(self, comm: Communication, path: SwitchPath) -> SwitchPath:
        """Re-anchor a path on the current switches of its endpoints.

        The interior of the old path is preserved (direct adjustment);
        :func:`normalize_path` splices out any loop the re-anchoring
        introduces.
        """
        src = self.proc_switch[comm.source]
        dst = self.proc_switch[comm.dest]
        if src == dst:
            return (src,)
        if len(path) <= 2:
            # No interior to preserve: the direct hop is already simple.
            return (src, dst)
        return normalize_path([src, *path[1:-1], dst])

    # -- transactions ----------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Scope for speculative mutations.

        Mutations made inside the ``with`` block are reverted on exit —
        in O(routes touched) via the undo log — unless
        :meth:`Transaction.commit` was called.  Scopes nest: committing
        an inner transaction hands its operations to the enclosing one,
        which may still revert them wholesale.
        """
        txn = Transaction(self)
        mark = len(self._undo_log)
        self._txn_depth += 1
        try:
            yield txn
        finally:
            self._txn_depth -= 1
            if txn.committed:
                if self._txn_depth == 0:
                    del self._undo_log[mark:]
            else:
                self._rollback(mark)
                self.txn_reverts += 1

    def _rollback(self, mark: int) -> None:
        """Undo logged operations down to ``mark``, newest first."""
        self._preview_cache.clear()
        self._excess_base.clear()
        log = self._undo_log
        while len(log) > mark:
            op = log.pop()
            kind = op[0]
            if kind == _OP_ROUTE:
                self._apply_route(op[1], op[2])
            elif kind == _OP_PROC:
                processor, previous = op[1], op[2]
                current = self.proc_switch[processor]
                self.switch_procs[current].discard(processor)
                self.switch_procs[previous].add(processor)
                self.proc_switch[processor] = previous
            else:  # _OP_SWITCH
                sid = op[1]
                del self.switch_procs[sid]
                self._adj.pop(sid, None)
                self._incident.pop(sid, None)
                self._next_switch = sid

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> StateSnapshot:
        """Capture the mutable state for later :meth:`restore`.

        Deep-copies O(|state|); the synthesis passes use
        :meth:`transaction` instead, and the tests use snapshots as the
        reference the undo log is checked against.
        """
        self._flush_dirty()
        return StateSnapshot(
            switch_procs={s: set(ps) for s, ps in self.switch_procs.items()},
            proc_switch=dict(self.proc_switch),
            routes=dict(self.routes),
            pipe_comms={k: set(v) for k, v in self.pipe_comms.items()},
            estimates=dict(self._estimates),
            next_switch=self._next_switch,
        )

    def restore(self, snap: StateSnapshot) -> None:
        """Rewind to a previously captured snapshot.

        Not valid while a transaction is open on intervening mutations:
        the undo log would describe a state that no longer exists.
        """
        if self._txn_depth:
            raise SynthesisError("cannot restore a snapshot inside a transaction")
        self.switch_procs = {s: set(ps) for s, ps in snap.switch_procs.items()}
        self.proc_switch = dict(snap.proc_switch)
        self.routes = dict(snap.routes)
        self.pipe_comms = {k: set(v) for k, v in snap.pipe_comms.items()}
        self._next_switch = snap.next_switch
        self._undo_log.clear()
        self._preview_cache.clear()
        self._content_cache.clear()
        self._excess_base.clear()
        # Snapshot estimates were settled against the captured pipe
        # contents, so they seed the accounting; any non-empty pipe the
        # snapshot had not accounted starts dirty and settles lazily
        # (usually a memo hit).
        self._estimates = dict(snap.estimates)
        self._links_total = sum(self._estimates.values())
        self._pipe_deg = {s: 0 for s in self.switch_procs}
        for (u, v), val in self._estimates.items():
            if val:
                self._pipe_deg[u] = self._pipe_deg.get(u, 0) + val
                self._pipe_deg[v] = self._pipe_deg.get(v, 0) + val
        self._dirty = set()
        self._frozen = {}
        self._adj = {s: {} for s in self.switch_procs}
        self._incident = {s: 0 for s in self.switch_procs}
        for (u, v), comms in self.pipe_comms.items():
            count = len(comms)
            if not count:
                continue
            key = (u, v) if u < v else (v, u)
            if key not in self._estimates:
                self._dirty.add(key)
            self._incident[u] += count
            self._incident[v] += count
            row = self._adj[u]
            row[v] = row.get(v, 0) + count
            row = self._adj[v]
            row[u] = row.get(u, 0) + count

    # -- reporting --------------------------------------------------------

    def describe(self) -> str:
        """Multi-line dump in the style of the paper's Figure 5."""
        lines = [f"state: {len(self.switches)} switches, est. {self.total_links()} links"]
        for s in self.switches:
            procs = ",".join(str(p) for p in sorted(self.switch_procs[s]))
            pipes = ", ".join(
                f"S{o}:{self.pipe_estimate(s, o)}" for o in self.pipes_of(s)
            )
            lines.append(
                f"  S{s} procs[{procs}] deg~{self.estimated_degree(s)} pipes[{pipes}]"
            )
        return "\n".join(lines)
