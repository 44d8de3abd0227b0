"""Property tests for the undo-log synthesis-state hot path.

Three contracts the hot-path overhaul rests on, checked over random
patterns and operation sequences:

* **transaction revert is exact** — after any sequence of
  ``move_processor``/``set_route`` mutations inside an uncommitted
  transaction, the undo-log rewind restores the state a deep snapshot
  captured (routes, pipe contents, estimates, degrees, objective);
* **memoized coloring is transparent** — ``ColorMemo`` returns exactly
  what the unmemoized ``Fast_Color`` computes, including on cache hits;
* **preview equals apply** — the preview evaluators
  (``preview_route_change``/``preview_objective``/
  ``preview_local_links``/``preview_move_score``) predict precisely
  what mutating and re-reading the state yields;
* **detour pricing is exact** — ``preview_detours`` prices every detour
  exactly as ``preview_objective`` does, a hop whose relief is zero has
  no improving detour, a shortcut whose two dropped hops both have zero
  relief does not improve, and the global reroute pass ends where the
  per-candidate sweep it replaced ends.
"""

import random
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.model import CliqueAnalysis
from repro.synthesis import DesignConstraints, Partitioner, reroute
from repro.synthesis.fast_color import fast_color
from repro.synthesis.memo import ColorMemo
from repro.synthesis.moves import _score
from repro.synthesis.state import SynthesisState, normalize_path
from repro.workloads import random_permutation_pattern

from tests.fixtures import dense_stuck_state

MAX_DEGREE = 8


def _prepared_state(pattern_seed, rng):
    """A small synthesis state with several switches to move between."""
    pattern = random_permutation_pattern(6, 2, seed=pattern_seed)
    analysis = CliqueAnalysis.of(pattern)
    state = SynthesisState.initial(analysis)
    state.split_switch(state.switches[0], rng)
    for s in state.switches:
        if len(state.switch_procs[s]) >= 2:
            state.split_switch(s, rng)
            break
    return state


def _split_state(pattern_seed, rng, splits=4):
    """A larger state: eight processes, three periods, several splits."""
    pattern = random_permutation_pattern(8, 3, seed=pattern_seed)
    state = SynthesisState.initial(CliqueAnalysis.of(pattern))
    for _ in range(splits):
        splittable = [s for s in state.switches if len(state.switch_procs[s]) >= 2]
        state.split_switch(rng.choice(splittable), rng)
    return state


def _canonical(state):
    """Everything observable about a state, in comparable form."""
    return (
        {s: tuple(sorted(ps)) for s, ps in state.switch_procs.items()},
        dict(state.proc_switch),
        dict(state.routes),
        {k: frozenset(v) for k, v in state.pipe_comms.items() if v},
        state.all_estimated_degrees(),
        state.total_links(),
        state.objective(MAX_DEGREE),
    )


def _random_path(state, rng, comm):
    """A random valid route for ``comm`` (endpoints anchored, existing
    switches only); ``set_route`` normalizes it."""
    start = state.switch_of(comm.source)
    end = state.switch_of(comm.dest)
    switches = list(state.switches)
    middle = rng.sample(switches, k=rng.randrange(0, min(3, len(switches)) + 1))
    return [start, *middle, end]


def _mutate_randomly(state, rng, steps):
    comms = sorted(state.comms)
    for _ in range(steps):
        if rng.randrange(2) == 0 and comms:
            comm = rng.choice(comms)
            state.set_route(comm, _random_path(state, rng, comm))
        else:
            proc = rng.choice(sorted(state.proc_switch))
            to = rng.choice(list(state.switches))
            if to != state.switch_of(proc):
                state.move_processor(proc, to)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=500),
    steps=st.integers(min_value=1, max_value=12),
)
def test_transaction_revert_equals_deep_snapshot(seed, steps):
    rng = random.Random(seed)
    state = _prepared_state(seed % 3, rng)
    snap = state.snapshot()
    before = _canonical(state)
    with state.transaction():
        _mutate_randomly(state, rng, steps)
        # no commit: leaving the scope must rewind everything
    assert _canonical(state) == before
    # The deep snapshot agrees with the undo-log rewind.
    state.restore(snap)
    assert _canonical(state) == before


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=500),
    steps=st.integers(min_value=1, max_value=10),
    keep=st.integers(min_value=0, max_value=5),
)
def test_savepoint_rewind_is_partial_and_exact(seed, steps, keep):
    """Rolling back to a mid-sequence savepoint reproduces the state a
    deep snapshot captured at the same point."""
    rng = random.Random(seed)
    state = _prepared_state(seed % 3, rng)
    with state.transaction() as txn:
        _mutate_randomly(state, rng, min(keep, steps))
        mark = txn.savepoint()
        at_mark = _canonical(state)
        _mutate_randomly(state, rng, steps)
        txn.rollback_to(mark)
        assert _canonical(state) == at_mark
        txn.commit()
    assert _canonical(state) == at_mark


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pattern_seed=st.sampled_from([0, 1, 2]),
    subset_seed=st.integers(min_value=0, max_value=500),
)
def test_memoized_fast_color_equals_unmemoized(pattern_seed, subset_seed):
    pattern = random_permutation_pattern(6, 2, seed=pattern_seed)
    analysis = CliqueAnalysis.of(pattern)
    memo = ColorMemo(analysis.max_cliques)
    rng = random.Random(subset_seed)
    comms = sorted(analysis.communications)
    draws = []
    for _ in range(8):
        fwd = frozenset(rng.sample(comms, rng.randrange(0, len(comms) + 1)))
        bwd = frozenset(rng.sample(comms, rng.randrange(0, len(comms) + 1)))
        draws.append((fwd, bwd))
    # Two passes over the same draws: the second is all cache hits and
    # must still agree with the pure function.
    for _ in range(2):
        for fwd, bwd in draws:
            expected = fast_color(fwd, bwd, analysis.max_cliques)
            assert memo.fast(fwd, bwd) == expected
            assert memo.fast_pair(fwd, bwd) == expected
    assert memo.fast_hits > 0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=500))
def test_preview_route_change_equals_apply(seed):
    rng = random.Random(seed)
    state = _prepared_state(seed % 3, rng)
    comms = sorted(state.comms)
    for _ in range(6):
        comm = rng.choice(comms)
        candidate = normalize_path(_random_path(state, rng, comm))
        changed = state.preview_route_change(comm, candidate)
        predicted_objective = state.preview_objective(changed, MAX_DEGREE)
        affected = set(state.route_of(comm)) | set(candidate)
        predicted_local = state.preview_local_links(changed, affected)
        with state.transaction():
            state.set_route(comm, candidate)
            assert state.objective(MAX_DEGREE) == predicted_objective
            assert state.local_links(affected) == predicted_local
            # no commit: next iteration previews against the old state


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=500))
def test_preview_move_score_equals_apply(seed):
    rng = random.Random(seed)
    state = _prepared_state(seed % 3, rng)
    switches = list(state.switches)
    checked = 0
    for _ in range(10):
        si, sj = rng.sample(switches, 2)
        candidates = [(p, sj) for p in sorted(state.switch_procs[si])] + [
            (p, si) for p in sorted(state.switch_procs[sj])
        ]
        if not candidates:
            continue
        proc, to = rng.choice(candidates)
        predicted = state.preview_move_score(proc, to, si, sj)
        # The preview cache must not go stale: ask twice.
        assert state.preview_move_score(proc, to, si, sj) == predicted
        with state.transaction():
            state.move_processor(proc, to)
            assert _score(state, si, sj) == predicted
        checked += 1
    assert checked > 0


# The per-candidate sweep ``preview_detours`` replaced: every detour and
# shortcut gets its own ``preview_route_change`` and ``preview_objective``.


def _oracle_candidates(state, path, s, k):
    """Detours (insert one switch piped to ``s`` or ``k`` into the s-k
    hop), then shortcuts (drop one interior switch)."""
    out = []
    for m in sorted(set(state.pipes_of(s)) | set(state.pipes_of(k))):
        if m in path:
            continue
        detoured = []
        for idx, node in enumerate(path):
            detoured.append(node)
            if idx + 1 < len(path) and (node, path[idx + 1]) in ((s, k), (k, s)):
                detoured.append(m)
        out.append(tuple(detoured))
    return out + [path[:idx] + path[idx + 1 :] for idx in range(1, len(path) - 1)]


def _oracle_price(state, comm, candidate, max_degree):
    changed = state.preview_route_change(comm, candidate)
    return state.preview_objective(changed, max_degree)


def _oracle_improve_comm(state, constraints, comm, s, k):
    old_path = state.route_of(comm)
    if not reroute._uses_hop(old_path, s, k):
        return False
    before = state.objective(constraints.max_degree)
    for candidate in _oracle_candidates(state, old_path, s, k):
        if _oracle_price(state, comm, candidate, constraints.max_degree) < before:
            state.set_route(comm, candidate)
            return True
    return False


def _oracle_try_eliminate_pipe(state, constraints, s, k):
    crossing = sorted(state.pipe_forward(s, k) | state.pipe_forward(k, s))
    if not crossing:
        return False
    before = state.objective(constraints.max_degree)
    with state.transaction() as txn:
        for comm in crossing:
            path = state.route_of(comm)
            if not reroute._uses_hop(path, s, k):
                continue
            best_path = best_score = None
            for candidate in _oracle_candidates(state, path, s, k):
                if reroute._uses_hop(candidate, s, k):
                    continue
                score = _oracle_price(state, comm, candidate, constraints.max_degree)
                if best_score is None or score < best_score:
                    best_score, best_path = score, candidate
            if best_path is None:
                return False
            state.set_route(comm, best_path)
        if state.objective(constraints.max_degree) < before:
            txn.commit()
            return True
    return False


def _per_candidate_sweep():
    """Run the reroute pass with the oracle's two move evaluators."""
    return mock.patch.multiple(
        reroute,
        _improve_comm=_oracle_improve_comm,
        _try_eliminate_pipe=_oracle_try_eliminate_pipe,
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=500),
    larger=st.booleans(),
    steps=st.integers(min_value=0, max_value=8),
    max_degree=st.sampled_from([2, 3, 4, MAX_DEGREE]),
)
def test_detour_prices_equal_previews(seed, larger, steps, max_degree):
    rng = random.Random(seed)
    state = _split_state(seed % 3, rng) if larger else _prepared_state(seed % 3, rng)
    _mutate_randomly(state, rng, steps)
    before = state.objective(max_degree)
    for comm in state.comms:
        path = state.route_of(comm)
        for u, v in zip(path, path[1:]):
            for s, k in ((u, v), (v, u)):
                relief, detours = state.preview_detours(comm, s, k, max_degree)
                assert relief == fast_color(
                    state.pipe_forward(u, v) - {comm},
                    state.pipe_forward(v, u),
                    state.max_cliques,
                ) - state.pipe_estimate(u, v)
                priced = list(detours)
                expected = [
                    c for c in _oracle_candidates(state, path, s, k) if len(c) > len(path)
                ]
                assert [candidate for candidate, _ in priced] == expected
                for candidate, score in priced:
                    assert score == _oracle_price(state, comm, candidate, max_degree)
                    if relief == 0:
                        assert score >= before


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=500),
    larger=st.booleans(),
    steps=st.integers(min_value=0, max_value=8),
    max_degree=st.sampled_from([2, 3, 4, MAX_DEGREE]),
)
def test_shortcuts_skipped_only_when_no_dropped_hop_has_relief(
    seed, larger, steps, max_degree
):
    rng = random.Random(seed)
    state = _split_state(seed % 3, rng) if larger else _prepared_state(seed % 3, rng)
    _mutate_randomly(state, rng, steps)
    before = state.objective(max_degree)
    for comm in state.comms:
        path = state.route_of(comm)
        for u, v in zip(path, path[1:]):
            assert state.hop_relief(comm, u, v) == fast_color(
                state.pipe_forward(u, v) - {comm},
                state.pipe_forward(v, u),
                state.max_cliques,
            ) - state.pipe_estimate(u, v)
        for idx in range(1, len(path) - 1):
            a, w, b = path[idx - 1 : idx + 2]
            if state.hop_relief(comm, a, w) == state.hop_relief(comm, w, b) == 0:
                shortcut = path[:idx] + path[idx + 1 :]
                assert _oracle_price(state, comm, shortcut, max_degree) >= before


def _reroute_outcome(state, constraints):
    moves = reroute.reduce_degree_violations(state, constraints)
    return moves, dict(state.routes), dict(state.proc_switch)


def test_reroute_matches_per_candidate_sweep_on_dense_state():
    constraints = DesignConstraints(max_degree=4)
    outcome = _reroute_outcome(dense_stuck_state(), constraints)
    with _per_candidate_sweep():
        assert _reroute_outcome(dense_stuck_state(), constraints) == outcome
    assert outcome[0] > 0


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=500),
    steps=st.integers(min_value=0, max_value=8),
    max_degree=st.sampled_from([3, 4, 5]),
)
# A state where the committed shortcut relieves only one of its two
# dropped hops, so a prune that needs both would miss it.
@example(seed=0, steps=7, max_degree=3)
def test_reroute_matches_per_candidate_sweep_on_random_states(seed, steps, max_degree):
    def build():
        rng = random.Random(seed)
        state = _split_state(seed % 3, rng, splits=5)
        _mutate_randomly(state, rng, steps)
        return state

    constraints = DesignConstraints(max_degree=max_degree)
    outcome = _reroute_outcome(build(), constraints)
    with _per_candidate_sweep():
        assert _reroute_outcome(build(), constraints) == outcome


def test_partitioner_matches_per_candidate_sweep():
    """Whole partitioning runs, whose bisections and processor moves
    interleave with reroute passes, end where the oracle's runs end."""

    def run(n, seed):
        pattern = random_permutation_pattern(n, 4, seed=1)
        result = Partitioner(
            CliqueAnalysis.of(pattern), DesignConstraints(max_degree=6), seed=seed
        ).run()
        state = result.state
        counts = (result.bisections, result.route_moves, result.processor_moves)
        return counts, dict(state.routes), dict(state.proc_switch)

    for n, seed in ((12, 0), (16, 2)):
        outcome = run(n, seed)
        with _per_candidate_sweep():
            assert run(n, seed) == outcome
