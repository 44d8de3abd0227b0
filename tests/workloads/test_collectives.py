"""Tests for collective-to-phase expansion."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads import (
    binomial_broadcast,
    pairwise_exchange,
    recursive_halving_reduce,
    shifted_all_to_all,
    transpose_exchange,
)


class TestPairwiseExchange:
    def test_distance_one_pairs_adjacent(self):
        phase = pairwise_exchange([10, 11, 12, 13], 1)
        assert (10, 11) in phase and (11, 10) in phase
        assert (12, 13) in phase and (13, 12) in phase
        assert len(phase) == 4

    def test_duplicate_members_rejected(self):
        with pytest.raises(WorkloadError):
            pairwise_exchange([1, 1], 1)

    def test_each_phase_is_partial_permutation(self):
        phase = pairwise_exchange(list(range(8)), 2)
        sources = [s for s, _ in phase]
        dests = [d for _, d in phase]
        assert len(set(sources)) == len(sources)
        assert len(set(dests)) == len(dests)


class TestRecursiveHalvingReduce:
    def test_message_counts_halve(self):
        phases = recursive_halving_reduce(list(range(16)))
        assert [len(p) for p in phases] == [8, 4, 2, 1]

    def test_everything_flows_to_root(self):
        phases = recursive_halving_reduce(list(range(8)))
        assert phases[-1] == [(1, 0)]


class TestBinomialBroadcast:
    def test_message_counts_double(self):
        phases = binomial_broadcast(list(range(16)))
        assert [len(p) for p in phases] == [1, 2, 4, 8]

    def test_all_members_covered(self):
        phases = binomial_broadcast(list(range(8)))
        covered = {0}
        for phase in phases:
            for s, d in phase:
                assert s in covered
                covered.add(d)
        assert covered == set(range(8))

    def test_nonzero_root(self):
        phases = binomial_broadcast(list(range(4)), root_index=2)
        assert phases[0][0][0] == 2

    def test_bad_root_rejected(self):
        with pytest.raises(WorkloadError):
            binomial_broadcast(list(range(4)), root_index=9)


class TestShiftedAllToAll:
    def test_phase_count(self):
        assert len(shifted_all_to_all(list(range(5)))) == 4

    def test_each_phase_is_full_permutation(self):
        for phase in shifted_all_to_all(list(range(6))):
            assert len(phase) == 6
            assert len({s for s, _ in phase}) == 6
            assert len({d for _, d in phase}) == 6

    def test_all_pairs_covered_exactly_once(self):
        group = [3, 5, 7, 9]
        seen = set()
        for phase in shifted_all_to_all(group):
            for pair in phase:
                assert pair not in seen
                seen.add(pair)
        assert seen == {(a, b) for a in group for b in group if a != b}


class TestTransposeExchange:
    def test_square_matches_figure1(self):
        from tests.fixtures import paper_period3_clique

        phase = transpose_exchange(4, 4)
        assert {(s, d) for s, d in phase} == {
            (c.source, c.dest) for c in paper_period3_clique()
        }

    def test_rectangular_is_permutation(self):
        phase = transpose_exchange(2, 4)
        sources = {s for s, _ in phase}
        dests = {d for _, d in phase}
        assert sources == dests  # same participants both ways

    @given(
        rows=st.integers(min_value=1, max_value=5),
        cols=st.integers(min_value=1, max_value=5),
    )
    def test_transpose_mapping_is_bijective(self, rows, cols):
        n = rows * cols
        mapping = {me: (me % rows) * cols + me // rows for me in range(n)}
        assert sorted(mapping.values()) == list(range(n))
