"""Tests for the random-permutation pattern generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.model import CliqueAnalysis
from repro.workloads import random_permutation_pattern


class TestRandomPermutation:
    def test_each_phase_is_full_permutation(self):
        p = random_permutation_pattern(8, 3, seed=1)
        analysis = CliqueAnalysis.of(p)
        assert all(len(c) == 8 for c in analysis.max_cliques)

    def test_no_fixed_points(self):
        p = random_permutation_pattern(9, 5, seed=2)
        assert all(m.source != m.dest for m in p)

    def test_deterministic_by_seed(self):
        a = random_permutation_pattern(8, 2, seed=7)
        b = random_permutation_pattern(8, 2, seed=7)
        assert a.messages == b.messages

    def test_rejects_tiny_system(self):
        with pytest.raises(WorkloadError):
            random_permutation_pattern(1, 1)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        phases=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_permutation_property(self, n, phases, seed):
        p = random_permutation_pattern(n, phases, seed=seed)
        by_tag = {}
        for m in p:
            by_tag.setdefault(m.tag, []).append(m)
        for msgs in by_tag.values():
            assert sorted(m.source for m in msgs) == list(range(n))
            assert sorted(m.dest for m in msgs) == list(range(n))
