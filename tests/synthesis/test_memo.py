"""Bounds of the content-keyed coloring memo (``repro.synthesis.memo``)."""

from itertools import combinations, islice

from repro.model import CliqueAnalysis
from repro.synthesis.fast_color import fast_color
from repro.synthesis.memo import ColorMemo
from repro.workloads import random_permutation_pattern


class TestFastColorBound:
    def test_fast_pair_stays_within_maxsize(self):
        # A forward miss followed by a backward hit inserts one entry;
        # the bound must hold after it, not only after backward misses.
        analysis = CliqueAnalysis.of(random_permutation_pattern(6, 2, seed=0))
        memo = ColorMemo(analysis.max_cliques, maxsize=2)
        backward = frozenset()
        forwards = [
            frozenset(pair)
            for pair in islice(combinations(sorted(analysis.communications), 2), 10)
        ]
        for forward in forwards:
            expected = fast_color(forward, backward, analysis.max_cliques)
            assert memo.fast_pair(forward, backward) == expected
            assert len(memo._fast) <= 2
