"""Tests for the NAS-like benchmark generators."""

import pytest

from repro.errors import WorkloadError
from repro.model import CliqueAnalysis, Communication
from repro.workloads import (
    BENCHMARK_NAMES,
    PAPER_SMALL_SIZES,
    benchmark,
    bt,
    cg,
    fft,
    mg,
    paper_sizes,
    sp,
)

from tests.fixtures import paper_period3_clique


class TestCG:
    def test_cg16_transpose_period_matches_figure1(self):
        """The synthesized CG-16 pattern reproduces the paper's Figure 1
        transpose clique."""
        b = cg(16)
        analysis = CliqueAnalysis.of(b.pattern)
        assert paper_period3_clique() in set(analysis.max_cliques)

    def test_cg16_has_three_distinct_periods(self):
        b = cg(16)
        analysis = CliqueAnalysis.of(b.pattern)
        # distance-1 reduce, distance-2 reduce, transpose (iterations
        # repeat the same cliques).
        assert len(analysis.max_cliques) == 3

    def test_cg8_uses_2x4_grid(self):
        assert cg(8).grid == (2, 4)

    def test_cg_rejects_odd_sizes(self):
        with pytest.raises(WorkloadError):
            cg(9)

    def test_program_is_balanced(self):
        assert cg(16).program.sends_balanced()


class TestBTSP:
    def test_bt_requires_square(self):
        with pytest.raises(WorkloadError):
            bt(8)

    def test_bt9_grid(self):
        assert bt(9).grid == (3, 3)

    def test_copy_faces_are_full_permutations(self):
        b = bt(9)
        analysis = CliqueAnalysis.of(b.pattern)
        assert analysis.largest_clique_size == 9

    def test_sweep_stages_are_small_cliques(self):
        b = bt(9)
        analysis = CliqueAnalysis.of(b.pattern)
        sizes = sorted(len(c) for c in analysis.max_cliques)
        assert sizes[0] == 3  # a wavefront stage: one message per row

    def test_sp_same_structure_smaller_messages(self):
        b_bt, b_sp = bt(9), sp(9)
        assert b_sp.pattern.communications == b_bt.pattern.communications
        bt_size = max(m.size_bytes for m in b_bt.pattern)
        sp_size = max(m.size_bytes for m in b_sp.pattern)
        assert sp_size < bt_size

    def test_programs_balanced(self):
        assert bt(16).program.sends_balanced()
        assert sp(9).program.sends_balanced()


class TestFFT:
    def test_first_steps_are_global_periods(self):
        b = fft(16)
        analysis = CliqueAnalysis.of(b.pattern)
        assert analysis.largest_clique_size == 16

    def test_every_row_pair_communicates(self):
        b = fft(16)
        comms = b.pattern.communications
        # All-to-all within row 0 (processes 0..3).
        for a in range(4):
            for c in range(4):
                if a != c:
                    assert Communication(a, c) in comms

    def test_balanced(self):
        assert fft(8).program.sends_balanced()


class TestMG:
    def test_small_messages_for_collectives(self):
        b = mg(16)
        sizes = {m.size_bytes for m in b.pattern}
        assert min(sizes) <= 64

    def test_coarser_levels_have_fewer_participants(self):
        b = mg(16)
        by_tag = {}
        for m in b.pattern:
            by_tag.setdefault(m.tag, set()).update((m.source, m.dest))
        l0 = [v for k, v in by_tag.items() if "-L0-" in k]
        l1 = [v for k, v in by_tag.items() if "-L1-" in k]
        assert l1, "expected level-1 phases"
        assert max(len(v) for v in l1) < max(len(v) for v in l0)

    def test_balanced(self):
        assert mg(16).program.sends_balanced()


class TestSuite:
    def test_benchmark_dispatcher(self):
        b = benchmark("CG", 16)
        assert b.name == "cg-16"

    def test_unknown_name_rejected(self):
        with pytest.raises(WorkloadError):
            benchmark("lu", 16)

    @staticmethod
    def _suite(size):
        return {name: benchmark(name, n) for name, n in paper_sizes(size).items()}

    def test_paper_small_sizes(self):
        suite = self._suite("small")
        assert set(suite) == set(BENCHMARK_NAMES)
        for name, b in suite.items():
            assert b.num_processes == PAPER_SMALL_SIZES[name]

    def test_paper_large_all_sixteen(self):
        for b in self._suite("large").values():
            assert b.num_processes == 16

    def test_bad_suite_size(self):
        with pytest.raises(WorkloadError, match="size must be 'small' or 'large', got 'medium'"):
            paper_sizes("medium")

    def test_patterns_have_no_self_messages_and_valid_ranges(self):
        for b in self._suite("large").values():
            for m in b.pattern:
                assert m.source != m.dest
                assert 0 <= m.source < 16 and 0 <= m.dest < 16
