"""Tests for the ASCII visualization helpers."""

from repro.model import CommunicationPattern
from repro.viz import render_comm_matrix, render_pattern_timeline

from tests.fixtures import figure1_pattern, pattern_from_phases


class TestPatternTimeline:
    def test_empty_pattern(self):
        p = CommunicationPattern(messages=(), num_processes=2)
        assert "empty" in render_pattern_timeline(p)

    def test_mentions_every_early_message(self):
        p = pattern_from_phases([[(0, 1), (2, 3)]], num_processes=4)
        text = render_pattern_timeline(p)
        assert "(0,1)" in text and "(2,3)" in text
        assert "1 contention periods" in text

    def test_truncates_long_patterns(self):
        text = render_pattern_timeline(figure1_pattern(), max_rows=5)
        assert "more messages" in text

    def test_bars_reflect_phases(self):
        p = pattern_from_phases([[(0, 1)], [(1, 0)]], num_processes=2)
        text = render_pattern_timeline(p, width=20)
        lines = [l for l in text.splitlines() if "|" in l]
        first, second = lines[0], lines[1]
        # Phase-0 bar starts earlier than phase-1 bar.
        assert first.index("#") < second.index("#")


class TestCommMatrix:
    def test_counts(self):
        p = pattern_from_phases([[(0, 1)], [(0, 1)]], num_processes=2)
        text = render_comm_matrix(p)
        assert "2" in text

    def test_zero_rendered_as_dot(self):
        p = pattern_from_phases([[(0, 1)]], num_processes=2)
        assert "." in render_comm_matrix(p)


class TestCliInspect:
    def test_inspect_command(self, capsys):
        from repro.cli import main

        rc = main(["inspect", "--benchmark", "cg", "--nodes", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "contention periods" in out
        assert "traffic matrix" in out
