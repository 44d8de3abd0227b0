"""Metric arithmetic of the harness, on synthetic inputs.

Run with ``python -m pytest bench -q``; no workload runs.
"""

import math

import pytest

from metrics import (
    dispatch_estimate,
    failed_frac,
    geomean,
    quartile_spread,
    self_time_by_name,
    self_times,
    tail_percentile,
)


def span(name, start, dur, depth):
    return {"name": name, "start_s": start, "dur_s": dur, "depth": depth}


class TestTailPercentile:
    def test_hundred_samples_give_p90(self):
        values = list(range(1, 101))
        assert tail_percentile(values) == (90.0, 90)

    def test_ten_samples_remain_beyond(self):
        values = [float(v) for v in range(120)]
        pct, value = tail_percentile(values)
        assert sum(1 for v in values if v > value) == 10
        assert pct == pytest.approx(100 * 110 / 120)

    def test_order_does_not_matter(self):
        values = list(range(50))
        assert tail_percentile(values[::-1]) == tail_percentile(values)

    def test_too_few_samples(self):
        assert tail_percentile(list(range(10))) is None
        assert tail_percentile(list(range(11))) == (100 / 11, 0)


class TestSelfTimes:
    def test_nested_children_are_subtracted(self):
        spans = [
            span("child", 1.0, 2.0, 1),
            span("grandchild", 1.5, 0.5, 2),
            span("child", 4.0, 1.0, 1),
            span("parent", 0.0, 10.0, 0),
        ]
        assert self_times(spans) == pytest.approx([1.5, 0.5, 1.0, 7.0])

    def test_siblings_at_the_top_level(self):
        spans = [span("a", 0.0, 1.0, 0), span("b", 1.0, 2.0, 0)]
        assert self_times(spans) == pytest.approx([1.0, 2.0])

    def test_child_starting_with_its_parent(self):
        spans = [span("inner", 0.0, 1.0, 1), span("outer", 0.0, 3.0, 0)]
        assert self_times(spans) == pytest.approx([1.0, 2.0])

    def test_totals_by_name(self):
        spans = [
            span("op", 0.0, 4.0, 0),
            span("layer", 0.5, 1.0, 1),
            span("layer", 2.0, 1.0, 1),
        ]
        assert self_time_by_name(spans) == pytest.approx({"op": 2.0, "layer": 2.0})

    def test_self_times_partition_the_covered_time(self):
        spans = [
            span("root", 0.0, 8.0, 0),
            span("a", 1.0, 3.0, 1),
            span("b", 1.5, 1.0, 2),
            span("c", 5.0, 2.0, 1),
        ]
        assert sum(self_times(spans)) == pytest.approx(8.0)


class TestGeomean:
    def test_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geomean([1.0002]) == pytest.approx(1.0002)

    def test_generator_input(self):
        assert geomean(x for x in (3.0, 3.0)) == pytest.approx(3.0)

    @pytest.mark.parametrize("values", [[], [1.0, 0.0], [2.0, -1.0]])
    def test_rejects_non_positive(self, values):
        with pytest.raises(ValueError):
            geomean(values)


class TestDispatchEstimate:
    def test_cell_time_shared_by_workers(self):
        assert dispatch_estimate(1.0, [0.4, 0.4, 0.4, 0.4], 2) == pytest.approx(0.2)

    def test_serial(self):
        assert dispatch_estimate(1.0, [0.3, 0.5], 1) == pytest.approx(0.2)

    def test_never_negative(self):
        assert dispatch_estimate(0.1, [0.5], 1) == 0.0

    def test_rejects_no_workers(self):
        with pytest.raises(ValueError):
            dispatch_estimate(1.0, [0.5], 0)


class TestFailedFrac:
    def test_value(self):
        assert failed_frac(0, 20) == 0.0
        assert failed_frac(3, 12) == 0.25

    @pytest.mark.parametrize("failed, attempted", [(0, 0), (-1, 5), (6, 5)])
    def test_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            failed_frac(failed, attempted)


def test_quartile_spread():
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles(n=4) of 1..10: 2.75, 5.5, 8.25.
    assert quartile_spread(values) == pytest.approx(5.5 / 5.5)
    assert math.isclose(quartile_spread([2.0] * 10), 0.0)
