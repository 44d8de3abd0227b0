"""Tests for schema-versioned sweep artifacts and renderings."""

import json

import pytest

from repro.errors import SimulationError
from repro.eval.serialize import canonical_json
from repro.simulator.openloop import LoadPoint
from repro.sweeps.report import (
    SWEEP_SCHEMA,
    SaturationCurve,
    SweepResult,
    curve_csv,
    curve_plot,
    curve_table,
    degradation_table,
)


def _curve(topology="mesh", pattern="tornado", sat=0.42, **over):
    fields = dict(
        topology_name=topology,
        pattern=pattern,
        num_nodes=16,
        seed=0,
        points=(
            LoadPoint(0.1, 0.09333333333333334, 20.0, 128, False, 18, 31, 36),
            LoadPoint(0.55, 0.42, 180.5, 700, False, 150, 420, 510),
            LoadPoint(1.0, 0.43, 900.0, 720, True, 700, 2100, 2600),
        ),
        saturation_rate=0.55,
        saturation_throughput=sat,
        saturated=True,
        params={"min_rate": 0.1, "max_rate": 1.0},
    )
    fields.update(over)
    return SaturationCurve(**fields)


class TestSaturationCurve:
    def test_round_trip_is_byte_identical(self):
        curve = _curve()
        text = curve.to_json()
        assert json.loads(text) == curve.to_dict()
        assert canonical_json(json.loads(text)) == text

    def test_canonical_json_has_no_whitespace(self):
        text = _curve().to_json()
        assert ": " not in text and ", " not in text

    def test_schema_stamped(self):
        assert _curve().to_dict()["schema"] == SWEEP_SCHEMA
        assert _curve().to_dict()["kind"] == "saturation-curve"

    def test_table_mentions_knee(self):
        text = curve_table(_curve())
        assert "tornado on mesh" in text
        assert "saturation: offered ~0.5500" in text

    def test_table_reports_no_saturation(self):
        curve = _curve(saturation_rate=None, saturated=False)
        assert "no saturation below 1.0000" in curve_table(curve)

    def test_render_matches_table(self):
        assert _curve().render() == curve_table(_curve())

    def test_csv_round_trips_floats_exactly(self):
        curve = _curve()
        lines = curve_csv(curve).strip().splitlines()
        assert lines[0] == (
            "offered,accepted,avg_latency,p50_latency,p95_latency,p99_latency,"
            "delivered,saturated"
        )
        assert len(lines) == 1 + len(curve.points)
        first = lines[1].split(",")
        assert float(first[1]) == curve.points[0].accepted_flits_per_node_cycle


class TestCurvePlot:
    """The dependency-free p50/p95/p99 chart (satellite: --plot)."""

    def test_ascii_has_legend_axes_and_markers(self):
        text = curve_plot(_curve())
        assert "tornado on mesh" in text
        assert "5 = p50" in text and "9 = p95" in text and "! = p99" in text
        for marker in ("5", "9", "!"):
            assert marker in text
        assert "flits/node/cycle" in text

    def test_ascii_marks_saturation_rate(self):
        text = curve_plot(_curve())
        assert "^" in text
        assert "saturation at offered ~0.5500" in text

    def test_ascii_unsaturated_curve_has_no_marker_line(self):
        text = curve_plot(_curve(saturation_rate=None, saturated=False))
        assert "saturation at" not in text

    def test_ascii_is_deterministic(self):
        assert curve_plot(_curve()) == curve_plot(_curve())

    def test_ascii_respects_dimensions(self):
        text = curve_plot(_curve(), width=32, height=8)
        rows = [line for line in text.splitlines() if "|" in line]
        assert len(rows) == 8
        assert all(len(line.split("|", 1)[1]) == 32 for line in rows)

    def test_svg_is_wellformed_with_three_series(self):
        import xml.etree.ElementTree as ET

        text = curve_plot(_curve(), fmt="svg")
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        assert root.tag == f"{ns}svg"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 3
        strokes = {p.get("stroke") for p in polylines}
        assert strokes == {"#0072B2", "#E69F00", "#D55E00"}
        # One circle per (series, point) plus the dashed saturation line.
        assert len(root.findall(f"{ns}circle")) == 3 * len(_curve().points)
        assert any(
            line.get("stroke-dasharray") for line in root.findall(f"{ns}line")
        )

    def test_svg_omits_saturation_line_when_unsaturated(self):
        import xml.etree.ElementTree as ET

        text = curve_plot(_curve(saturation_rate=None, saturated=False), fmt="svg")
        root = ET.fromstring(text)
        ns = "{http://www.w3.org/2000/svg}"
        assert not any(
            line.get("stroke-dasharray") for line in root.findall(f"{ns}line")
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(SimulationError, match="plot format"):
            curve_plot(_curve(), fmt="png")

    def test_empty_curve_rejected(self):
        empty = _curve(
            points=(), saturation_rate=None, saturated=False,
            saturation_throughput=0.0,
        )
        with pytest.raises(SimulationError, match="no measured points"):
            curve_plot(empty)


class TestSweepResult:
    def _result(self):
        return SweepResult(
            label="study",
            curves=(
                ("mesh", "tornado", _curve("mesh", "tornado", sat=0.5)),
                ("mesh", "uniform", _curve("mesh", "uniform", sat=0.6)),
                ("generated", "tornado", _curve("generated", "tornado", sat=0.25)),
                ("generated", "uniform", _curve("generated", "uniform", sat=0.6)),
            ),
        )

    def test_round_trip_is_byte_identical(self):
        result = self._result()
        text = result.to_json()
        raw = json.loads(text)
        assert (raw["schema"], raw["kind"]) == (SWEEP_SCHEMA, "sweep-result")
        assert [entry["curve"] for entry in raw["curves"]] == [
            curve.to_dict() for _, _, curve in result.curves
        ]
        assert canonical_json(raw) == text

    def test_lookup_and_orders(self):
        result = self._result()
        assert result.topology_labels == ("mesh", "generated")
        assert result.patterns == ("tornado", "uniform")
        assert result.curve("generated", "tornado").saturation_throughput == 0.25

    def test_missing_curve_raises(self):
        with pytest.raises(SimulationError, match="no curve"):
            self._result().curve("torus", "tornado")

    def test_degradation_table_ratios(self):
        table = degradation_table(self._result(), baseline="mesh")
        assert "tornado" in table and "uniform" in table
        # generated/tornado degrades to half the mesh baseline.
        assert "(0.50)" in table
        # on-design parity shows up as 1.00.
        assert "(1.00)" in table

    def test_degradation_table_needs_baseline(self):
        with pytest.raises(SimulationError, match="baseline"):
            degradation_table(self._result(), baseline="torus")

    def test_degradation_table_custom_title(self):
        table = degradation_table(self._result(), title="smoke study")
        assert table.splitlines()[0] == "smoke study"

    def test_degradation_table_ragged_grid_renders_dash(self):
        """A topology missing one pattern's curve must render ``-``
        instead of raising (regression: SimulationError on ragged
        grids)."""
        result = SweepResult(
            label="ragged",
            curves=(
                ("mesh", "tornado", _curve("mesh", "tornado", sat=0.5)),
                ("mesh", "uniform", _curve("mesh", "uniform", sat=0.6)),
                ("generated", "tornado", _curve("generated", "tornado", sat=0.25)),
                # generated/uniform was never swept.
            ),
        )
        table = degradation_table(result, baseline="mesh")
        row = next(
            line for line in table.splitlines() if line.startswith("uniform")
        )
        assert row.rstrip().endswith("-")
        assert "inf" not in table

    def test_degradation_table_zero_baseline_renders_na(self):
        """A baseline with zero saturation throughput must render the
        ratio as ``n/a`` instead of ``inf``."""
        result = SweepResult(
            label="zero-base",
            curves=(
                ("mesh", "tornado", _curve("mesh", "tornado", sat=0.0)),
                ("generated", "tornado", _curve("generated", "tornado", sat=0.25)),
            ),
        )
        table = degradation_table(result, baseline="mesh")
        assert "n/a" in table
        assert "inf" not in table

    def test_find_curve_returns_none_on_missing_pair(self):
        assert self._result().find_curve("torus", "tornado") is None
        assert self._result().find_curve("mesh", "tornado") is not None
