"""Integration: the robustness-study script's core loop."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent.parent / "scripts" / "robustness_study.py"


@pytest.fixture(scope="module")
def study_module():
    spec = importlib.util.spec_from_file_location("robustness_study", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["robustness_study"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["robustness_study"]


class TestRunStudy:
    def test_baseline_grid_produces_degradation_table(self, study_module):
        from repro.sweeps import degradation_table

        result, skipped = study_module.run_study(
            "cg",
            8,
            patterns=("uniform", "tornado"),
            topologies=("mesh", "torus"),
            smoke=True,
        )
        assert skipped == {}
        assert result.topology_labels == ("mesh", "torus")
        assert result.patterns == ("uniform", "tornado")
        table = degradation_table(result, baseline="mesh")
        assert "tornado" in table
        assert "(1.00)" in table  # mesh vs itself

    def test_study_patterns_cover_acceptance_floor(self, study_module):
        # The smoke gate promises >= 6 patterns x >= 3 topologies.
        assert len(study_module.STUDY_PATTERNS) >= 6
        assert len(study_module.STUDY_TOPOLOGIES) >= 3

    def test_patterns_invalid_at_the_scale_are_skipped_with_a_reason(
        self, study_module
    ):
        from repro.sweeps import study_topology

        rows = [study_topology("mesh", 8)]
        runnable, skipped = study_module.split_patterns(
            ("uniform", "transpose", "hotspot:9:0.5"), rows
        )
        assert runnable == ("uniform",)
        assert set(skipped) == {"transpose", "hotspot:9:0.5"}
        assert "square" in skipped["transpose"]

    @pytest.mark.slow
    def test_full_smoke_topologies_include_generated_variants(self, study_module):
        result, skipped = study_module.run_study("cg", 8, smoke=True, jobs=0)
        assert set(result.topology_labels) == {
            "generated", "generated-spare", "mesh", "torus",
        }
        # transpose needs a square node count; at 8 nodes it is skipped
        # rather than run as uniform traffic under its own label.
        assert set(skipped) == {"transpose"}
        assert "transpose" not in result.patterns
        assert len(result.patterns) >= 6
        assert len(result.curves) == 32
        assert hashlib.sha256(result.to_json().encode()).hexdigest() == (
            "551ee2452688b38ec03bd31e583f4f038ae0a8c899febfcaeb02355977cc862b"
        )
