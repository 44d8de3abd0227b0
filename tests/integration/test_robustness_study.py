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

        result = study_module.run_study(
            "cg",
            8,
            patterns=("uniform", "tornado"),
            topologies=("mesh", "torus"),
            smoke=True,
        )
        assert result.topology_labels == ("mesh", "torus")
        assert result.patterns == ("uniform", "tornado")
        table = degradation_table(result, baseline="mesh")
        assert "tornado" in table
        assert "(1.00)" in table  # mesh vs itself

    def test_study_patterns_cover_acceptance_floor(self, study_module):
        # The smoke gate promises >= 6 patterns x >= 3 topologies.
        assert len(study_module.STUDY_PATTERNS) >= 6
        assert len(study_module.STUDY_TOPOLOGIES) >= 3

    @pytest.mark.slow
    def test_full_smoke_topologies_include_generated_variants(self, study_module):
        from repro.sweeps import SweepResult

        result = study_module.run_study("cg", 8, smoke=True, jobs=0)
        assert set(result.topology_labels) == {
            "generated", "generated-spare", "mesh", "torus",
        }
        assert len(result.patterns) >= 6
        # Pins the retired benchmark gate's suite-fanout-smoke case,
        # which hashed the same 36 curves under the label "bench-fanout".
        assert len(result.curves) == 36
        assert hashlib.sha256(result.to_json().encode()).hexdigest() == (
            "b37a5b4f772b9ba6ddc3f48ec4bb96f8d506e526fea7a143fa5f127ddf69f1b9"
        )
        relabelled = SweepResult(label="bench-fanout", curves=result.curves)
        assert hashlib.sha256(relabelled.to_json().encode()).hexdigest() == (
            "2c34017258c88fa85f11f717416137e1a98ce33a20dc05707e6b5bcc1a0dfc57"
        )
