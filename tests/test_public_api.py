"""The top-level package exposes the documented public API and the
README quickstart flow works verbatim."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("subpackage", SUBPACKAGES)
    def test_subpackage_names_resolve(self, subpackage):
        module = importlib.import_module(f"repro.{subpackage}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing

    def test_version(self):
        assert repro.__version__


class TestReadmeQuickstart:
    def test_quickstart_flow(self):
        app = repro.PhaseProgramBuilder(8, "my-accelerator")
        app.compute(2000)
        app.phase([(0, 1, 512), (2, 3, 512), (4, 5, 512), (6, 7, 512)])
        app.compute(2000)
        app.phase([(i, i ^ 4, 512) for i in range(8)])
        program = app.build()

        pattern = repro.extract_pattern(program)
        design = repro.generate_network(
            pattern, constraints=repro.DesignConstraints(max_degree=5), restarts=4
        )
        assert design.certificate.contention_free

        result = repro.simulate(program, design.topology)
        mesh_result = repro.simulate(program, repro.mesh_for(8))
        assert result.delivered_packets == program.total_messages
        assert result.execution_cycles <= 1.05 * mesh_result.execution_cycles

    def test_pattern_files_round_trip(self, tmp_path):
        bench = repro.benchmark("cg", 8)
        path = tmp_path / "cg.json"
        repro.write_pattern(bench.pattern, path)
        assert repro.read_pattern(path) == bench.pattern
