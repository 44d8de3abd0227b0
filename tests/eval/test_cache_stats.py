"""Regression tests for ``ResultCache.stats``: synthesis payloads must
be enumerated, not lumped into (or dropped from) the eval totals.

``repro cache info`` historically reported only ``results`` / ``setups``
/ ``bytes``; SynthesisCell payloads (designs and infeasible-seed
markers) were invisible.  These tests pin the categorized breakdown.
"""

import pytest

from repro.eval.parallel import (
    PerformanceCell,
    ResultCache,
    SynthesisCell,
    run_cells,
)
from repro.eval.runner import prepare
from repro.simulator.config import SimConfig
from repro.synthesis import DesignConstraints
from repro.workloads import benchmark

#: No cg-8 seed satisfies a degree-2 bound (every synthesis attempt
#: fails), so this constraint deterministically produces an
#: infeasible-seed cache entry.
INFEASIBLE = DesignConstraints(max_degree=2)


@pytest.fixture(scope="module")
def populated_cache(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("cache")))
    pattern = benchmark("cg", 8).pattern
    setup = prepare("cg", 8, seed=0)
    cells = [
        SynthesisCell(
            label="synth:ok", pattern=pattern, seed=0,
            constraints=DesignConstraints(max_degree=5),
        ),
        SynthesisCell(
            label="synth:infeasible", pattern=pattern, seed=0,
            constraints=INFEASIBLE,
        ),
        PerformanceCell(
            label="perf:mesh",
            program=setup.benchmark.program,
            topology=setup.topology("mesh"),
            config=SimConfig(),
            link_delays=setup.link_delays("mesh"),
        ),
    ]
    run_cells(cells, cache=cache)
    return cache


class TestStatsBreakdown:
    def test_synthesis_payloads_are_enumerated(self, populated_cache):
        stats = populated_cache.stats()
        assert stats["synthesis_results"] == 2
        assert stats["synthesis_ok"] == 1
        assert stats["synthesis_infeasible"] == 1
        assert stats["synthesis_bytes"] > 0

    def test_eval_payloads_stay_separate(self, populated_cache):
        stats = populated_cache.stats()
        assert stats["eval_results"] == 1
        assert stats["eval_bytes"] > 0

    def test_totals_remain_backward_compatible(self, populated_cache):
        stats = populated_cache.stats()
        assert stats["results"] == stats["eval_results"] + stats["synthesis_results"]
        assert stats["bytes"] == stats["eval_bytes"] + stats["synthesis_bytes"]

