"""Shared key fragments: a batch keys its cells exactly as each cell keys itself.

Inside a ``key_fragments()`` block (every ``run_cells`` call and every
sweep suite) each program, topology, pattern and config is
fingerprinted once per batch and spliced into every key that carries
it.  These tests hold the outcome keys of real batches to the keys the
same cells compute alone, outside any block, and check that no memo
outlives its block.
"""

import hashlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.eval.parallel as parallel
import repro.sweeps.driver as driver
from repro.eval import TOPOLOGY_ORDER, paper_sizes, prepare, run_resilience
from repro.eval.parallel import (
    OpenLoopCell,
    PerformanceCell,
    ResilienceCell,
    cell_key,
    key_fragments,
    run_cells,
)
from repro.eval.serialize import canonical_json
from repro.faults import single_link_scenarios
from repro.simulator import SimConfig
from repro.synthesis.portfolio import PortfolioConfig, portfolio_cells, synthesize_portfolio
from repro.topology import mesh, torus
from repro.topology.builders import torus_link_delays
from repro.workloads import benchmark

SWEEP = driver.SweepConfig(
    initial_points=3,
    refine_iters=2,
    warmup_cycles=50,
    measure_cycles=200,
    drain_cycles=200,
)


@pytest.fixture(scope="module")
def cg8():
    return prepare("cg", 8, seed=0)


def _no_memo() -> bool:
    return parallel._FRAGMENTS.get() is None


def _collect(seen):
    return lambda outcome, index, total: seen.append(outcome)


def _sweep_pairs():
    torus4 = torus(4, 4)
    return [
        ("mesh", mesh(4, 4), None),
        ("torus", torus4, torus_link_delays(torus4)),
    ]


class TestBatchKeysEqualSoloKeys:
    def test_figure8_grid(self, monkeypatch):
        config = SimConfig()
        setups = [prepare(name, n, seed=0) for name, n in paper_sizes("small").items()]
        cells = [
            PerformanceCell(
                label=f"{setup.name}/{kind}",
                program=setup.benchmark.program,
                topology=setup.topology(kind),
                config=config,
                link_delays=setup.link_delays(kind),
            )
            for setup in setups
            for kind in TOPOLOGY_ORDER
        ]
        # Only the keys matter here: skip the 20 replays.
        monkeypatch.setattr(PerformanceCell, "compute", lambda self, obs=None: {})
        outcomes = run_cells(cells)
        assert _no_memo()
        assert [o.key for o in outcomes] == [cell.key() for cell in cells]

    def test_sweep_suite_with_refinement_probes(self):
        pairs = _sweep_pairs()
        seen = []
        result = driver.run_sweep_suite(pairs, ["uniform"], sweep=SWEEP, progress=_collect(seen))
        assert _no_memo()
        initial = len(pairs) * SWEEP.initial_points
        assert len(seen) > initial, "no refinement probe ran"
        assert len(seen) == sum(len(curve.points) for _, _, curve in result.curves)
        by_label = {label: (topology, delays) for label, topology, delays in pairs}
        for outcome in seen:
            prefix, rate = outcome.label.rsplit("@", 1)
            label, spec = prefix.split("/", 1)
            topology, delays = by_label[label]
            cell = driver._make_cell(
                (label, topology, delays, spec), float(rate), SWEEP, SimConfig()
            )
            assert cell.label == outcome.label
            assert outcome.key == cell.key()

    def test_resilience_campaign(self, cg8):
        topology = cg8.topology("torus")
        delays = cg8.link_delays("torus")
        program = cg8.benchmark.program
        scenarios = single_link_scenarios(topology.network)[:3]
        seen = []
        run_resilience(
            program, topology, scenarios, link_delays=delays, progress=_collect(seen)
        )
        assert _no_memo()
        solo = [None, *scenarios]
        assert len(seen) == len(solo)
        for outcome, scenario in zip(seen, solo):
            cell = ResilienceCell(
                label=outcome.label,
                program=program,
                topology=topology,
                config=SimConfig(),
                link_delays=delays,
                scenario=scenario,
            )
            assert outcome.key == cell.key()

    def test_portfolio(self):
        pattern = benchmark("cg", 8).pattern
        config = PortfolioConfig(size=4)
        seen = []
        synthesize_portfolio(pattern, config=config, progress=_collect(seen))
        assert _no_memo()
        keys = {o.label: o.key for o in seen}
        cells = portfolio_cells(pattern, None, config)
        assert len(keys) == len(cells) == 4
        assert keys == {cell.label: cell.key() for cell in cells}

    def test_every_family_on_one_topology(self, cg8):
        """One torus carried by trace, resilience and open-loop cells: the
        topology fragment differs by routing branch and pair source, and
        a batch must not hand one cell's fragment to another."""
        topology = cg8.topology("torus")
        delays = cg8.link_delays("torus")
        common = dict(
            program=cg8.benchmark.program,
            topology=topology,
            config=SimConfig(),
            link_delays=delays,
        )
        cells = [
            PerformanceCell(label="replay", **common),
            ResilienceCell(label="baseline", **common),
            OpenLoopCell(
                label="openloop",
                topology=topology,
                pattern="uniform",
                injection_rate=0.25,
                config=SimConfig(),
                link_delays=delays,
            ),
        ]
        with key_fragments():
            batch = [cell.key() for cell in cells]
        assert _no_memo()
        assert batch == [cell.key() for cell in cells]
        assert len(set(batch)) == len(batch)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@given(st.dictionaries(st.text(), json_values, max_size=6))
@example({"é": {"ü": [1.5, None, True, {"k": -0.0}]}, "z": "日本", "a": -3})
def test_composer_hashes_the_canonical_json_of_the_whole_payload(payload):
    members = {name: canonical_json(value) for name, value in payload.items()}
    whole = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    assert cell_key(members) == whole


class TestMemoLifetime:
    def test_sweep_suite_routes_each_topology_once(self, monkeypatch):
        calls = []
        real = parallel.all_pairs

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(parallel, "all_pairs", counting)
        seen = []
        driver.run_sweep_suite(
            [("mesh", mesh(4, 4), None)], ["uniform"], sweep=SWEEP, progress=_collect(seen)
        )
        assert len(seen) > SWEEP.initial_points
        assert calls == [16]

    def test_nested_block_reuses_the_outer_memo(self):
        with key_fragments():
            outer = parallel._FRAGMENTS.get()
            with key_fragments():
                assert parallel._FRAGMENTS.get() is outer
            assert parallel._FRAGMENTS.get() is outer
        assert _no_memo()

    def test_no_memo_after_a_compute_raises_inside_a_suite(self, monkeypatch):
        def boom(self, obs=None):
            raise RuntimeError("compute failed")

        monkeypatch.setattr(OpenLoopCell, "compute", boom)
        with pytest.raises(RuntimeError, match="compute failed"):
            driver.run_sweep_suite([("mesh", mesh(4, 4), None)], ["uniform"], sweep=SWEEP)
        assert _no_memo()
