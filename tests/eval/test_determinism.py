"""Determinism harness: serial == parallel == cache-hit, byte for byte.

The golden fixture pins the canonical JSON of a small cg-8 grid under
fixed seeds.  Serial cold runs must reproduce it exactly; cache-hit and
process-pool runs must reproduce the serial payloads exactly.  Any
drift — float formatting, dict ordering, a simulation change — fails
here first.

Regenerate the fixture after an *intentional* simulation change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/eval/test_determinism.py -q
"""

import copy
import json
import os
from pathlib import Path

import pytest

from repro.eval.parallel import (
    PerformanceCell,
    ResilienceCell,
    ResultCache,
    SetupTask,
    prepare_setups,
    run_cells,
)
from repro.eval.resilience import run_resilience
from repro.eval.runner import prepare
from repro.eval.serialize import canonical_json, result_from_dict, setup_to_dict
from repro.faults import CampaignSpec, build_campaign
from repro.simulator import SimConfig

GOLDEN_PATH = Path(__file__).parent / "golden" / "cg8_small_grid.json"
GOLDEN_KINDS = ("crossbar", "generated")


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("setup-cache"))
    task = SetupTask("cg", 8, seed=0)
    return prepare_setups([task], cache=cache)[task]


def _grid_cells(setup, config=None):
    config = config or SimConfig()
    return [
        PerformanceCell(
            label=f"cg-8/{kind}",
            program=setup.benchmark.program,
            topology=setup.topology(kind),
            config=config,
            link_delays=setup.link_delays(kind),
        )
        for kind in GOLDEN_KINDS
    ]


def _payload_bytes(outcomes):
    return {o.label: canonical_json(o.payload) for o in outcomes}


class TestGoldenGrid:
    def test_serial_run_matches_golden(self, setup):
        outcomes = run_cells(_grid_cells(setup))
        got = _payload_bytes(outcomes)
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert got == golden

    def test_cache_hit_is_byte_identical(self, setup, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cells = _grid_cells(setup)
        cold = run_cells(cells, cache=cache)
        warm = run_cells(cells, cache=cache)
        assert all(not o.cache_hit for o in cold)
        assert all(o.cache_hit for o in warm)
        assert _payload_bytes(cold) == _payload_bytes(warm)

    @pytest.mark.slow
    def test_parallel_run_is_byte_identical(self, setup):
        cells = _grid_cells(setup)
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert _payload_bytes(serial) == _payload_bytes(parallel)
        assert [o.label for o in parallel] == [o.label for o in serial]

    def test_no_cache_and_cache_agree(self, setup, tmp_path):
        cells = _grid_cells(setup)
        uncached = run_cells(cells, cache=None)
        cached = run_cells(cells, cache=ResultCache(tmp_path / "c"))
        assert _payload_bytes(uncached) == _payload_bytes(cached)


class TestCacheKeys:
    def test_key_is_stable_per_cell(self, setup):
        a, b = _grid_cells(setup), _grid_cells(setup)
        assert [c.key() for c in a] == [c.key() for c in b]

    def test_key_distinguishes_cells(self, setup):
        keys = [c.key() for c in _grid_cells(setup)]
        assert len(set(keys)) == len(keys)

    def test_key_invalidates_on_config_change(self, setup):
        base = _grid_cells(setup)[0]
        changed = _grid_cells(setup, SimConfig(num_vcs=2))[0]
        assert base.key() != changed.key()

    def test_resilience_keys_depend_on_scenario(self, setup):
        topology = setup.topology("generated")
        common = dict(
            program=setup.benchmark.program,
            topology=topology,
            config=SimConfig(),
            link_delays=setup.link_delays("generated"),
        )
        baseline = ResilienceCell(label="b", scenario=None, **common)
        scenarios = build_campaign(
            topology.network, CampaignSpec(kinds=("link",), max_scenarios=2)
        )
        keys = {baseline.key()}
        for s in scenarios:
            keys.add(ResilienceCell(label="s", scenario=s, **common).key())
        assert len(keys) == 1 + len(scenarios)

    def test_corrupt_cache_entry_is_a_miss(self, setup, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cell = _grid_cells(setup)[0]
        cold = run_cells([cell], cache=cache)
        path = cache.results_dir / f"{cold[0].key}.json"
        path.write_text("{ not json", encoding="utf-8")
        redone = run_cells([cell], cache=cache)
        assert not redone[0].cache_hit
        assert _payload_bytes(redone) == _payload_bytes(cold)

    @pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
    def test_non_object_cache_entry_is_a_dropped_miss(self, setup, tmp_path, text):
        cache = ResultCache(tmp_path / "cache")
        cell = _grid_cells(setup)[0]
        cold = run_cells([cell], cache=cache)
        path = cache.results_dir / f"{cold[0].key}.json"
        path.write_text(text, encoding="utf-8")
        assert cache.get_result(cold[0].key) is None
        assert not path.exists()
        redone = run_cells([cell], cache=cache)
        assert not redone[0].cache_hit
        assert _payload_bytes(redone) == _payload_bytes(cold)

    def test_non_object_entry_under_a_valid_digest_is_a_dropped_miss(self, setup, tmp_path):
        """The digest vouches only for the bytes: a JSON array stored
        with its own valid digest still fails the object check."""
        cache = ResultCache(tmp_path / "cache")
        cell = _grid_cells(setup)[0]
        cold = run_cells([cell], cache=cache)
        cache.put_result(cold[0].key, [])
        path = cache.results_dir / f"{cold[0].key}.json"
        assert len(_entry_json(path)) == 2
        assert cache.get_result(cold[0].key) is None
        assert not path.exists()

    def test_wrong_shape_cache_entry_is_a_dropped_miss(self, setup, tmp_path):
        """A JSON object another family (or an older schema) wrote under
        a performance cell's key is recomputed, not served as a hit."""
        cache = ResultCache(tmp_path / "cache")
        cell = PerformanceCell(
            label="cg-8/mesh",
            program=setup.benchmark.program,
            topology=setup.topology("mesh"),
            config=SimConfig(),
            link_delays=setup.link_delays("mesh"),
        )
        cache.put_result(cell.key(), {"status": "ok"})
        redone = run_cells([cell], cache=cache)
        assert not redone[0].cache_hit
        assert result_from_dict(redone[0].payload).topology_name == cell.topology.name
        warm = run_cells([cell], cache=cache)
        assert warm[0].cache_hit
        assert _payload_bytes(warm) == _payload_bytes(redone)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: canonical_json(p)[:400],
            lambda p: "[1, 2]",
            lambda p: {"floorplan": p["floorplan"]},
            # Another benchmark's design: its pattern name does not match.
            lambda p: setup_to_dict(prepare("mg", 8, seed=0)),
            lambda p: _edit_design(p, "routes", 0, p["design"]["routes"][0][:3]),
            # A link to a switch the network does not have: TopologyError.
            lambda p: _edit_design(p, "links", 0, [0, p["design"]["num_switches"]]),
            # Well-formed floorplan values that contradict the design.
            lambda p: _edit_floorplan(p, "switch_corner", p["floorplan"]["switch_corner"][:-1]),
            lambda p: _edit_floorplan(p, "link_costs", _stretched_link(p)),
            lambda p: _edit_floorplan(p, "feasible", not p["floorplan"]["feasible"]),
            lambda p: _edit_floorplan(p, "processor_cell", _shared_tile(p)),
            # Design maps that contradict the network they describe.
            lambda p: _edit_design(p, "switch_map", 1, [9, 1]),
            lambda p: _edit_design(p, "pipe_links", 0, [[0.2], p["design"]["pipe_links"][0][1]]),
            lambda p: _edit_design(p, "pipe_links", 0, [[0, 1], p["design"]["pipe_links"][0][1]]),
            lambda p: _edit_design(p, "pipe_links", 1, [p["design"]["pipe_links"][1][0], [1, 1]]),
        ],
        ids=[
            "torn",
            "not-a-setup",
            "no-design",
            "other-pattern",
            "cut-route",
            "missing-switch",
            "corner-missing",
            "link-cost",
            "feasible-flag",
            "shared-tile",
            "switch-map-order",
            "pipe-one-switch",
            "pipe-other-switches",
            "pipe-link-twice",
        ],
    )
    def test_unusable_setup_entry_is_a_dropped_miss(self, setup, tmp_path, corrupt):
        """An entry that does not decode to the task's setup is rebuilt
        and rewritten, never served.  A damaged payload is written with
        a valid digest, so it reaches the decoder; torn and non-object
        text is written as raw bytes."""
        cache = ResultCache(tmp_path / "cache")
        task = SetupTask("cg", 8, seed=0)
        payload = setup_to_dict(setup)
        path = cache.setups_dir / f"{task.key()}.json"
        damaged = corrupt(copy.deepcopy(payload))
        if isinstance(damaged, dict):
            cache.put_setup(task.key(), damaged)
            assert cache.get_setup(task.key()) == damaged
        else:
            cache.put_setup(task.key(), payload)
            path.write_text(damaged, encoding="utf-8")
        rebuilt = prepare_setups([task], cache=cache)[task]
        assert rebuilt.floorplan == setup.floorplan
        assert _entry_json(path) == canonical_json(payload)

    @pytest.mark.parametrize(
        "flip",
        [
            lambda p: p["design"]["stats"].update(bisections=p["design"]["stats"]["bisections"] + 1),
            lambda p: p["design"].update(seed=p["design"]["seed"] + 1),
        ],
        ids=["stats", "seed"],
    )
    def test_flipped_setup_value_is_rebuilt(self, setup, tmp_path, flip):
        """A value changed under an unchanged digest (a bit flip or a
        hand edit) decodes fine, so only the digest can catch it: the
        entry is dropped, rebuilt and rewritten."""
        cache = ResultCache(tmp_path / "cache")
        task = SetupTask("cg", 8, seed=0)
        payload = setup_to_dict(setup)
        cache.put_setup(task.key(), payload)
        path = cache.setups_dir / f"{task.key()}.json"
        flipped = copy.deepcopy(payload)
        flip(flipped)
        _rewrite_keeping_digest(path, flipped)
        assert cache.get_setup(task.key()) is None
        assert not path.exists()
        rebuilt = prepare_setups([task], cache=cache)[task]
        assert setup_to_dict(rebuilt) == payload
        assert _entry_json(path) == canonical_json(payload)

    def test_flipped_result_value_is_recomputed(self, setup, tmp_path):
        """The cg-8 crossbar result with ``execution_cycles`` + 1 under
        its old digest is a miss and is recomputed as 27,634."""
        cache = ResultCache(tmp_path / "cache")
        cell = _grid_cells(setup)[0]
        cold = run_cells([cell], cache=cache)
        assert cold[0].payload["execution_cycles"] == 27_634
        path = cache.results_dir / f"{cold[0].key}.json"
        flipped = dict(cold[0].payload, execution_cycles=27_635)
        _rewrite_keeping_digest(path, flipped)
        redone = run_cells([cell], cache=cache)
        assert not redone[0].cache_hit
        assert redone[0].payload["execution_cycles"] == 27_634
        assert _payload_bytes(redone) == _payload_bytes(cold)

    def test_entry_without_digest_is_a_dropped_miss(self, setup, tmp_path):
        """The bare canonical JSON of the right payload, with no digest
        line, is not trusted."""
        cache = ResultCache(tmp_path / "cache")
        cell = _grid_cells(setup)[0]
        cold = run_cells([cell], cache=cache)
        path = cache.results_dir / f"{cold[0].key}.json"
        path.write_text(canonical_json(cold[0].payload), encoding="utf-8")
        assert cache.get_result(cold[0].key) is None
        assert not path.exists()


def _entry_json(path):
    """The canonical JSON an entry stores after its digest line."""
    digest, _, body = path.read_text(encoding="utf-8").partition("\n")
    assert len(digest) == 64
    return body


def _rewrite_keeping_digest(path, payload):
    """Replace an entry's JSON with ``payload``'s, keeping its old digest."""
    digest = path.read_text(encoding="utf-8").partition("\n")[0]
    path.write_text(digest + "\n" + canonical_json(payload), encoding="utf-8")


def _edit_design(payload, field, index, record):
    """``payload`` with one design record replaced."""
    payload["design"][field][index] = record
    return payload


def _edit_floorplan(payload, field, value):
    """``payload`` with one floorplan field replaced."""
    payload["floorplan"][field] = value
    return payload


def _stretched_link(payload):
    """``link_costs`` with the first link's cost three tiles too high."""
    (link, cost), *rest = payload["floorplan"]["link_costs"]
    return [[link, cost + 3], *rest]


def _shared_tile(payload):
    """``processor_cell`` with one processor moved onto the tile of another
    processor of its switch, so every tile still touches its corner."""
    switch_of = payload["design"]["processors"]
    cells = {p: [i, j] for p, i, j in payload["floorplan"]["processor_cell"]}
    a, b = next(
        (a, b) for a in cells for b in cells if a < b and switch_of[a] == switch_of[b]
    )
    cells[a] = cells[b]
    return [[p, i, j] for p, (i, j) in cells.items()]


class TestResilienceDeterminism:
    @pytest.mark.slow
    def test_parallel_campaign_matches_serial(self, setup, tmp_path):
        """A small transient-fault campaign: serial, parallel, and a
        cache-hit replay all produce the identical report."""
        topology = setup.topology("generated")
        campaign = build_campaign(
            topology.network,
            CampaignSpec(kinds=("link",), max_scenarios=3, start=3000, end=3800),
        )
        kwargs = dict(
            config=SimConfig(),
            link_delays=setup.link_delays("generated"),
        )
        serial = run_resilience(
            setup.benchmark.program, topology, campaign, **kwargs
        )
        cache = ResultCache(tmp_path / "cache")
        parallel = run_resilience(
            setup.benchmark.program, topology, campaign, jobs=2, cache=cache, **kwargs
        )
        replay = run_resilience(
            setup.benchmark.program, topology, campaign, cache=cache, **kwargs
        )
        assert parallel == serial
        assert replay == serial
