"""Coordinator-side dispatch in ``run_cells``: cache hits never reach a worker.

The coordinator keys every cell once and answers hits from the cache
itself; only misses are computed, in process when the run is serial or
there is just one, otherwise over a pool sized to the misses.  These
tests swap the process pool for stand-ins that either refuse to start
or run submissions inline and record them, so they stay fast; the one
real Figure 8 grid, whose warm run must build no setup, is slow-marked.
"""

from concurrent.futures import Future

import pytest

import repro.eval.parallel as parallel
from repro.eval.experiments import figure8_rows, paper_sizes
from repro.eval.parallel import OpenLoopCell, PerformanceCell, ResultCache, run_cells
from repro.eval.runner import TOPOLOGY_ORDER, prepare
from repro.eval.serialize import canonical_json
from repro.obs import enabled_observability
from repro.simulator import SimConfig
from repro.topology import mesh

RATES = (0.05, 0.1, 0.15, 0.2)


def _cells():
    return [
        OpenLoopCell(
            label=f"rate-{rate}",
            topology=mesh(2, 2),
            pattern="uniform",
            injection_rate=rate,
            config=SimConfig(),
            warmup_cycles=50,
            measure_cycles=200,
            drain_cycles=200,
        )
        for rate in RATES
    ]


def _bytes(outcomes):
    return [(o.label, canonical_json(o.payload)) for o in outcomes]


@pytest.fixture(scope="module")
def cold():
    """The reference: a serial run with no cache."""
    return run_cells(_cells())


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("run_cells started a worker pool")


@pytest.fixture
def no_pool(monkeypatch):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)


@pytest.fixture
def pools(monkeypatch):
    """Run pool submissions inline; yields every pool started, each with
    its width and the labels of the cells it computed."""
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.labels = []
            started.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args, **kwargs):
            future = Future()
            future.set_result(fn(*args, **kwargs))
            self.labels.append(future.result().label)
            return future

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", InlinePool)
    return started


def test_warm_fanned_batch_starts_no_pool(cache, cold, monkeypatch):
    run_cells(_cells(), cache=cache)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    warm = run_cells(_cells(), jobs=2, cache=cache)
    assert all(o.cache_hit for o in warm)
    assert _bytes(warm) == _bytes(cold)


def test_half_warm_batch_sends_only_misses_to_workers(cache, cold, pools):
    cells = _cells()
    run_cells(cells[::2], cache=cache)
    outcomes = run_cells(cells, jobs=4, cache=cache)
    assert [o.label for o in outcomes] == [c.label for c in cells]
    assert [o.cache_hit for o in outcomes] == [True, False, True, False]
    (pool,) = pools
    assert pool.max_workers == 2
    assert sorted(pool.labels) == sorted(c.label for c in cells[1::2])
    assert _bytes(outcomes) == _bytes(cold)


def test_lone_miss_is_computed_in_process(cache, cold, no_pool):
    cells = _cells()
    for cell in cells[1:]:
        run_cells([cell], cache=cache)
    outcomes = run_cells(cells, jobs=2, cache=cache)
    assert [o.cache_hit for o in outcomes] == [False, True, True, True]
    assert _bytes(outcomes) == _bytes(cold)
    assert cache.get_result(outcomes[0].key) == outcomes[0].payload


def test_serial_misses_are_computed_in_process(cache, cold, no_pool):
    outcomes = run_cells(_cells(), jobs=1, cache=cache)
    assert not any(o.cache_hit for o in outcomes)
    assert _bytes(outcomes) == _bytes(cold)


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("warm", [slice(0), slice(None, None, 2), slice(None)])
def test_progress_fires_once_per_cell(cache, pools, jobs, warm):
    cells = _cells()
    run_cells(cells[warm], cache=cache)
    calls = []
    run_cells(
        cells,
        jobs=jobs,
        cache=cache,
        progress=lambda outcome, done, total: calls.append((outcome.label, done, total)),
    )
    assert [done for _, done, _ in calls] == list(range(1, len(cells) + 1))
    assert {total for _, _, total in calls} == {len(cells)}
    assert sorted(label for label, _, _ in calls) == sorted(c.label for c in cells)


def test_fanned_obs_matches_serial(tmp_path, pools):
    """Cache counters and ``eval.cell`` spans do not depend on where a
    cell was resolved."""
    cells = _cells()
    snapshots = []
    for jobs in (None, 2):
        cache = ResultCache(tmp_path / f"jobs-{jobs}")
        run_cells(cells[::2], cache=cache)
        obs = enabled_observability()
        run_cells(cells, jobs=jobs, cache=cache, obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        snapshots.append(
            (
                {k: v for k, v in counters.items() if k.startswith("eval.cache.")},
                sorted(
                    (s["args"]["label"], s["args"]["cache_hit"])
                    for s in obs.tracer.spans()
                    if s["name"] == "eval.cell"
                ),
            )
        )
    serial, fanned = snapshots
    assert fanned == serial
    assert serial[0] == {
        "eval.cache.lookups": 4,
        "eval.cache.hits": 2,
        "eval.cache.misses": 2,
    }


def test_uncached_run_counts_no_cache_traffic():
    """With no cache there are no lookups, hits or misses to count; the
    lookup counter still exists, at 0, for the profile report."""
    obs = enabled_observability()
    run_cells(_cells()[:1], obs=obs)
    counters = obs.metrics.snapshot()["counters"]
    assert {k: v for k, v in counters.items() if k.startswith("eval.cache.")} == {
        "eval.cache.lookups": 0
    }


def test_real_pool_computes_misses_and_writes_them_through(cache, cold):
    cells = _cells()
    run_cells(cells[:1], cache=cache)
    fanned = run_cells(cells, jobs=2, cache=cache)
    assert [o.cache_hit for o in fanned] == [True, False, False, False]
    assert _bytes(fanned) == _bytes(cold)
    assert all(o.cache_hit for o in run_cells(cells, cache=cache))


@pytest.mark.slow
def test_warm_grid_builds_no_setup(cache, monkeypatch):
    """A warm Figure 8 grid reads its setups and cells from the cache:
    no setup is built, in process or in a pool worker, and every row
    and cell key equals the cold run's.  The keys also equal those of
    setups built in process by ``prepare()``, so caches written before
    setups were read back from JSON stay warm."""

    def grid():
        keys = {}
        rows = figure8_rows(
            "small",
            jobs=2,
            cache=cache,
            progress=lambda outcome, done, total: keys.update({outcome.label: outcome.key}),
        )
        return rows, keys

    cold_rows, cold_keys = grid()

    def refuse(*args, **kwargs):
        raise AssertionError("a warm grid built a setup")

    monkeypatch.setattr(parallel, "_build_setup", refuse)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
    assert grid() == (cold_rows, cold_keys)
    built = {
        f"{setup.name}/{kind}": PerformanceCell(
            label="",
            program=setup.benchmark.program,
            topology=setup.topology(kind),
            config=SimConfig(),
            link_delays=setup.link_delays(kind),
        ).key()
        for setup in (prepare(name, n) for name, n in paper_sizes("small").items())
        for kind in TOPOLOGY_ORDER
    }
    assert built == cold_keys
