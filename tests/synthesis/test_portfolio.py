"""Portfolio determinism harness: serial == parallel == cache-hit.

Mirrors ``tests/eval/test_determinism.py`` for the synthesis portfolio:
the golden fixture pins the canonical JSON of a small cg-8 portfolio
(summary + rehydrated winner design) under fixed seeds; jobs values,
cache states and seed-base framing must all reproduce it byte for byte.

Regenerate the fixture after an *intentional* synthesis change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/synthesis/test_portfolio.py -q
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.errors import SynthesisError
from repro.eval.parallel import ResultCache, SynthesisCell, run_cells
from repro.eval.serialize import canonical_json, design_to_dict
from repro.synthesis import (
    OBJECTIVES,
    AnnealSchedule,
    DesignConstraints,
    PortfolioConfig,
    generate_network,
    portfolio_cells,
    synthesize_portfolio,
)
from repro.workloads import benchmark

GOLDEN_PATH = Path(__file__).parent / "golden" / "cg8_portfolio.json"

INFEASIBLE = DesignConstraints(max_degree=2)  # no cg-8 seed satisfies this

# The retired benchmark gate's portfolio cases: (benchmark, nodes,
# constraints, config) -> winner (seed, objective, links, switches),
# (feasible runs, runs) and the SHA-256 of the identity JSON.
PINNED_PORTFOLIOS = [
    pytest.param(
        "cg", 16, DesignConstraints(), PortfolioConfig(size=4),
        (1, 10.0, 10, 8), (4, 4),
        "c40d02a3b446aa410b57660829357d850491a8e9795fef3486ca6dfec7026ede",
        id="cg16-portfolio-k4",
    ),
    pytest.param(
        "cg", 16, DesignConstraints(),
        PortfolioConfig(
            size=2,
            schedules=(None, AnnealSchedule(steps=400, moves_per_temperature=10)),
        ),
        (0, 9.0, 9, 7), (4, 4),
        "66418885acdb3b247df7b4dc83455d05c08e913da431f490052abc5bbee3d896",
        id="cg16-portfolio-grid",
    ),
    pytest.param(
        # cg-64 is infeasible at the paper's degree-5 bound.
        "cg", 64, DesignConstraints(max_degree=8), PortfolioConfig(size=2),
        (0, 78.0, 78, 29), (2, 2),
        "4194c29e2c91867837d3b49c861121ee52319ff6cd538a7a16a4ca53e88d873b",
        id="cg64-portfolio-k2",
        marks=pytest.mark.slow,
    ),
]


@pytest.fixture(scope="module")
def cg8():
    return benchmark("cg", 8).pattern


def _config(**over):
    fields = dict(size=3, seed_base=0)
    fields.update(over)
    return PortfolioConfig(**fields)


def _identity(result):
    """The byte-identity surface: summary plus serialized winner."""
    return canonical_json(
        {
            "summary": result.summary_dict(),
            "design": design_to_dict(result.design),
        }
    )


class TestGoldenPortfolio:
    def test_serial_run_matches_golden(self, cg8):
        got = json.loads(_identity(synthesize_portfolio(cg8, config=_config())))
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert got == golden

    def test_cache_hit_is_byte_identical(self, cg8, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = synthesize_portfolio(cg8, config=_config(), cache=cache)
        warm = synthesize_portfolio(cg8, config=_config(), cache=cache)
        assert not any(r.cache_hit for r in cold.runs)
        assert all(r.cache_hit for r in warm.runs)
        assert _identity(warm) == _identity(cold)

    @pytest.mark.slow
    def test_parallel_run_is_byte_identical(self, cg8, tmp_path):
        serial = synthesize_portfolio(cg8, config=_config(), jobs=1)
        fanned = synthesize_portfolio(
            cg8, config=_config(), jobs=4, cache=ResultCache(tmp_path / "c")
        )
        assert _identity(fanned) == _identity(serial)

    def test_winner_matches_generate_network_at_winning_seed(self, cg8):
        """The rehydrated winner serializes identically to a direct
        in-process run at the winning seed."""
        result = synthesize_portfolio(cg8, config=_config())
        direct = generate_network(cg8, seed=result.winner.seed, restarts=1)
        assert canonical_json(design_to_dict(result.design)) == canonical_json(
            design_to_dict(direct)
        )

    def test_seed_base_shift_reuses_overlapping_cells(self, cg8, tmp_path):
        """Seed s is the same cell no matter which base framed it: a
        shifted portfolio hits cache on the overlap and its runs agree
        with the original run-for-run."""
        cache = ResultCache(tmp_path / "cache")
        base = synthesize_portfolio(cg8, config=_config(size=3), cache=cache)
        shifted = synthesize_portfolio(
            cg8, config=_config(size=2, seed_base=1), cache=cache
        )
        assert all(r.cache_hit for r in shifted.runs)
        by_seed = {r.seed: r for r in base.runs}
        for run in shifted.runs:
            original = by_seed[run.seed]
            assert (run.objective, run.links, run.switches) == (
                original.objective,
                original.links,
                original.switches,
            )

    @pytest.mark.parametrize(
        "name, nodes, constraints, config, winner, counts, sha", PINNED_PORTFOLIOS
    )
    def test_pinned_portfolio_fanned_cold_and_serial_warm(
        self, name, nodes, constraints, config, winner, counts, sha, tmp_path
    ):
        pattern = benchmark(name, nodes).pattern
        cache = ResultCache(tmp_path / "cache")
        cold = synthesize_portfolio(
            pattern, constraints=constraints, config=config, jobs=2, cache=cache
        )
        warm = synthesize_portfolio(
            pattern, constraints=constraints, config=config, jobs=1, cache=cache
        )
        assert all(r.cache_hit for r in warm.runs)
        w = cold.winner
        assert (w.seed, w.objective, w.links, w.switches) == winner
        assert (sum(r.status == "ok" for r in cold.runs), len(cold.runs)) == counts
        for result in (cold, warm):
            assert hashlib.sha256(_identity(result).encode()).hexdigest() == sha


class TestCells:
    def test_grid_is_seed_major(self, cg8):
        config = _config(
            size=2, schedules=(None, AnnealSchedule(steps=100))
        )
        cells = portfolio_cells(cg8, None, config)
        assert [(c.seed, c.schedule) for c in cells] == [
            (0, None),
            (0, AnnealSchedule(steps=100)),
            (1, None),
            (1, AnnealSchedule(steps=100)),
        ]
        assert [c.label for c in cells] == [
            "synth:cg-8:s0/g0",
            "synth:cg-8:s0/g1",
            "synth:cg-8:s1/g0",
            "synth:cg-8:s1/g1",
        ]

    def test_key_is_stable(self, cg8):
        config = _config()
        a = portfolio_cells(cg8, None, config)
        b = portfolio_cells(cg8, None, config)
        assert [c.key() for c in a] == [c.key() for c in b]

    def test_key_distinguishes_specs(self, cg8):
        base = SynthesisCell(label="x", pattern=cg8, seed=0)
        variants = [
            SynthesisCell(label="x", pattern=cg8, seed=1),
            SynthesisCell(
                label="x", pattern=cg8, seed=0,
                constraints=DesignConstraints(max_degree=8),
            ),
            SynthesisCell(
                label="x", pattern=cg8, seed=0, schedule=AnnealSchedule(steps=50)
            ),
            SynthesisCell(label="x", pattern=cg8, seed=0, restarts=2),
            SynthesisCell(label="x", pattern=cg8, seed=0, reroute=False),
            SynthesisCell(label="x", pattern=cg8, seed=0, moves=False),
            SynthesisCell(label="x", pattern=benchmark("mg", 8).pattern, seed=0),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == 1 + len(variants)

    def test_label_is_not_part_of_the_key(self, cg8):
        a = SynthesisCell(label="a", pattern=cg8, seed=0)
        b = SynthesisCell(label="b", pattern=cg8, seed=0)
        assert a.key() == b.key()

    def test_infeasible_outcome_is_cached(self, cg8, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cell = SynthesisCell(
            label="synth:cg-8:s0", pattern=cg8, seed=0, constraints=INFEASIBLE
        )
        cold = run_cells([cell], cache=cache)
        warm = run_cells([cell], cache=cache)
        assert cold[0].payload["status"] == "infeasible"
        assert not cold[0].cache_hit
        assert warm[0].cache_hit
        assert canonical_json(warm[0].payload) == canonical_json(cold[0].payload)


class TestConfigAndSelection:
    def test_config_validates(self):
        with pytest.raises(SynthesisError, match="seed"):
            PortfolioConfig(size=0)
        with pytest.raises(SynthesisError, match="schedule"):
            PortfolioConfig(schedules=())
        with pytest.raises(SynthesisError, match="objective"):
            PortfolioConfig(objective="fastest")
        with pytest.raises(SynthesisError, match="restarts"):
            PortfolioConfig(restarts=0)

    def test_objectives_rank_payloads(self):
        payload = {
            "links": [[0, 1], [1, 2], [0, 2]],
            "num_switches": 3,
            "routes": [[0, 1, [0, 1], [0]], [1, 2, [1, 2], [1]]],
        }
        assert OBJECTIVES["links"](payload) == 3.0
        assert OBJECTIVES["switches"](payload) == 3.0
        assert OBJECTIVES["avg-hops"](payload) == 1.0

    def test_all_infeasible_raises_with_run_errors(self, cg8):
        with pytest.raises(SynthesisError, match="all 2 runs failed"):
            synthesize_portfolio(
                cg8, constraints=INFEASIBLE, config=_config(size=2)
            )

    def test_summary_dict_has_no_timing_or_cache_fields(self, cg8):
        result = synthesize_portfolio(cg8, config=_config(size=2))
        text = canonical_json(result.summary_dict())
        assert "seconds" not in text and "cache" not in text

    def test_render_marks_the_winner(self, cg8):
        result = synthesize_portfolio(cg8, config=_config())
        table = result.render()
        starred = [line for line in table.splitlines() if line.endswith("*")]
        assert len(starred) == 1
        assert f"s{result.winner.seed}" in starred[0]


class TestEarlyStop:
    def test_race_stops_at_met_target(self, cg8):
        """With jobs=1 the race runs one cell per wave; a target any
        feasible design meets stops after the first and marks the rest
        skipped."""
        result = synthesize_portfolio(
            cg8, config=_config(target_objective=1e9), jobs=1
        )
        assert result.early_stopped
        assert result.runs[0].status == "ok"
        assert all(r.status == "skipped" for r in result.runs[1:])
        assert result.winner is result.runs[0]

    def test_unmet_target_runs_everything(self, cg8):
        result = synthesize_portfolio(
            cg8, config=_config(size=2, target_objective=0.0), jobs=1
        )
        assert not result.early_stopped
        assert all(r.status != "skipped" for r in result.runs)
