"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize"])

    def test_synthesize_sources_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["synthesize", "--benchmark", "cg", "--trace", "x.jsonl"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["synthesize", "--benchmark", "cg"])
        assert args.nodes == 16
        assert args.max_degree == 5


class TestSynthesizeCommand:
    def test_benchmark_synthesis_prints_network(self, capsys):
        rc = main(
            ["synthesize", "--benchmark", "cg", "--nodes", "8", "--restarts", "4"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "contention-free: True" in out
        assert "switches" in out

    def test_floorplan_flag_renders(self, capsys):
        rc = main(
            [
                "synthesize", "--benchmark", "cg", "--nodes", "8",
                "--restarts", "4", "--floorplan",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "link area" in out
        assert "at corner" in out

    def test_trace_synthesis(self, tmp_path, capsys):
        from repro.workloads import cg, write_trace

        path = tmp_path / "cg.jsonl"
        write_trace(cg(8, iterations=1).trace, path)
        rc = main(["synthesize", "--trace", str(path), "--restarts", "4"])
        assert rc == 0
        assert "contention-free" in capsys.readouterr().out

    def test_missing_trace_reports_error(self, capsys):
        rc = main(["synthesize", "--trace", "/nonexistent/file.jsonl"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestPortfolioSynthesis:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["synthesize", "--benchmark", "cg"])
        assert args.portfolio is None
        assert args.seed_base is None
        assert args.objective is None

    @pytest.mark.parametrize(
        "flags",
        [
            ["--objective", "avg-hops"],
            ["--seed-base", "5"],
            ["--seed-base", "0"],
            ["--objective", "avg-hops", "--seed-base", "5"],
        ],
    )
    def test_portfolio_only_flags_need_portfolio(self, flags, capsys):
        rc = main(
            ["synthesize", "--benchmark", "cg", "--nodes", "8", "--no-cache"]
            + flags
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "--portfolio" in captured.err
        for flag in flags[::2]:
            assert flag in captured.err

    def test_portfolio_prints_run_table_and_winner(self, capsys):
        rc = main(
            [
                "synthesize", "--benchmark", "cg", "--nodes", "8",
                "--portfolio", "2", "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "synth:cg-8:s0" in out and "synth:cg-8:s1" in out
        assert "*" in out  # winner marker
        assert "contention-free: True" in out

    def test_seed_base_shifts_the_grid(self, capsys):
        rc = main(
            [
                "synthesize", "--benchmark", "cg", "--nodes", "8",
                "--portfolio", "2", "--seed-base", "5", "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "synth:cg-8:s5" in out and "synth:cg-8:s6" in out

    def test_all_infeasible_portfolio_is_clean_error(self, capsys):
        rc = main(
            [
                "synthesize", "--benchmark", "cg", "--nodes", "8",
                "--portfolio", "2", "--max-degree", "2", "--no-cache",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestSimulateCommand:
    def test_simulate_mesh(self, capsys):
        rc = main(
            ["simulate", "--benchmark", "cg", "--nodes", "8", "--topology", "mesh"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "cg-8 on mesh" in out
        assert "deadlocks" in out


class TestInfeasibleSynthesis:
    def test_clean_error_message(self, capsys):
        rc = main(
            [
                "synthesize", "--benchmark", "cg", "--nodes", "8",
                "--max-degree", "2", "--restarts", "2",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestResilienceCommand:
    def test_generated_campaign_reports_degradation(self, tmp_path, capsys):
        rc = main(
            [
                "resilience", "--benchmark", "cg", "--nodes", "8",
                "--topologies", "generated", "--cache-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Resilience of" in out
        assert "scenario" in out and "status" in out
        assert "survive connected" in out

    def test_rerun_reads_its_setup_from_the_cache(self, tmp_path, capsys, monkeypatch):
        import repro.eval.parallel as parallel

        argv = [
            "resilience", "--benchmark", "cg", "--nodes", "8",
            "--topologies", "generated", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("a cached campaign rebuilt its setup")

        monkeypatch.setattr(parallel, "_build_setup", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert len(list((tmp_path / "setups").iterdir())) == 1

    def test_unknown_topology_reports_error(self, capsys):
        rc = main(
            ["resilience", "--benchmark", "cg", "--topologies", "blimp"]
        )
        assert rc == 1
        assert "unknown topology" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args(["resilience"])
        assert args.benchmark == "cg"
        assert args.nodes == 8
        assert args.faults == "link"
        assert args.transient is None


class TestVerifyCommand:
    def test_generated_certificate_passes(self, capsys):
        rc = main(["verify", "--benchmark", "cg", "--nodes", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS] contention" in out
        assert "[PASS] deadlock" in out

    def test_mesh_contention_reported_but_not_gating(self, capsys):
        rc = main(["verify", "--benchmark", "cg", "--nodes", "8",
                   "--topology", "mesh"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[FAIL] contention" in out
        assert "[PASS] deadlock" in out

    def test_mesh_fails_when_contention_required(self, capsys):
        rc = main(["verify", "--benchmark", "cg", "--nodes", "8",
                   "--topology", "mesh", "--require-contention-free"])
        assert rc == 1

    def test_json_certificate_written(self, tmp_path, capsys):
        import json

        path = tmp_path / "cert.json"
        rc = main(["verify", "--benchmark", "cg", "--nodes", "8",
                   "--json", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["pattern_name"] == "cg-8"
        assert str(path) in capsys.readouterr().err

    def test_dynamic_cross_validation(self, capsys):
        rc = main(["verify", "--benchmark", "cg", "--nodes", "8", "--dynamic"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "replayed" in out
        assert "0 contention stalls" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["verify", "--benchmark", "cg"])
        assert args.nodes == 16
        assert args.topology == "generated"
        assert args.require_cf is None
        assert not args.dynamic


class TestSweepCommand:
    FAST = [
        "sweep", "--nodes", "8", "--points", "2", "--refine", "1", "--no-cache",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.pattern == "uniform"
        assert args.topology == "mesh"
        assert args.nodes == 16
        assert args.points == 6 and args.refine == 4

    def test_list_patterns(self, capsys):
        rc = main(["sweep", "--list-patterns"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tornado" in out
        assert "hotspot" in out
        assert "routing-aware" in out

    def test_mesh_tornado_sweep_prints_curve(self, capsys):
        rc = main(self.FAST + ["--pattern", "tornado"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "saturation sweep: tornado on mesh" in out
        assert "offered" in out and "accepted" in out

    def test_json_and_csv_artifacts(self, tmp_path, capsys):
        import json

        jpath, cpath = tmp_path / "curve.json", tmp_path / "points.csv"
        rc = main(
            self.FAST
            + ["--pattern", "hotspot:1:0.8", "--json", str(jpath), "--csv", str(cpath)]
        )
        assert rc == 0
        payload = json.loads(jpath.read_text())
        assert payload["kind"] == "saturation-curve"
        assert payload["pattern"] == "hotspot:1:0.8"
        assert payload["schema"] == 2
        for point in payload["points"]:
            assert point["p50_latency"] <= point["p95_latency"] <= point["p99_latency"]
        assert cpath.read_text().startswith("offered,accepted,")

    def test_criterion_recorded_in_artifact(self, tmp_path):
        import json

        jpath = tmp_path / "curve.json"
        rc = main(
            self.FAST + ["--criterion", "p99-knee", "--json", str(jpath)]
        )
        assert rc == 0
        assert json.loads(jpath.read_text())["params"]["criterion"] == "p99-knee"

    def test_unknown_criterion_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--criterion", "p42-knee"])

    def test_plot_writes_ascii_chart(self, tmp_path, capsys):
        path = tmp_path / "curve.txt"
        rc = main(self.FAST + ["--plot", str(path)])
        assert rc == 0
        text = path.read_text()
        assert "latency vs offered rate" in text
        assert "5 = p50" in text
        assert str(path) in capsys.readouterr().err

    def test_plot_svg_extension_switches_format(self, tmp_path):
        import xml.etree.ElementTree as ET

        path = tmp_path / "curve.svg"
        rc = main(self.FAST + ["--plot", str(path)])
        assert rc == 0
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")

    def test_strict_pattern_violation_is_clean_error(self, capsys):
        rc = main(self.FAST + ["--pattern", "transpose"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "pattern spec 'transpose' requires" in err
        assert "n=8" in err and "nearest valid sizes: 4 and 9" in err

    def test_unknown_pattern_is_clean_error(self, capsys):
        rc = main(self.FAST + ["--pattern", "bogus"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "unknown pattern" in err


class TestCacheCommand:
    def test_info_enumerates_synthesis_payloads(self, tmp_path, capsys):
        from repro.eval.parallel import ResultCache, SynthesisCell, run_cells
        from repro.synthesis import DesignConstraints
        from repro.workloads import benchmark

        cache = ResultCache(str(tmp_path))
        run_cells(
            [
                SynthesisCell(
                    label="synth:ok", pattern=benchmark("cg", 8).pattern,
                    seed=0, constraints=DesignConstraints(max_degree=5),
                )
            ],
            cache=cache,
        )
        rc = main(["cache", "info", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "synthesis: 1 (1 designs, 0 infeasible seeds" in out
        assert "evaluation: 0" in out

    def test_clear_reports_removed_count(self, tmp_path, capsys):
        from repro.eval.parallel import ResultCache

        ResultCache(str(tmp_path)).put_result("e" * 64, {"status": "ok"})
        rc = main(["cache", "clear", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "removed 1 cached entries" in out
