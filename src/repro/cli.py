"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``synthesize`` — run the design methodology on a built-in benchmark
  or a trace file and print the generated network.
* ``simulate`` — replay a benchmark on one topology and print stats.
* ``figure7`` / ``figure8`` — regenerate the paper's evaluation tables.
* ``cross-workload`` — the Section 4.2 robustness study.
* ``resilience`` — fault-injection campaign: degradation of generated
  networks vs baselines under link/switch failures.
* ``verify`` — static safety certification of one network under one
  benchmark's pattern: deadlock freedom (channel-dependency-graph
  acyclicity with cycle witnesses), Theorem 1, degree, connectivity and
  route validity, emitted as a canonical JSON certificate (see
  ``docs/VERIFICATION.md``).
* ``profile`` — run one benchmark fully observed and print a
  phase/time/counter breakdown (see ``docs/OBSERVABILITY.md``).
* ``sweep`` — automated saturation sweep of one synthetic traffic
  pattern on one topology: adaptive knee bisection, schema-versioned
  canonical-JSON curve artifact (see ``docs/SWEEPS.md``).
* ``cache`` — inspect or clear the on-disk evaluation result cache.

``synthesize``, ``simulate`` and ``profile`` accept ``--trace``
(``--trace-out`` for synthesize) and ``--metrics-out`` to export the
run's trace (JSONL or Chrome trace JSON) and metrics snapshot.

The grid-shaped commands (figure7/figure8/cross-workload/resilience)
accept ``--jobs N`` to fan cells out over a process pool, ``--no-cache``
/ ``--cache-dir`` to control the content-addressed result cache, and
``--progress`` for per-cell timing lines on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def _add_runner_options(cmd: argparse.ArgumentParser) -> None:
    """Shared parallel-runner/cache flags for grid-shaped commands."""
    cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the evaluation grid "
        "(1 = serial, 0 = all cores; default 1)",
    )
    cmd.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default .repro-cache)",
    )
    cmd.add_argument(
        "--progress", action="store_true",
        help="print per-cell timing lines to stderr",
    )


def _runner_kwargs(args) -> dict:
    """Translate the shared flags into row-producer keyword arguments."""
    from repro.eval.parallel import DEFAULT_CACHE_DIR, ResultCache, print_progress

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    return {
        "jobs": args.jobs,
        "cache": cache,
        "progress": print_progress if args.progress else None,
    }


def _add_obs_options(cmd: argparse.ArgumentParser, trace_flag: str = "--trace") -> None:
    """Shared observability output flags (``synthesize`` already uses
    ``--trace`` for its input trace file, so it takes ``--trace-out``)."""
    cmd.add_argument(
        trace_flag, dest="trace_out", default=None, metavar="PATH",
        help="write a trace of the run (.jsonl for JSONL, anything else "
        "for Chrome trace JSON viewable in chrome://tracing or Perfetto)",
    )
    cmd.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the collected metrics snapshot as JSON",
    )
    cmd.add_argument(
        "--sample-every", type=int, default=128, metavar="CYCLES",
        help="cycles between simulator occupancy samples (default 128)",
    )


def _obs_from(args):
    """An enabled bundle when any obs output was requested, else None."""
    from repro.obs import enabled_observability

    if args.trace_out is None and args.metrics_out is None:
        return None
    return enabled_observability(sample_every=args.sample_every)


def _write_obs(args, obs) -> None:
    if obs is None:
        return
    if args.trace_out:
        obs.tracer.write(args.trace_out)
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        obs.metrics.write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Application-specific on-chip interconnect synthesis "
            "(Ho & Pinkston, HPCA 2003 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    syn = sub.add_parser("synthesize", help="design a network for a pattern")
    source = syn.add_mutually_exclusive_group(required=True)
    source.add_argument("--benchmark", choices=("bt", "cg", "fft", "mg", "sp"))
    source.add_argument("--trace", help="path to a JSONL trace file")
    syn.add_argument("--nodes", type=int, default=16)
    syn.add_argument("--max-degree", type=int, default=5)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--restarts", type=int, default=8)
    syn.add_argument(
        "--portfolio", type=int, default=None, metavar="K",
        help="fan K seeded synthesis runs through the cached eval runner "
        "and keep the deterministic winner (replaces serial --restarts)",
    )
    syn.add_argument(
        "--seed-base", type=int, default=None, metavar="S",
        help="first seed of the portfolio grid (default: --seed)",
    )
    syn.add_argument(
        "--objective", default=None, choices=("links", "switches", "avg-hops"),
        help="portfolio ranking objective (default links)",
    )
    syn.add_argument(
        "--floorplan", action="store_true", help="also place and render the result"
    )
    _add_runner_options(syn)
    _add_obs_options(syn, trace_flag="--trace-out")

    sim = sub.add_parser("simulate", help="replay a benchmark on a topology")
    sim.add_argument("--benchmark", required=True, choices=("bt", "cg", "fft", "mg", "sp"))
    sim.add_argument("--nodes", type=int, default=16)
    sim.add_argument(
        "--topology",
        default="generated",
        choices=("crossbar", "mesh", "torus", "generated"),
    )
    sim.add_argument("--seed", type=int, default=0)
    _add_obs_options(sim)

    prof = sub.add_parser(
        "profile",
        help="run one benchmark fully observed; print a phase/time/counter table",
    )
    prof.add_argument(
        "--benchmark", default="cg", choices=("bt", "cg", "fft", "mg", "sp")
    )
    prof.add_argument("--nodes", type=int, default=8)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--restarts", type=int, default=8)
    prof.add_argument(
        "--topologies",
        default="crossbar,mesh,torus,generated",
        help="comma-separated topology kinds to simulate",
    )
    prof.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    prof.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default .repro-cache)",
    )
    _add_obs_options(prof)

    for name in ("figure7", "figure8"):
        fig = sub.add_parser(name, help=f"regenerate the paper's {name}")
        fig.add_argument("--size", default="small", choices=("small", "large"))
        fig.add_argument("--seed", type=int, default=0)
        _add_runner_options(fig)

    cross = sub.add_parser("cross-workload", help="Section 4.2 robustness study")
    cross.add_argument("--seed", type=int, default=0)
    _add_runner_options(cross)

    res = sub.add_parser(
        "resilience", help="fault-injection campaign across topologies"
    )
    res.add_argument(
        "--benchmark", default="cg", choices=("bt", "cg", "fft", "mg", "sp")
    )
    res.add_argument("--nodes", type=int, default=8)
    res.add_argument(
        "--topologies",
        default="generated,mesh",
        help="comma-separated topology kinds (generated, mesh, torus, crossbar)",
    )
    res.add_argument(
        "--faults", default="link", choices=("link", "switch", "both"),
        help="which resource class fails",
    )
    res.add_argument(
        "--double", action="store_true", help="also inject every fault pair"
    )
    res.add_argument(
        "--max-scenarios", type=int, default=None,
        help="sample the campaign down to this many scenarios (seeded)",
    )
    res.add_argument(
        "--transient", type=int, default=None, metavar="CYCLES",
        help="make faults transient, lasting CYCLES cycles from their "
        "start (disables route repair so retransmission is observable)",
    )
    res.add_argument(
        "--fault-start", type=int, default=0, metavar="CYCLE",
        help="cycle every fault activates at (default 0; set mid-run so "
        "transient faults catch flits in flight)",
    )
    res.add_argument("--seed", type=int, default=0)
    _add_runner_options(res)

    ver = sub.add_parser(
        "verify",
        help="statically certify a routed network (deadlock freedom, "
        "Theorem 1, degree, connectivity, route validity)",
    )
    ver.add_argument(
        "--benchmark", required=True, choices=("bt", "cg", "fft", "mg", "sp")
    )
    ver.add_argument("--nodes", type=int, default=16)
    ver.add_argument(
        "--topology",
        default="generated",
        choices=("generated", "mesh", "torus", "crossbar"),
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument(
        "--max-degree", type=int, default=None, metavar="D",
        help="degree bound to certify against (defaults to the synthesis "
        "constraint for generated networks, unbounded otherwise)",
    )
    ver.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the canonical certificate JSON to PATH",
    )
    ver.add_argument(
        "--dynamic", action="store_true",
        help="cross-validate the certificate against a flit-level replay "
        "of the pattern (zero contention stalls / zero deadlock recoveries)",
    )
    require = ver.add_mutually_exclusive_group()
    require.add_argument(
        "--require-contention-free", dest="require_cf",
        action="store_true", default=None,
        help="fail unless Theorem 1 holds (default for generated networks)",
    )
    require.add_argument(
        "--no-require-contention-free", dest="require_cf", action="store_false",
        help="report contention findings without failing on them "
        "(default for baselines)",
    )

    swp = sub.add_parser(
        "sweep",
        help="saturation sweep of a synthetic pattern on one topology",
    )
    swp.add_argument(
        "--pattern", default="uniform", metavar="SPEC",
        help="synthetic pattern spec: a registered name (run with "
        "--list-patterns to see them) or a parameterized form like "
        "hotspot:3:0.8 (default uniform)",
    )
    swp.add_argument(
        "--list-patterns", action="store_true",
        help="print the registered pattern catalog and exit",
    )
    swp.add_argument(
        "--topology",
        default="mesh",
        choices=("mesh", "torus", "crossbar", "generated", "generated-spare"),
        help="network under test (generated* synthesize for --benchmark)",
    )
    swp.add_argument("--nodes", type=int, default=16)
    swp.add_argument(
        "--benchmark", default="cg", choices=("bt", "cg", "fft", "mg", "sp"),
        help="benchmark the generated topologies are synthesized for",
    )
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--restarts", type=int, default=8)
    swp.add_argument(
        "--min-rate", type=float, default=0.05, metavar="R",
        help="lowest offered rate in flits/node/cycle (default 0.05)",
    )
    swp.add_argument(
        "--max-rate", type=float, default=1.0, metavar="R",
        help="highest offered rate in flits/node/cycle (default 1.0)",
    )
    swp.add_argument(
        "--points", type=int, default=6, metavar="N",
        help="initial evenly spaced rates before refinement (default 6)",
    )
    swp.add_argument(
        "--refine", type=int, default=4, metavar="N",
        help="bisection steps around the knee (default 4)",
    )
    swp.add_argument(
        "--criterion", default="mean-knee", choices=("mean-knee", "p99-knee"),
        help="saturation criterion: knee of the mean latency curve "
        "(default) or of the p99 tail-latency curve",
    )
    swp.add_argument(
        "--plot", dest="plot_out", default=None, metavar="PATH",
        help="write a p50/p95/p99 latency-vs-rate chart (SVG when PATH "
        "ends in .svg, ASCII otherwise)",
    )
    swp.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="write the canonical SaturationCurve JSON to PATH",
    )
    swp.add_argument(
        "--csv", dest="csv_out", default=None, metavar="PATH",
        help="write the measured points as CSV to PATH",
    )
    _add_runner_options(swp)
    _add_obs_options(swp)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default .repro-cache)",
    )

    insp = sub.add_parser("inspect", help="visualize a benchmark's pattern")
    insp.add_argument("--benchmark", required=True, choices=("bt", "cg", "fft", "mg", "sp"))
    insp.add_argument("--nodes", type=int, default=16)
    return parser


def _cmd_synthesize(args) -> int:
    from repro.floorplan import place
    from repro.synthesis import (
        DesignConstraints,
        PortfolioConfig,
        generate_network,
        synthesize_portfolio,
    )
    from repro.workloads import benchmark, extract_pattern, read_trace

    portfolio_only = [
        flag
        for flag, value in (
            ("--objective", args.objective),
            ("--seed-base", args.seed_base),
        )
        if value is not None
    ]
    if portfolio_only and args.portfolio is None:
        raise ReproError(f"{', '.join(portfolio_only)} only apply with --portfolio")
    if args.benchmark:
        pattern = benchmark(args.benchmark, args.nodes).pattern
    else:
        pattern = extract_pattern(read_trace(args.trace))
    obs = _obs_from(args)
    constraints = DesignConstraints(max_degree=args.max_degree)
    if args.portfolio is not None:
        runner = _runner_kwargs(args)
        result = synthesize_portfolio(
            pattern,
            constraints=constraints,
            config=PortfolioConfig(
                size=args.portfolio,
                seed_base=args.seed_base if args.seed_base is not None else args.seed,
                objective=args.objective or "links",
            ),
            obs=obs,
            **runner,
        )
        design = result.design
        print(result.render())
        print()
    else:
        design = generate_network(
            pattern,
            constraints=constraints,
            seed=args.seed,
            restarts=args.restarts,
            obs=obs,
        )
    print(design.network.describe())
    print(f"contention-free: {design.certificate.contention_free}")
    print(
        f"bisections: {design.stats.bisections}, "
        f"route moves: {design.stats.route_moves}, "
        f"processor moves: {design.stats.processor_moves}"
    )
    if args.floorplan:
        plan = place(design.network, seed=args.seed, obs=obs)
        print()
        print(plan.render())
        print(f"link area: {plan.total_link_area} (feasible: {plan.feasible})")
    _write_obs(args, obs)
    return 0


def _cmd_simulate(args) -> int:
    from repro.eval import PerformanceCell, prepare, result_from_dict, run_cells
    from repro.simulator import SimConfig

    obs = _obs_from(args)
    setup = prepare(args.benchmark, args.nodes, seed=args.seed)
    cell = PerformanceCell(
        label=f"{setup.name}/{args.topology}",
        program=setup.benchmark.program,
        topology=setup.topology(args.topology),
        config=SimConfig(),
        link_delays=setup.link_delays(args.topology),
    )
    (outcome,) = run_cells([cell], obs=obs)
    print(result_from_dict(outcome.payload).summary())
    _write_obs(args, obs)
    return 0


def _cmd_profile(args) -> int:
    from repro.eval.parallel import DEFAULT_CACHE_DIR, ResultCache
    from repro.obs.profile import run_profile

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    kinds = tuple(k.strip() for k in args.topologies.split(",") if k.strip())
    known = ("generated", "mesh", "torus", "crossbar")
    unknown = [k for k in kinds if k not in known]
    if unknown:
        raise ReproError(f"unknown topology kinds {unknown}; choose from {known}")
    report = run_profile(
        args.benchmark,
        args.nodes,
        seed=args.seed,
        restarts=args.restarts,
        kinds=kinds,
        cache=cache,
        sample_every=args.sample_every,
    )
    print(report.render())
    _write_obs(args, report.obs)
    return 0


def _cmd_figure7(args) -> int:
    from repro.eval import figure7_rows, figure7_table

    kwargs = _runner_kwargs(args)
    kwargs.pop("progress")  # figure 7 has no simulation cells
    label = "7(a)" if args.size == "small" else "7(b)"
    print(
        figure7_table(
            figure7_rows(args.size, seed=args.seed, **kwargs),
            f"Figure {label}: resources normalized to the mesh",
        )
    )
    return 0


def _cmd_figure8(args) -> int:
    from repro.eval import figure8_rows, figure8_table

    label = "8(a)" if args.size == "small" else "8(b)"
    print(
        figure8_table(
            figure8_rows(args.size, seed=args.seed, **_runner_kwargs(args)),
            f"Figure {label}: time normalized to the crossbar",
        )
    )
    return 0


def _cmd_cross_workload(args) -> int:
    from repro.eval import cross_workload_rows, cross_workload_table

    print(
        cross_workload_table(
            cross_workload_rows(seed=args.seed, **_runner_kwargs(args)),
            "Section 4.2: foreign traces on the CG-16 network",
        )
    )
    return 0


def _cmd_resilience(args) -> int:
    from repro.errors import FaultError
    from repro.eval import prepare, resilience_table, run_resilience
    from repro.faults import CampaignSpec, build_campaign

    kinds = ("link", "switch") if args.faults == "both" else (args.faults,)
    topologies = tuple(k.strip() for k in args.topologies.split(",") if k.strip())
    known = ("generated", "mesh", "torus", "crossbar")
    unknown = [k for k in topologies if k not in known]
    if unknown:
        raise FaultError(f"unknown topology kinds {unknown}; choose from {known}")
    setup = prepare(args.benchmark, args.nodes, seed=args.seed)
    for i, kind in enumerate(topologies):
        topology = setup.topology(kind)
        campaign = build_campaign(
            topology.network,
            CampaignSpec(
                kinds=kinds,
                double=args.double,
                max_scenarios=args.max_scenarios,
                seed=args.seed,
                start=args.fault_start,
                end=(
                    args.fault_start + args.transient
                    if args.transient is not None
                    else None
                ),
            ),
        )
        report = run_resilience(
            setup.benchmark.program,
            topology,
            campaign,
            link_delays=setup.link_delays(kind),
            **_runner_kwargs(args),
        )
        if i:
            print()
        fault_label = "+".join(kinds) + (
            f" transient({args.transient})" if args.transient else ""
        )
        print(
            resilience_table(
                report,
                f"Resilience of {topology.name} under single"
                f"{'/double' if args.double else ''} {fault_label} faults",
            )
        )
    return 0


def _cmd_verify(args) -> int:
    from repro.eval import prepare
    from repro.synthesis import DesignConstraints
    from repro.verify import certify, cross_validate

    setup = prepare(args.benchmark, args.nodes, seed=args.seed)
    topology = setup.topology(args.topology)
    pattern = setup.benchmark.pattern
    max_degree = args.max_degree
    if max_degree is None and args.topology == "generated":
        max_degree = DesignConstraints().max_degree
    certificate = certify(topology, pattern, max_degree=max_degree)
    print(certificate.render())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(certificate.to_json())
        print(f"certificate written to {args.json_out}", file=sys.stderr)
    require_cf = args.require_cf
    if require_cf is None:
        require_cf = args.topology == "generated"
    status = 0 if certificate.ok(require_contention_free=require_cf) else 1
    if args.dynamic:
        report, mismatches = cross_validate(
            certificate,
            topology,
            pattern,
            link_delays=setup.link_delays(args.topology),
        )
        print(report.summary())
        for mismatch in mismatches:
            print(f"cross-validation mismatch: {mismatch}", file=sys.stderr)
            status = 1
    return status


def _cmd_sweep(args) -> int:
    from repro.sweeps import (
        SweepConfig,
        curve_csv,
        curve_plot,
        pattern_entries,
        run_sweep,
        study_topology,
    )

    if args.list_patterns:
        for entry in pattern_entries():
            marks = []
            if entry.requires:
                marks.append(f"requires {entry.requires}")
            if entry.needs_topology:
                marks.append("routing-aware")
            suffix = f" [{', '.join(marks)}]" if marks else ""
            print(f"{entry.name:<16} {entry.description}{suffix}")
        return 0
    obs = _obs_from(args)
    top_label, topology, link_delays = study_topology(
        args.topology,
        args.nodes,
        benchmark=args.benchmark,
        seed=args.seed,
        restarts=args.restarts,
    )
    curve = run_sweep(
        topology,
        args.pattern,
        sweep=SweepConfig(
            min_rate=args.min_rate,
            max_rate=args.max_rate,
            initial_points=args.points,
            refine_iters=args.refine,
            seed=args.seed,
            criterion=args.criterion,
        ),
        link_delays=link_delays,
        obs=obs,
        label=top_label,
        **_runner_kwargs(args),
    )
    print(curve.render())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(curve.to_json())
        print(f"curve written to {args.json_out}", file=sys.stderr)
    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(curve_csv(curve))
        print(f"points written to {args.csv_out}", file=sys.stderr)
    if args.plot_out:
        fmt = "svg" if args.plot_out.lower().endswith(".svg") else "ascii"
        with open(args.plot_out, "w") as fh:
            fh.write(curve_plot(curve, fmt=fmt))
        print(f"plot written to {args.plot_out}", file=sys.stderr)
    _write_obs(args, obs)
    return 0


def _cmd_cache(args) -> int:
    from repro.eval.parallel import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached entries from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache root: {stats['root']}")
    print(f"result payloads: {stats['results']}")
    print(
        f"  evaluation: {stats['eval_results']} ({stats['eval_bytes']} bytes)"
    )
    print(
        f"  synthesis: {stats['synthesis_results']} "
        f"({stats['synthesis_ok']} designs, "
        f"{stats['synthesis_infeasible']} infeasible seeds, "
        f"{stats['synthesis_bytes']} bytes)"
    )
    print(f"benchmark setups: {stats['setups']}")
    print(f"total size: {stats['bytes']} bytes")
    return 0


def _cmd_inspect(args) -> int:
    from repro.model import CliqueAnalysis
    from repro.viz import render_comm_matrix, render_pattern_timeline
    from repro.workloads import benchmark

    bench = benchmark(args.benchmark, args.nodes)
    analysis = CliqueAnalysis.of(bench.pattern)
    print(render_pattern_timeline(bench.pattern))
    print()
    print("traffic matrix (message counts):")
    print(render_comm_matrix(bench.pattern))
    print()
    print(
        f"distinct contention periods: {len(analysis.max_cliques)}, "
        f"widest permutation: {analysis.largest_clique_size}"
    )
    return 0


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "profile": _cmd_profile,
    "figure7": _cmd_figure7,
    "figure8": _cmd_figure8,
    "cross-workload": _cmd_cross_workload,
    "resilience": _cmd_resilience,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "cache": _cmd_cache,
    "inspect": _cmd_inspect,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
