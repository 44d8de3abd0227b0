"""The paper's evaluation claims, checked against the code as it is.

Each test states one claim once: a shape from EXPERIMENTS.md, checked on
the rows ``repro figure7``, ``repro figure8`` and ``repro
cross-workload`` print, or a result of an extension study (energy,
multi-application design, ablations, open-loop load, link faults),
checked on the library calls behind it.  A change that breaks a paper
shape therefore fails the suite, not only a rerun of the figures.
Timing is not checked here: ``bench/`` measures it, and CI compares
its timings against each pull request's base commit.

One module-scoped :class:`ResultCache` serves every row producer, so
the cross-workload study and the energy comparison reuse Figure 8's
simulated cells instead of replaying them.
"""

import pytest

from repro.errors import SynthesisError
from repro.eval import (
    PerformanceCell,
    ResultCache,
    cross_workload_rows,
    figure7_rows,
    figure8_rows,
    paper_sizes,
    prepare,
    result_from_dict,
    run_cells,
    run_resilience,
)
from repro.eval.power import estimate_energy
from repro.faults import repair_routes, single_link_scenarios
from repro.model import CliqueAnalysis
from repro.simulator import SimConfig
from repro.simulator.openloop import run_open_loop
from repro.sweeps.patterns import transpose_pattern, uniform_random
from repro.synthesis import (
    AnnealSchedule,
    Partitioner,
    build_conflict_graph,
    exact_coloring,
    fast_color_directional,
    generate_network,
    generate_network_for_set,
)
from repro.topology import crossbar, mesh, mesh_for
from repro.workloads import cg, fft

pytestmark = pytest.mark.slow

SEED = 0
SIZES = ("small", "large")
# The paper reports generated networks within 4% of the crossbar; the
# reimplemented substrate gets a little slack.
CROSSBAR_TRACKING = 1.06
MESH_TRACKING = 1.02


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    # Build the ten paper designs in this process first: pool workers
    # fork with them already built, and later tests reuse the same
    # memoized setups.
    for size in SIZES:
        for name, n in paper_sizes(size).items():
            prepare(name, n, seed=SEED)
    return ResultCache(tmp_path_factory.mktemp("paper-cache"))


@pytest.fixture(scope="module")
def fig7(cache):
    return {
        size: figure7_rows(size, seed=SEED, jobs=0, cache=cache) for size in SIZES
    }


@pytest.fixture(scope="module")
def fig8(cache):
    return {
        size: {
            (row.benchmark, row.topology): row
            for row in figure8_rows(size, seed=SEED, jobs=0, cache=cache)
        }
        for size in SIZES
    }


@pytest.fixture(scope="module")
def cross_workload(cache, fig8):
    # Figure 8(b) already simulated the guests' own and mesh cells, so
    # only the two replays on the CG-16 network run here.
    rows = cross_workload_rows(seed=SEED, jobs=0, cache=cache)
    return {(row.guest, row.network): row for row in rows}


class TestFigure7:
    @pytest.mark.parametrize("size", SIZES)
    def test_generated_networks_are_cheaper_than_the_mesh(self, fig7, size):
        for row in fig7[size]:
            assert row.generated_switch_ratio < 1.0, row.benchmark
            assert row.generated_link_ratio < 1.0, row.benchmark

    def test_torus_doubles_the_mesh_link_area(self, fig7):
        assert all(row.torus_link_ratio == 2.0 for row in fig7["small"])

    def test_cg_compresses_best_and_bt_sp_cost_most(self, fig7):
        switches = {row.benchmark: row.generated_switch_ratio for row in fig7["large"]}
        assert switches["cg-16"] == min(switches.values())
        assert switches["bt-16"] >= switches["cg-16"]
        assert switches["sp-16"] >= switches["cg-16"]


class TestFigure8:
    @pytest.mark.parametrize("size", SIZES)
    def test_no_run_deadlocks(self, fig8, size):
        assert len(fig8[size]) == 20
        for key, row in fig8[size].items():
            assert row.deadlocks == 0, key

    @pytest.mark.parametrize("size", SIZES)
    def test_generated_tracks_the_crossbar_and_never_loses_to_the_mesh(
        self, fig8, size
    ):
        table = fig8[size]
        for (name, topology), row in table.items():
            if topology != "generated":
                continue
            assert row.execution_ratio <= CROSSBAR_TRACKING, name
            mesh_ratio = table[(name, "mesh")].execution_ratio
            assert row.execution_ratio <= mesh_ratio * MESH_TRACKING, name

    def test_cg16_pays_the_largest_mesh_penalty(self, fig8):
        table = fig8["large"]
        cg_mesh = table[("cg-16", "mesh")]
        assert cg_mesh.execution_ratio == max(
            row.execution_ratio
            for (_, topology), row in table.items()
            if topology == "mesh"
        )
        assert cg_mesh.communication_ratio > 1.10


class TestCrossWorkload:
    def test_fft_tolerates_the_cg_network_and_bt_degrades_boundedly(
        self, cross_workload
    ):
        fft_on_cg = cross_workload[("fft-16", "host")].degradation_vs_own
        bt_on_cg = cross_workload[("bt-16", "host")].degradation_vs_own
        assert fft_on_cg < 0.10
        assert fft_on_cg < bt_on_cg
        assert bt_on_cg < 0.60


class TestFastColor:
    def test_bound_is_a_tight_lower_bound_on_real_pipes(self):
        """Section 3.3: the clique bound never exceeds a pipe's chromatic
        number and usually equals it.  Each design's pipes come from
        re-running its winning restart, which is seeded."""
        exact = total = 0
        for name, n in paper_sizes("small").items():
            design = prepare(name, n, seed=SEED).design
            state = Partitioner(
                CliqueAnalysis.of(design.pattern), seed=design.seed
            ).run().state
            for pair in state.pipes():
                u, v = sorted(pair)
                for comms in (state.pipe_forward(u, v), state.pipe_forward(v, u)):
                    if not comms:
                        continue
                    bound = fast_color_directional(comms, state.max_cliques)
                    chromatic, _ = exact_coloring(
                        build_conflict_graph(comms, state.max_cliques)
                    )
                    assert bound <= chromatic
                    exact += bound == chromatic
                    total += 1
        assert total > 0
        assert exact / total >= 0.9


class TestPower:
    def test_generated_networks_use_less_energy(self, cache, fig8):
        setups = [prepare(name, n, seed=SEED) for name, n in paper_sizes("small").items()]
        runs = [
            (setup, kind) for setup in setups for kind in ("mesh", "torus", "generated")
        ]
        cells = [
            PerformanceCell(
                label=f"{setup.name}/{kind}",
                program=setup.benchmark.program,
                topology=setup.topology(kind),
                config=SimConfig(),
                link_delays=setup.link_delays(kind),
            )
            for setup, kind in runs
        ]
        outcomes = run_cells(cells, cache=cache)
        # The fig8 fixture already ran these cells for Figure 8(a), so
        # nothing simulates twice.
        assert sum(o.cache_hit for o in outcomes) == len(cells) == 15

        energy = {}
        for (setup, kind), outcome in zip(runs, outcomes):
            network = setup.topology(kind).network
            if kind == "generated":
                lengths = dict(setup.floorplan.link_costs)
            elif kind == "torus":
                lengths = setup.link_delays("torus")
            else:
                lengths = {link.link_id: 1 for link in network.links}
            energy[(setup.name, kind)] = estimate_energy(
                result_from_dict(outcome.payload),
                num_switches=network.num_switches,
                link_lengths=lengths,
            ).total_pj
        for setup in setups:
            generated = energy[(setup.name, "generated")]
            assert generated < energy[(setup.name, "mesh")], setup.name
            assert generated < energy[(setup.name, "torus")], setup.name


class TestMultiApplication:
    def test_shared_network_undercuts_the_mesh(self):
        patterns = [cg(8, iterations=2).pattern, fft(8, iterations=2).pattern]
        shared = generate_network_for_set(patterns, seed=SEED, restarts=8)
        baseline = mesh_for(8).network
        assert shared.num_switches < baseline.num_switches
        assert shared.num_links < baseline.num_links


class TestSynthesisAblations:
    """Each optimization pass of the methodology earns its place on CG-16,
    the paper's running example."""

    RESTARTS = 6

    @pytest.fixture(scope="class")
    def pattern(self):
        return cg(16).pattern

    @pytest.fixture(scope="class")
    def full_design(self, pattern):
        return generate_network(pattern, seed=SEED, restarts=self.RESTARTS)

    def _ablated_links(self, pattern, **ablation):
        """Links of the ablated design, or ``None`` when infeasible."""
        try:
            design = generate_network(
                pattern, seed=SEED, restarts=self.RESTARTS, **ablation
            )
        except SynthesisError:
            return None
        return design.num_links

    def test_full_methodology_is_contention_free(self, full_design):
        assert full_design.certificate.contention_free

    def test_processor_moves(self, pattern, full_design):
        links = self._ablated_links(pattern, moves=False)
        assert links is None or links >= full_design.num_links

    def test_reroute(self, pattern, full_design):
        links = self._ablated_links(pattern, reroute=False)
        assert links is None or links >= full_design.num_links * 0.9

    def test_restarts(self, pattern, full_design):
        single = generate_network(pattern, seed=SEED, restarts=1)
        assert single.num_links >= full_design.num_links

    def test_annealing_is_at_least_as_robust_as_greedy(self, pattern):
        analysis = CliqueAnalysis.of(pattern)

        def sweep(schedule):
            links, fails = [], 0
            for seed in range(8):
                try:
                    result = Partitioner(
                        analysis, seed=seed, anneal_schedule=schedule
                    ).run()
                except SynthesisError:
                    fails += 1
                    continue
                links.append(result.total_links())
            return min(links), fails

        greedy_best, greedy_fails = sweep(None)
        annealed_best, annealed_fails = sweep(
            AnnealSchedule(
                initial_temperature=3.0, cooling=0.94, steps=80, moves_per_temperature=1
            )
        )
        assert annealed_fails <= greedy_fails
        assert annealed_best <= greedy_best * 1.25


class TestOpenLoop:
    """The cost of specialization under open-loop load: the CG-16 network
    holds up on transpose traffic and runs hotter on uniform traffic."""

    RATES = (0.05, 0.2, 0.4, 0.6)

    @pytest.fixture(scope="class")
    def latency(self):
        setup = prepare("cg", 16, seed=SEED)
        topologies = {
            "crossbar": (crossbar(16), None),
            "mesh": (mesh(4, 4), None),
            "generated": (setup.design.topology, setup.floorplan.link_delays()),
        }
        patterns = {"uniform": uniform_random, "transpose": transpose_pattern}
        return {
            (name, pattern_name): [
                run_open_loop(
                    topology,
                    rate,
                    pattern=pattern,
                    link_delays=delays,
                    measure_cycles=1200,
                    warmup_cycles=300,
                ).avg_latency
                for rate in self.RATES
            ]
            for name, (topology, delays) in topologies.items()
            for pattern_name, pattern in patterns.items()
        }

    @pytest.mark.parametrize("pattern", ("uniform", "transpose"))
    def test_crossbar_bounds_latency_below_saturation(self, latency, pattern):
        crossbar_latency = latency[("crossbar", pattern)][-2]
        assert crossbar_latency <= latency[("mesh", pattern)][-2]
        assert crossbar_latency <= latency[("generated", pattern)][-2]

    def test_generated_wins_on_transpose_and_pays_on_uniform(self, latency):
        assert latency[("generated", "transpose")][-1] <= latency[("mesh", "transpose")][-1]
        assert latency[("generated", "uniform")][-1] >= latency[("mesh", "uniform")][-1]


class TestResilience:
    """Single-link faults on cg-8: the mesh's spare paths survive every
    one, while the minimal generated network has none to spare."""

    @staticmethod
    def _repairs(kind):
        """(scenario, route repair) for every single-link fault."""
        setup = prepare("cg", 8, seed=SEED)
        topology = setup.topology(kind)
        pairs = setup.benchmark.program.communication_pairs()
        return [
            (scenario, repair_routes(topology, scenario, pairs=pairs))
            for scenario in single_link_scenarios(topology.network)
        ]

    def test_mesh_stays_connected(self):
        assert all(repair.connected for _, repair in self._repairs("mesh"))

    def test_every_fault_disconnects_the_generated_network(self):
        assert all(repair.disconnected for _, repair in self._repairs("generated"))

    def test_repaired_mesh_delivers_everything(self):
        # One replay, not the whole campaign: the first fault that
        # forces a detour stands for the rest.
        scenario = next(s for s, repair in self._repairs("mesh") if repair.rerouted)
        setup = prepare("cg", 8, seed=SEED)
        (outcome,) = run_resilience(
            setup.benchmark.program,
            setup.topology("mesh"),
            [scenario],
            link_delays=setup.link_delays("mesh"),
        ).outcomes
        assert outcome.status == "ok"
        assert outcome.delivered_fraction == 1.0
