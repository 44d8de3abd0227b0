"""Tests for the automated saturation-sweep driver."""

import pytest

from repro.errors import SimulationError
from repro.simulator.openloop import LoadPoint
from repro.sweeps.driver import (
    CRITERIA,
    STUDY_TOPOLOGIES,
    SweepConfig,
    _initial_rates,
    criterion_latency,
    detect_saturation,
    latency_reference,
    point_is_saturated,
    run_sweep,
    run_sweep_suite,
    spare_link_variant,
    study_topology,
)
from repro.topology import crossbar, mesh

FAST = SweepConfig(
    initial_points=3,
    refine_iters=2,
    warmup_cycles=100,
    measure_cycles=400,
    drain_cycles=600,
)


def _pt(offered, accepted, latency, delivered=100, saturated=False, p99=0):
    return LoadPoint(offered, accepted, latency, delivered, saturated, 0, 0, p99)


class TestSweepConfig:
    def test_defaults_valid(self):
        assert SweepConfig().max_rate == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_rate": 0.0},
            {"min_rate": 0.9, "max_rate": 0.5},
            {"initial_points": 0},
            {"refine_iters": -1},
            {"latency_factor": 1.0},
            {"plateau_fraction": 0.0},
            {"plateau_fraction": 1.5},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(SimulationError):
            SweepConfig(**kwargs)

    def test_params_dict_has_no_seed(self):
        # The seed lives on the curve itself, not in params.
        assert "seed" not in SweepConfig().params_dict()

    def test_initial_rates_are_deduped_and_sorted(self):
        rates = _initial_rates(SweepConfig(min_rate=0.1, max_rate=0.5, initial_points=5))
        assert rates == sorted(set(rates))
        assert rates[0] == 0.1 and rates[-1] == 0.5

    def test_single_initial_point_uses_max_rate(self):
        assert _initial_rates(SweepConfig(initial_points=1)) == [1.0]


class TestDetectSaturation:
    def test_empty_curve(self):
        assert detect_saturation([]) is None

    def test_monotone_curve_never_saturates(self):
        """A healthy crossbar-like curve: accepted tracks offered and
        latency stays flat — no index must be flagged."""
        points = [
            _pt(0.1, 0.1, 10.0),
            _pt(0.4, 0.4, 11.0),
            _pt(0.8, 0.8, 12.5),
            _pt(1.0, 1.0, 13.0),
        ]
        assert detect_saturation(points) is None

    def test_single_point_unsaturated(self):
        assert detect_saturation([_pt(0.3, 0.3, 15.0)]) is None

    def test_single_point_backlog(self):
        assert detect_saturation([_pt(0.9, 0.4, 500.0, saturated=True)]) == 0

    def test_single_point_plateau(self):
        assert detect_saturation([_pt(0.9, 0.4, 50.0)]) == 0

    def test_latency_blowup_detected(self):
        points = [_pt(0.1, 0.1, 10.0), _pt(0.6, 0.58, 45.0)]
        assert detect_saturation(points) == 1

    def test_latency_criterion_skipped_without_deliveries(self):
        points = [_pt(0.1, 0.09, 0.0, delivered=0), _pt(0.6, 0.55, 900.0)]
        assert detect_saturation(points) is None

    def test_non_monotone_noise_below_knee_does_not_flag_early(self):
        """A noisy dip in accepted throughput that stays above the
        plateau threshold must not mark the curve saturated."""
        points = [
            _pt(0.1, 0.1, 10.0),
            _pt(0.3, 0.27, 12.0),   # 0.9 of offered: noisy but fine
            _pt(0.5, 0.5, 14.0),    # recovers
            _pt(0.9, 0.5, 200.0),   # the real knee
        ]
        assert detect_saturation(points) == 3

    def test_payload_fraction_excuses_header_overhead(self):
        """With 16-flit packets the best possible accepted/offered is
        15/16 ~ 0.94; the plateau criterion must not read that as
        saturation once told the payload fraction."""
        # Threshold is 0.85 x 0.8 = 0.68 flits/node/cycle when the
        # payload fraction is unknown, 0.85 x 15/16 x 0.8 ~ 0.6375 when
        # it is known; 0.66 sits between the two.
        points = [_pt(0.8, 0.66, 20.0)]
        assert detect_saturation(points) == 0  # fraction unknown: flagged
        assert detect_saturation(points, payload_fraction=15 / 16) is None

    def test_first_index_returned_not_last(self):
        points = [_pt(0.1, 0.1, 10.0), _pt(0.5, 0.2, 80.0), _pt(0.9, 0.2, 300.0)]
        assert detect_saturation(points) == 1


class TestLatencyReference:
    def test_lowest_unsaturated_point_wins(self):
        points = [_pt(0.1, 0.1, 10.0), _pt(0.5, 0.5, 30.0)]
        assert latency_reference(points) == 10.0

    def test_saturated_lowest_point_is_skipped(self):
        """The satellite bugfix: a backlogged or plateaued lowest grid
        point must not serve as the latency baseline."""
        points = [
            _pt(0.6, 0.2, 400.0, saturated=True),  # backlogged
            _pt(0.15, 0.05, 350.0),  # plateaued (0.05 < 0.85 x 0.15)
            _pt(0.1, 0.1, 12.0),  # the true baseline
        ]
        assert latency_reference(sorted(
            points, key=lambda p: p.offered_flits_per_node_cycle
        )) == 12.0

    def test_zero_delivery_points_are_skipped(self):
        points = [_pt(0.1, 0.1, 0.0, delivered=0), _pt(0.5, 0.5, 25.0)]
        assert latency_reference(points) == 25.0

    def test_no_candidate_gives_none(self):
        assert latency_reference([]) is None
        assert latency_reference([_pt(0.9, 0.1, 500.0, saturated=True)]) is None


class TestPointIsSaturated:
    def test_backlog_flag_wins(self):
        assert point_is_saturated(_pt(0.1, 0.1, 10.0, saturated=True), None)

    def test_plateau(self):
        assert point_is_saturated(_pt(1.0, 0.5, 10.0), None)
        assert not point_is_saturated(_pt(1.0, 0.9, 10.0), None)

    def test_latency_reference(self):
        assert point_is_saturated(_pt(0.5, 0.5, 100.0), base_latency=20.0)
        assert not point_is_saturated(_pt(0.5, 0.5, 60.0), base_latency=20.0)

    def test_zero_base_latency_ignored(self):
        assert not point_is_saturated(_pt(0.5, 0.5, 60.0), base_latency=0.0)


class TestCriterion:
    """The p99-knee saturation criterion (satellite: tail-latency knee)."""

    def test_criterion_latency_selects_series(self):
        point = _pt(0.5, 0.5, 30.0, p99=240)
        assert criterion_latency(point, "mean-knee") == 30.0
        assert criterion_latency(point, "p99-knee") == 240.0

    def test_criteria_names_are_valid_configs(self):
        for criterion in CRITERIA:
            assert SweepConfig(criterion=criterion).criterion == criterion

    def test_config_rejects_unknown_criterion(self):
        with pytest.raises(SimulationError, match="criterion"):
            SweepConfig(criterion="p42-knee")

    def test_params_dict_records_criterion(self):
        assert SweepConfig().params_dict()["criterion"] == "mean-knee"
        assert (
            SweepConfig(criterion="p99-knee").params_dict()["criterion"]
            == "p99-knee"
        )

    def test_p99_knee_flags_tail_blowup_the_mean_hides(self):
        """A curve whose mean stays flat while the tail explodes: the
        default criterion sees nothing, the p99 knee fires."""
        points = [
            _pt(0.1, 0.1, 10.0, p99=14),
            _pt(0.6, 0.58, 18.0, p99=320),  # mean < 4x base, p99 >> 4x
        ]
        assert detect_saturation(points) is None
        assert detect_saturation(points, criterion="p99-knee") == 1

    def test_latency_reference_uses_criterion(self):
        points = [_pt(0.1, 0.1, 10.0, p99=22), _pt(0.5, 0.5, 30.0, p99=90)]
        assert latency_reference(points) == 10.0
        assert latency_reference(points, criterion="p99-knee") == 22.0

    def test_point_is_saturated_uses_criterion(self):
        point = _pt(0.5, 0.5, 60.0, p99=300)
        assert not point_is_saturated(point, base_latency=20.0)
        assert point_is_saturated(point, base_latency=20.0, criterion="p99-knee")

    def test_sweep_records_criterion_in_artifact(self):
        fast_p99 = SweepConfig(
            criterion="p99-knee",
            initial_points=3,
            refine_iters=1,
            warmup_cycles=100,
            measure_cycles=400,
            drain_cycles=600,
        )
        curve = run_sweep(mesh(2, 2), "uniform", sweep=fast_p99)
        assert curve.params["criterion"] == "p99-knee"


class TestRunSweep:
    def test_mesh_tornado_saturates(self):
        curve = run_sweep(mesh(4, 4), "tornado", sweep=FAST)
        offered = [p.offered_flits_per_node_cycle for p in curve.points]
        assert offered == sorted(offered)
        assert len(offered) == len(set(offered))
        assert curve.saturated
        assert 0 < curve.saturation_rate < 1.0
        assert curve.saturation_throughput > 0
        assert curve.pattern == "tornado"
        assert curve.params["initial_points"] == 3

    def test_refinement_adds_points_inside_bracket(self):
        coarse = run_sweep(
            mesh(4, 4), "tornado",
            sweep=SweepConfig(
                initial_points=3, refine_iters=0,
                warmup_cycles=100, measure_cycles=400, drain_cycles=600,
            ),
        )
        fine = run_sweep(mesh(4, 4), "tornado", sweep=FAST)
        assert len(fine.points) > len(coarse.points)

    def test_crossbar_low_load_never_saturates(self):
        curve = run_sweep(
            crossbar(8), "uniform",
            sweep=SweepConfig(
                min_rate=0.05, max_rate=0.3, initial_points=3, refine_iters=2,
                warmup_cycles=100, measure_cycles=400, drain_cycles=600,
            ),
        )
        assert not curve.saturated
        assert curve.saturation_rate is None
        assert curve.saturation_throughput == max(
            p.accepted_flits_per_node_cycle for p in curve.points
        )

    def test_hotspot_spec_is_canonicalized_in_artifact(self):
        curve = run_sweep(mesh(2, 2), "hotspot:01:0.50", sweep=FAST)
        assert curve.pattern == "hotspot:1:0.5"

    def test_strict_pattern_violation_fails_before_any_cell(self):
        with pytest.raises(SimulationError, match="requires"):
            run_sweep(mesh(4, 2), "transpose", sweep=FAST, strict_patterns=True)

    def test_unknown_pattern_fails_fast(self):
        with pytest.raises(SimulationError, match="unknown pattern"):
            run_sweep(mesh(2, 2), "nope", sweep=FAST)

    def test_saturation_at_lowest_initial_rate_keeps_bracket_consistent(self):
        """Regression for the stale latency baseline: when the lowest
        grid point itself saturates (``first == 0``), down-bisection
        probes below it, and the refinement loop used to classify those
        probes against the saturated point's inflated latency — landing
        the final bracket on rates the final ``detect_saturation`` pass
        (whose baseline is the new lowest point) contradicts.  On
        mesh-4x4 adversarial traffic with the grid starting at 0.7
        (above the ~0.62 knee) the old code reported a saturation rate
        *above* a point it simultaneously classified as saturated."""
        sweep = SweepConfig(
            min_rate=0.7, max_rate=1.0, initial_points=3, refine_iters=4,
            warmup_cycles=200, measure_cycles=600, drain_cycles=800,
        )
        curve = run_sweep(mesh(4, 4), "adversarial", sweep=sweep)
        assert curve.saturated
        # Refinement probed below the saturated lowest grid point.
        assert curve.saturation_rate < sweep.min_rate
        flits = 32 // 8 + 1  # SimConfig default: 8-byte flits + header
        payload_fraction = (flits - 1) / flits
        first = detect_saturation(
            curve.points, sweep.latency_factor, sweep.plateau_fraction,
            payload_fraction,
        )
        assert first is not None
        # The final pass and the bisection bracket must agree: the
        # saturation estimate sits between the last unsaturated and the
        # first saturated measured rate.
        assert curve.points[first].offered_flits_per_node_cycle >= curve.saturation_rate
        assert (
            first == 0
            or curve.points[first - 1].offered_flits_per_node_cycle
            <= curve.saturation_rate
        )

    @pytest.mark.parametrize(
        "pattern, expected",
        [
            ("tornado", (7, True, 0.544792, 0.47, 5184, 1118, 1705, 902)),
            ("uniform", (7, True, 0.623959, 0.54, 5457, 789, 1500, 859)),
        ],
        ids=["mesh4x4-tornado", "mesh4x4-uniform"],
    )
    def test_mesh4x4_knee_search_is_pinned(self, pattern, expected):
        """Pins the retired benchmark gate's mesh4x4-tornado and
        mesh4x4-uniform cases."""
        sweep = SweepConfig(
            initial_points=4, refine_iters=3,
            warmup_cycles=200, measure_cycles=800, drain_cycles=800,
        )
        curve = run_sweep(mesh(4, 4), pattern, sweep=sweep)
        points = curve.points
        assert (
            len(points),
            curve.saturated,
            curve.saturation_rate,
            curve.saturation_throughput,
            sum(p.delivered for p in points),
            sum(p.p50_latency for p in points),
            sum(p.p95_latency for p in points),
            max(p.p99_latency for p in points),
        ) == expected

    def test_suite_grid_and_lookup(self):
        tops = [("mesh", mesh(2, 2), None), ("xbar", crossbar(4), None)]
        result = run_sweep_suite(tops, ["uniform", "neighbor"], sweep=FAST)
        assert result.topology_labels == ("mesh", "xbar")
        assert result.patterns == ("uniform", "neighbor")
        assert len(result.curves) == 4
        assert result.curve("xbar", "neighbor").topology_name == "xbar"

    def test_batched_suite_matches_per_pair_sweeps_byte_identically(self):
        """The suite fans the whole grid's initial rates through one
        run_cells call; the curves must still be byte-identical to
        sweeping each (topology, pattern) pair on its own."""
        tops = [("mesh", mesh(2, 2), None), ("xbar", crossbar(4), None)]
        patterns = ["uniform", "tornado"]
        suite = run_sweep_suite(tops, patterns, sweep=FAST)
        for top_label, topology, link_delays in tops:
            for pattern in patterns:
                solo = run_sweep(
                    topology, pattern, sweep=FAST,
                    link_delays=link_delays, label=top_label,
                )
                batched = suite.curve(top_label, pattern)
                assert batched.to_json() == solo.to_json()

    def test_suite_validates_every_pair_before_any_cell(self):
        tops = [("mesh", mesh(2, 2), None)]
        with pytest.raises(SimulationError, match="unknown pattern"):
            run_sweep_suite(tops, ["uniform", "nope"], sweep=FAST)

    def test_premeasured_initial_grid_reproduces_the_solo_sweep(self):
        """A sweep seeded with the initial grid's points skips their
        cells and still refines to a byte-identical curve."""
        solo = run_sweep(mesh(2, 2), "uniform", sweep=FAST)
        initial = set(_initial_rates(FAST))
        premeasured = {
            p.offered_flits_per_node_cycle: p
            for p in solo.points
            if p.offered_flits_per_node_cycle in initial
        }
        assert len(premeasured) == len(initial)
        seeded = run_sweep(
            mesh(2, 2), "uniform", sweep=FAST, premeasured=premeasured
        )
        assert seeded.to_json() == solo.to_json()


class TestSpareLinkVariant:
    def test_adds_links_and_renames(self):
        base = mesh(4, 4)
        spare = spare_link_variant(base)
        assert spare.name == f"{base.name}+spare"
        assert spare.kind == "mesh-spare"
        assert len(spare.network.links) > len(base.network.links)
        # Base topology is untouched.
        assert base.kind == "mesh"

    def test_each_switch_gains_at_most_one_spare(self):
        base = mesh(4, 4)
        spare = spare_link_variant(base)
        extra = len(spare.network.links) - len(base.network.links)
        assert 0 < extra <= len(base.network.switches)

    def test_spare_routes_every_pair(self):
        from repro.model.message import Communication

        spare = spare_link_variant(mesh(3, 3))
        n = spare.network.num_processors
        for src in range(n):
            for dest in range(n):
                if src != dest:
                    assert spare.routing.route(Communication(src, dest)).hops

    def test_fully_connected_network_is_unchanged(self):
        base = crossbar(4)
        spare = spare_link_variant(base)
        assert len(spare.network.links) == len(base.network.links)


class TestStudyTopology:
    def test_baselines(self):
        label, top, delays = study_topology("mesh", 8)
        assert label == "mesh" and delays is None
        assert top.network.num_processors == 8

    def test_torus_wrap_delays(self):
        _, top, delays = study_topology("torus", 16)
        assert set(delays.values()) == {1, 2}

    def test_unknown_kind(self):
        with pytest.raises(SimulationError, match="unknown study topology"):
            study_topology("hypercube", 8)

    def test_names_cover_study(self):
        assert set(STUDY_TOPOLOGIES) >= {"generated", "generated-spare", "mesh", "torus"}
