"""Round-trip and stability tests for the result serialization layer."""

import copy
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.parallel import SetupTask
from repro.eval.runner import prepare
from repro.eval.serialize import (
    SerializationError,
    canonical_json,
    config_from_dict,
    config_to_dict,
    decode_link_utilization,
    decode_resource,
    design_from_dict,
    design_to_dict,
    encode_link_utilization,
    encode_resource,
    floorplan_from_dict,
    floorplan_to_dict,
    loadpoint_from_dict,
    loadpoint_to_dict,
    result_from_dict,
    result_to_dict,
    setup_from_dict,
    setup_to_dict,
)
from repro.simulator import SimConfig, simulate
from repro.simulator.openloop import LoadPoint, run_open_loop
from repro.topology import mesh
from repro.topology import crossbar
from repro.workloads import PhaseProgramBuilder


# Payloads that are not JSON objects, as a corrupt cache entry or a
# hand-edited artifact might hold.
NON_OBJECTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
)


# Values that cannot stand in for a nested record (a list of fields or
# a map): a scalar, or a list too short to unpack.
NOT_RECORDS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.lists(st.integers(), max_size=1),
)


def _at(payload, path):
    for step in path:
        payload = payload[step]
    return payload


def _damaged_record(payload, path):
    """``payload`` with the record at ``path`` cut short (a list record)
    or replaced by a value that is not a record."""
    record = _at(payload, path)
    cut = (
        st.integers(0, len(record) - 1).map(lambda k: record[:k])
        if isinstance(record, list)
        else st.nothing()
    )

    def put(value):
        raw = copy.deepcopy(payload)
        _at(raw, path[:-1])[path[-1]] = value
        return raw

    return st.one_of(cut, NOT_RECORDS).map(put)


def _assert_fails_by_name(decode, payload, data, kind, records=()):
    """``decode`` raises an error naming the ``kind`` of payload when
    ``payload`` has one field removed, when a non-object stands in its
    place, or when one nested record (a path in ``records``) is cut
    short or replaced by a value that is not a record."""
    draws = [
        st.sampled_from(sorted(payload)).map(lambda field: ("drop", field)),
        NON_OBJECTS.map(lambda other: ("replace", other)),
    ]
    if records:
        draws.append(
            st.sampled_from(records)
            .flatmap(lambda path: _damaged_record(payload, path))
            .map(lambda raw: ("record", raw))
        )
    how, value = data.draw(st.one_of(draws))
    if how == "drop":
        raw = {k: v for k, v in payload.items() if k != value}
        with pytest.raises(
            SerializationError, match=re.escape(f"{kind} payload lacks field {value!r}")
        ):
            decode(raw)
    elif how == "replace":
        with pytest.raises(SerializationError, match=f"{kind} payload must be a JSON object"):
            decode(value)
    else:
        with pytest.raises(SerializationError, match=f"malformed {kind} payload"):
            decode(value)


def _small_result():
    program = (
        PhaseProgramBuilder(4, "tiny")
        .compute(10)
        .phase([(0, 1, 64), (2, 3, 128)])
        .phase([(1, 0, 32)])
        .build()
    )
    return simulate(program, crossbar(4), SimConfig())


class TestResourceEncoding:
    def test_known_encodings(self):
        assert encode_resource(("link", 3, 0)) == "link:3:0"
        assert encode_resource(("link", 12, 1)) == "link:12:1"
        assert encode_resource(("inj", 2)) == "inj:2"
        assert encode_resource(("ej", 15)) == "ej:15"

    def test_decode_inverts_encode(self):
        for res in (("link", 0, 0), ("link", 7, 1), ("inj", 0), ("ej", 9)):
            assert decode_resource(encode_resource(res)) == res

    @pytest.mark.parametrize(
        "bad",
        [
            ("queue", 1),  # unknown kind
            ("link", 3),  # missing direction
            ("link", 3, 0, 1),  # extra field
            ("inj", 1, 2),  # extra field
            ("link", "3", 0),  # non-integer field
            ("link", True, 0),  # bool is not an id
            (),
            "link:3:0",  # not a tuple
        ],
    )
    def test_encode_rejects_malformed(self, bad):
        with pytest.raises(SerializationError):
            encode_resource(bad)

    @pytest.mark.parametrize(
        "bad", ["queue:1", "link:3", "link:3:0:1", "link:x:0", "", "inj"]
    )
    def test_decode_rejects_malformed(self, bad):
        with pytest.raises(SerializationError):
            decode_resource(bad)

    def test_utilization_round_trip_and_key_order(self):
        util = {("link", 10, 1): 0.5, ("inj", 2): 0.25, ("link", 2, 0): 0.75}
        encoded = encode_link_utilization(util)
        assert list(encoded) == sorted(encoded)
        assert decode_link_utilization(encoded) == util


@pytest.fixture(scope="module")
def result_payload():
    return result_to_dict(_small_result())


class TestResultRoundTrip:
    def test_result_survives_json(self):
        result = _small_result()
        raw = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(raw)
        assert restored == result

    def test_round_trip_is_canonically_stable(self):
        """to_dict → JSON → from_dict → to_dict is a fixed point: the
        determinism harness's byte-identity notion is well defined."""
        result = _small_result()
        once = result_to_dict(result)
        twice = result_to_dict(result_from_dict(json.loads(json.dumps(once))))
        assert canonical_json(once) == canonical_json(twice)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_payload_fails_by_name(self, result_payload, data):
        _assert_fails_by_name(
            result_from_dict,
            result_payload,
            data,
            "simulation result",
            records=[("link_utilization",)],
        )

    def test_config_round_trip(self):
        config = SimConfig(num_vcs=2, deadlock_threshold=123)
        assert config_from_dict(config_to_dict(config)) == config

    def test_canonical_json_sorts_and_strips(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestDesignRoundTrip:
    """Lossless GeneratedDesign serialization (the synthesis-cell payload)."""

    @pytest.fixture(scope="class")
    def design(self):
        from repro.synthesis import generate_network
        from repro.workloads import benchmark

        pattern = benchmark("cg", 8).pattern
        return pattern, generate_network(pattern, seed=0)

    def test_round_trip_is_canonically_stable(self, design):
        pattern, generated = design
        raw = json.loads(json.dumps(design_to_dict(generated)))
        restored = design_from_dict(raw, pattern)
        assert canonical_json(design_to_dict(restored)) == canonical_json(
            design_to_dict(generated)
        )

    def test_round_trip_preserves_structure(self, design):
        pattern, generated = design
        restored = design_from_dict(design_to_dict(generated), pattern)
        assert restored.num_switches == generated.num_switches
        assert restored.num_links == generated.num_links
        assert restored.switch_map == generated.switch_map
        assert restored.pipe_links == generated.pipe_links
        assert restored.stats == generated.stats
        assert restored.seed == generated.seed
        assert (
            restored.certificate.contention_free
            == generated.certificate.contention_free
        )
        # Every route resolves to the same switch path.
        for comm in pattern.communications:
            assert (
                restored.topology.routing.route(comm).hops
                == generated.topology.routing.route(comm).hops
            )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_payload_fails_by_name(self, design, data):
        pattern, generated = design
        payload = design_to_dict(generated)
        _assert_fails_by_name(
            lambda raw: design_from_dict(raw, pattern),
            payload,
            data,
            "design",
            records=[("routes", 0), ("switch_map", 0), ("pipe_links", 0)],
        )

    def test_pattern_name_mismatch_rejected(self, design):
        from repro.workloads import benchmark

        pattern, generated = design
        with pytest.raises(SerializationError, match="pattern"):
            design_from_dict(design_to_dict(generated), benchmark("mg", 8).pattern)


@pytest.fixture(scope="module")
def cg8_setup():
    return prepare("cg", 8, seed=0)


class TestFloorplanRoundTrip:
    def test_floorplan_survives_json(self, cg8_setup):
        plan = cg8_setup.floorplan
        restored = floorplan_from_dict(json.loads(json.dumps(floorplan_to_dict(plan))))
        assert restored == plan
        # Insertion order survives too, so the maps iterate alike.
        for name in ("switch_corner", "processor_cell", "link_costs"):
            assert list(getattr(restored, name)) == list(getattr(plan, name))
        assert restored.render() == plan.render()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_payload_fails_by_name(self, cg8_setup, data):
        _assert_fails_by_name(
            floorplan_from_dict,
            floorplan_to_dict(cg8_setup.floorplan),
            data,
            "floorplan",
            records=[("switch_corner", 0), ("processor_cell", 0), ("link_costs", 0)],
        )


class TestSetupRoundTrip:
    """The setup-cache entry: a design and a floorplan, the rest rebuilt."""

    def test_round_trip_is_canonically_stable(self, cg8_setup):
        raw = json.loads(json.dumps(setup_to_dict(cg8_setup)))
        restored = setup_from_dict(SetupTask("cg", 8), raw)
        assert canonical_json(setup_to_dict(restored)) == canonical_json(raw)
        assert restored.floorplan == cg8_setup.floorplan
        assert restored.benchmark.pattern == cg8_setup.benchmark.pattern
        for kind in ("crossbar", "mesh", "torus", "generated"):
            assert (
                restored.topology(kind).network.describe()
                == cg8_setup.topology(kind).network.describe()
            )
            assert restored.link_delays(kind) == cg8_setup.link_delays(kind)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_malformed_payload_fails_by_name(self, cg8_setup, data):
        _assert_fails_by_name(
            lambda raw: setup_from_dict(SetupTask("cg", 8), raw),
            setup_to_dict(cg8_setup),
            data,
            "setup",
        )


class TestLoadPointRoundTrip:
    def test_synthetic_point_survives_json(self):
        point = LoadPoint(
            offered_flits_per_node_cycle=0.3,
            accepted_flits_per_node_cycle=0.28,
            avg_latency=21.5,
            delivered=144,
            saturated=False,
            p50_latency=19,
            p95_latency=44,
            p99_latency=61,
        )
        raw = json.loads(json.dumps(loadpoint_to_dict(point)))
        assert loadpoint_from_dict(raw) == point

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_malformed_payload_fails_by_name(self, data):
        payload = loadpoint_to_dict(LoadPoint(0.1, 0.09, 10.0, 5, False, 9, 12, 14))
        _assert_fails_by_name(loadpoint_from_dict, payload, data, "load point")

    def test_percentile_fields_serialized(self):
        raw = loadpoint_to_dict(LoadPoint(0.1, 0.09, 10.0, 5, False, 9, 12, 14))
        assert raw["p50_latency"] == 9
        assert raw["p95_latency"] == 12
        assert raw["p99_latency"] == 14

    def test_measured_point_round_trips(self):
        point = run_open_loop(
            mesh(2, 2), 0.2,
            warmup_cycles=100, measure_cycles=300, drain_cycles=300,
        )
        assert point.delivered > 0
        assert 0 < point.p50_latency <= point.p95_latency <= point.p99_latency
        raw = json.loads(json.dumps(loadpoint_to_dict(point)))
        restored = loadpoint_from_dict(raw)
        assert restored == point
        assert canonical_json(loadpoint_to_dict(restored)) == canonical_json(
            loadpoint_to_dict(point)
        )
