"""The one RunResult document: round trips, projections, the named error.

``RunResult.to_doc()`` / ``RunResult.from_doc()`` are the only
serialization of a result; the disk cache entry, the cache-tier payload,
the service response, the cluster summary and ``export()`` are that
document or key projections of it. A decoded result must equal the
computed one field for field — including the *iteration order* of the
traffic meter, whose totals are float sums over it.
"""

import dataclasses
import json
import math

import pytest

from repro.api import PersistentScenarioCache, RunResult
from repro.core.lifecycle import ReleaseRecord
from repro.exceptions import ResultFormatError
from repro.net.cluster import _result_summary
from repro.obs import validate_export
from repro.service import RemoteScenarioCache
from repro.service.server import result_payload
from repro.simulation.netsim import TrafficMeter, project_wan_seconds
from tests.test_lifecycle import ALL_ENGINES, make_test, run_windowed
from tests.test_service_cachetier import TierHarness

MODES = ("one-shot", "windowed")


def _run(engine: str, mode: str) -> RunResult:
    if mode == "windowed":
        return run_windowed(engine, [1, 1], 2)
    return make_test().engine(engine).run(iterations=2)


@pytest.fixture(scope="module")
def results():
    return {(e, m): _run(e, m) for e in ALL_ENGINES for m in MODES}


def assert_same_result(decoded: RunResult, original: RunResult) -> None:
    """Field-for-field equality, order-sensitive where order carries
    meaning (TrafficMeter has identity equality, so it is unpacked)."""
    for spec in dataclasses.fields(RunResult):
        if spec.name == "traffic":
            continue
        got, want = getattr(decoded, spec.name), getattr(original, spec.name)
        assert got == want, spec.name
        assert type(got) is type(want), spec.name
    assert list(decoded.phases.seconds) == list(original.phases.seconds)
    if original.final_states is not None:
        assert list(decoded.final_states) == list(original.final_states)
        assert all(type(vertex) is int for vertex in decoded.final_states)
    got, want = decoded.traffic, original.traffic
    assert list(got.nodes().items()) == list(want.nodes().items())
    assert list(got.links().items()) == list(want.links().items())
    # the order-sensitive float sums: == on purpose, not approx
    assert got.total_bytes_sent == want.total_bytes_sent
    assert got.mean_node_bytes_sent() == want.mean_node_bytes_sent()
    assert project_wan_seconds(got, 0.05, 1e6) == project_wan_seconds(want, 0.05, 1e6)


# -------------------------------------------------------------- round trip --


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("engine", ALL_ENGINES)
class TestRoundTrip:
    def test_document_round_trips_through_json(self, results, engine, mode):
        original = results[engine, mode]
        decoded = RunResult.from_doc(json.loads(json.dumps(original.to_doc())))
        assert_same_result(decoded, original)
        if mode == "windowed":
            assert len(decoded.releases) == 2
            assert all(type(r) is ReleaseRecord for r in decoded.releases)

    def test_disk_store_then_fresh_instance_lookup(
        self, results, engine, mode, tmp_path
    ):
        original = results[engine, mode]
        PersistentScenarioCache(tmp_path).store("fp", original)
        replayed = PersistentScenarioCache(tmp_path).lookup("fp")
        assert_same_result(replayed, original)

    def test_export_is_the_document_plus_trace(self, results, engine, mode):
        original = results[engine, mode]
        exported = original.export()
        assert exported.pop("trace") is None
        assert exported == original.to_doc()
        assert validate_export(original.export()) == []


def test_cache_tier_store_then_lookup_round_trips(results):
    with TierHarness() as tier:
        remote = RemoteScenarioCache("127.0.0.1", tier.port)
        for (engine, mode), original in results.items():
            remote.store(f"{engine}/{mode}", original)
        for (engine, mode), original in results.items():
            assert_same_result(remote.lookup(f"{engine}/{mode}"), original)
        remote.close()


def test_meter_order_survives_where_sorting_would_lose_it():
    # a meter whose first-seen order is not sorted order: summing the same
    # floats in sorted order gives a different total, so the document must
    # carry — and the decoder restore — the meter's own order
    meter = TrafficMeter()
    meter.record_send(2, 0, 1e16)
    meter.record_send(1, 2, 1.0)
    meter.record_send(0, 1, -1e16)
    assert list(meter.nodes()) == [2, 0, 1]
    result = RunResult("e", "p", 0.0, [], 0, 0.0, traffic=meter)
    decoded = RunResult.from_doc(json.loads(json.dumps(result.to_doc())))
    assert list(decoded.traffic.nodes()) == [2, 0, 1]
    assert list(decoded.traffic.links()) == [(2, 0), (1, 2), (0, 1)]
    assert decoded.traffic.total_bytes_sent == meter.total_bytes_sent
    by_sorted_id = sum(meter.node(n).bytes_sent for n in sorted(meter.nodes()))
    assert by_sorted_id != meter.total_bytes_sent


# -------------------------------------------------------------- projections --

#: What a service ``submit`` response carries of a result. Pinned: the
#: response bytes are a wire contract (and the spine's ``traffic_mb``).
PAYLOAD_KEYS = [
    "engine",
    "program",
    "aggregate",
    "pre_noise_aggregate",
    "noise_raw",
    "trajectory",
    "iterations",
    "epsilon",
    "extras",
]


def _payload_before_the_codec(result) -> dict:
    """``result_payload`` as it was hand-written before it became a
    projection of the field table — the byte-for-byte reference."""
    payload = {
        "engine": result.engine,
        "program": result.program,
        "aggregate": result.aggregate,
        "pre_noise_aggregate": result.pre_noise_aggregate,
        "noise_raw": result.noise_raw,
        "trajectory": list(result.trajectory),
        "iterations": result.iterations,
        "epsilon": result.epsilon,
        "extras": {k: v for k, v in result.extras.items()},
    }
    if result.releases:
        payload["releases"] = [dataclasses.asdict(r) for r in result.releases]
    return payload


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_service_payload_bytes_are_unchanged(results, engine, mode):
    result = results[engine, mode]
    payload = result_payload(result)
    assert json.dumps(payload) == json.dumps(_payload_before_the_codec(result))
    expected = PAYLOAD_KEYS + (["releases"] if result.releases else [])
    assert list(payload) == expected


def test_cluster_summary_is_a_projection_of_the_document(results):
    result = results["secure", "one-shot"]
    summary = _result_summary(result)
    assert list(summary) == [
        "engine",
        "aggregate",
        "pre_noise_aggregate",
        "noise_raw",
        "trajectory",
        "extras",
    ]
    document = result.to_doc()
    assert all(summary[key] == document[key] for key in summary)


# ---------------------------------------------------------- the named error --


def _plain(**overrides) -> RunResult:
    fields = dict(
        engine="e", program="p", aggregate=1.0, trajectory=[1.0], iterations=1,
        wall_seconds=0.0,
    )
    fields.update(overrides)
    return RunResult(**fields)


@pytest.mark.parametrize(
    "overrides",
    [
        {"aggregate": math.inf},
        {"aggregate": math.nan},
        {"trajectory": [0.0, -math.inf]},
        {"extras": {"x": math.nan}},
        {"extras": {"x": "a string"}},
        {"extras": {1: 1.0}},
        {"aggregate": True},
        {"iterations": 1.5},
        {"noise_raw": 2.0},
        {"trajectory": (1.0, 2.0)},
        {"phases": {"setup": 1.0}},
        {"traffic": object()},
        {"final_states": {"0": {"x": 1.0}}},
        {"releases": [{"window": 0}]},
    ],
)
def test_encoding_a_result_outside_the_schema_is_the_named_error(overrides):
    with pytest.raises(ResultFormatError):
        _plain(**overrides).to_doc()


def _mutated(**changes) -> dict:
    document = _plain().to_doc()
    document.update(changes)
    return document


@pytest.mark.parametrize(
    "document",
    [
        None,
        [],
        "dstress.obs.run",
        {},
        _mutated(schema="dstress.obs.batch"),
        _mutated(version=2),
        _mutated(version=True),
        _mutated(version="1"),
        _mutated(surprise=1),
        _mutated(trace=None),
        _mutated(aggregate="1.0"),
        _mutated(aggregate=None),
        _mutated(trajectory=[1.0, None]),
        _mutated(extras=None),
        _mutated(extras={"x": []}),
        _mutated(phases=[]),
        _mutated(traffic={"nodes": {}, "links": []}),
        _mutated(traffic={"nodes": {"01": {}}, "links": [], "total_bytes_sent": 0.0}),
        _mutated(
            traffic={
                "nodes": {},
                "links": [[0, 1, 1.0], [0, 1, 2.0]],
                "total_bytes_sent": 3.0,
            }
        ),
        _mutated(final_states={"zero": {}}),
        _mutated(final_states={" 1": {}}),
        _mutated(releases=[{"window": 0}]),
        {k: v for k, v in _plain().to_doc().items() if k != "engine"},
    ],
)
def test_decoding_anything_but_a_run_document_is_the_named_error(document):
    with pytest.raises(ResultFormatError):
        RunResult.from_doc(document)


def test_non_finite_floats_cannot_enter_through_json():
    text = json.dumps(_plain().to_doc()).replace("1.0", "Infinity", 1)
    with pytest.raises(ResultFormatError):
        RunResult.from_doc(json.loads(text))


def test_a_result_outside_the_schema_is_simply_not_cached(tmp_path):
    foreign = _plain(extras={"x": math.inf})
    disk = PersistentScenarioCache(tmp_path)
    disk.store("fp", foreign)
    assert len(disk) == 0  # nothing persisted…
    assert disk.lookup("fp") is not None  # …the memory tier still serves it
    assert PersistentScenarioCache(tmp_path).lookup("fp") is None
    with TierHarness() as tier:
        remote = RemoteScenarioCache("127.0.0.1", tier.port)
        remote.store("fp", foreign)
        assert remote.lookup("fp") is None and len(remote) == 0
        remote.close()
