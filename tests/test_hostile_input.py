"""Hostile bytes at every place a result or a frame is decoded.

The release store is the long-lived, shared part of a deployment: a
cache directory, a service port, a party port, a cluster's trace
directory. Whatever arrives there
— arbitrary bytes, arbitrary JSON, a pickle that would run code — must
come out as a miss or as the layer's one named error: never an escaped
exception, never a hang, never an executed payload.
"""

import asyncio
import json
import pickle
import struct
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import BatchResult, PersistentScenarioCache, RunResult, ScenarioOutcome
from repro.core.graph import DistributedGraph
from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.keys import SchnorrSigner
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import (
    FrameTooLargeError,
    PeerDisconnectedError,
    ProtocolError,
    ResultFormatError,
    WireFormatError,
)
from repro.net.peer import PeerAddress, read_frame
from repro.net.transport import TcpTransport
from repro.obs import ManualClock, TraceRecorder, validate_export
from repro.obs.merge import load_trace_shard, merge_cluster_trace, merge_shards
from repro.obs.report import main as report_main
from repro.net.wire import (
    HEADER_BYTES,
    MAGIC,
    PROTOCOL_VERSION,
    Frame,
    MessageKind,
    decode_frame,
    encode_frame,
)
from repro.privacy.budget import PrivacyAccountant
from repro.service import StressTestService
from repro.simulation.netsim import PhaseTimer, TrafficMeter
from repro.sharing import share_value
from repro.transfer.certificates import build_certificate, generate_member_keys
from repro.transfer.protocol import EncryptedSubshare, MessageTransferProtocol

FP = "f" * 64

_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


def _good_result() -> RunResult:
    return RunResult(
        engine="e",
        program="p",
        aggregate=1.5,
        trajectory=[1.0, 1.5],
        iterations=2,
        wall_seconds=0.01,
        extras={"k": 2.0},
    )


def _good_entry(tmp_path) -> dict:
    PersistentScenarioCache(tmp_path).store(FP, _good_result())
    return json.loads((tmp_path / (FP + ".json")).read_bytes())


def _fresh_lookup(directory):
    return PersistentScenarioCache(directory, memory_tier=False).lookup(FP)


# ----------------------------------------------------------- (i) disk entry --


class TestDiskEntry:
    @given(raw=st.binary(max_size=256))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_bytes_are_a_miss_and_discarded(self, tmp_path, raw):
        path = tmp_path / (FP + ".json")
        path.write_bytes(raw)
        assert _fresh_lookup(tmp_path) is None
        assert not path.exists()

    @given(value=_json_values)
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_json_is_a_miss(self, tmp_path, value):
        (tmp_path / (FP + ".json")).write_text(json.dumps(value))
        assert _fresh_lookup(tmp_path) is None

    @given(data=st.data())
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_field_of_a_valid_entry_replaced_never_escapes(self, tmp_path, data):
        entry = _good_entry(tmp_path)
        target = data.draw(st.sampled_from(["envelope", "result"]))
        victim = entry if target == "envelope" else entry["result"]
        key = data.draw(st.sampled_from(sorted(victim)) | st.text(max_size=6))
        victim[key] = data.draw(_json_values)
        (tmp_path / (FP + ".json")).write_text(json.dumps(entry))
        hit = _fresh_lookup(tmp_path)
        # a replacement that happens to be well-typed is still a result
        assert hit is None or isinstance(hit, RunResult)

    def test_deep_nesting_and_huge_integers_are_misses(self, tmp_path):
        path = tmp_path / (FP + ".json")
        for raw in (b"[" * 100_000, b'{"version":' + b"9" * 10_000 + b"}"):
            path.write_bytes(raw)
            assert _fresh_lookup(tmp_path) is None


# ---------------------------------------------------- (ii) the service line --


def _dispatch(server: StressTestService, line: bytes) -> dict:
    return asyncio.run(server._dispatch_line(line + b"\n"))


#: Requests that name a real op, so a fuzzed body reaches its handler.
_service_requests = st.fixed_dictionaries(
    {"op": st.sampled_from(["ping", "stats", "submit", "shutdown"]) | st.text(max_size=8)},
    optional={"scenario": _json_values},
)


class TestServiceLine:
    @given(line=st.binary(max_size=256).filter(lambda b: b"\n" not in b))
    @settings(max_examples=100)
    def test_arbitrary_request_bytes_get_a_typed_error_line(self, line):
        response = _dispatch(StressTestService(), line)
        assert response["ok"] is False
        assert response["error"] == "ServiceProtocolError"
        json.dumps(response, allow_nan=False)

    @given(request=_json_values | _service_requests)
    @settings(max_examples=100)
    def test_arbitrary_json_requests_never_escape(self, request):
        response = _dispatch(StressTestService(), json.dumps(request).encode())
        assert response["ok"] in (True, False)
        json.dumps(response, allow_nan=False)

    @given(scenario=_json_values)
    @settings(max_examples=100)
    def test_an_arbitrary_submit_is_rejected_before_any_charge(self, scenario):
        accountant = PrivacyAccountant()
        server = StressTestService(accountant=accountant)
        request = {"op": "submit", "scenario": scenario}
        response = _dispatch(server, json.dumps(request).encode())
        assert response["status"] == "rejected"
        assert response["error"] == "ScenarioValidationError"
        assert accountant.spent == 0.0 and list(accountant.ledger) == []
        assert server.counters["admitted"] == server.counters["engine_runs"] == 0


# ---------------------------------------------------- (iii) retired frames --


def _round_value_frame(value_bytes: bytes) -> bytes:
    """A frame of the retired kind 2 (round values, protocol version 1)
    in its old layout, under the current header: what a stale or hostile
    peer could still put on the wire."""
    payload = struct.pack("!IIHI", 1, 2, 0, 3) + value_bytes
    header = struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, 2, len(payload))
    return header + payload


def _convey_frame() -> bytes:
    return encode_frame(Frame(kind=MessageKind.CRYPTO, src=1, dst=2, round_index=3, pad_len=4))


_VALID_FRAMES = [
    Frame(kind=MessageKind.HELLO, session=bytes(range(16)), party_id=1, num_parties=3),
    Frame(kind=MessageKind.GMW_BATCH, src=1, dst=2, round_index=3, pad_len=5),
    Frame(kind=MessageKind.TRANSFER_AGG, src=2, dst=1, round_index=0, pad_len=0),
    Frame(kind=MessageKind.CRYPTO, src=0, dst=3, round_index=9, pad_len=2),
    Frame(kind=MessageKind.CONTROL, code=2, detail="abort: \u00e9"),
]


def _decodes_or_refuses(data: bytes) -> None:
    """The codec's whole contract on hostile input: a frame (never read
    past the buffer) or the one named error — nothing else escapes."""
    try:
        frame, consumed = decode_frame(data)
    except WireFormatError:
        return
    assert isinstance(frame, Frame)
    assert HEADER_BYTES <= consumed <= len(data)


def test_every_message_kind_has_a_valid_frame_under_test():
    assert {frame.kind for frame in _VALID_FRAMES} == set(MessageKind)
    for frame in _VALID_FRAMES:
        data = encode_frame(frame)
        assert decode_frame(data) == (frame, len(data))


class TestDecodeFrame:
    @given(raw=st.binary(max_size=96))
    @settings(max_examples=300)
    @example(raw=b"")
    @example(raw=struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, int(MessageKind.HELLO), 0))
    def test_arbitrary_bytes(self, raw):
        _decodes_or_refuses(raw)

    @given(data=st.data())
    @settings(max_examples=300)
    def test_truncations_of_a_valid_frame(self, data):
        encoded = encode_frame(data.draw(st.sampled_from(_VALID_FRAMES)))
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(WireFormatError):
            decode_frame(encoded[:cut])

    @given(data=st.data())
    @settings(max_examples=500)
    def test_one_byte_mutations_of_a_valid_frame(self, data):
        encoded = bytearray(encode_frame(data.draw(st.sampled_from(_VALID_FRAMES))))
        position = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        encoded[position] = data.draw(st.integers(min_value=0, max_value=255))
        _decodes_or_refuses(bytes(encoded))


# ------------------------------------------- (iv) frame headers off a stream --


def _read_from_stream(fed: bytes, eof: bool = False, **kwargs):
    """``read_frame`` against a stream that has received exactly ``fed``
    (and, without ``eof``, stays open): a reader that waits for more than
    the header to refuse a frame runs into the timeout instead."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(fed)
        if eof:
            reader.feed_eof()
        return await read_frame(reader, timeout=2.0, **kwargs)

    return asyncio.run(scenario())


class TestReadFrame:
    def test_an_oversized_declaration_is_refused_on_the_header_alone(self):
        header = struct.pack(
            "!2sBBI", MAGIC, PROTOCOL_VERSION, int(MessageKind.CRYPTO), 2**31
        )
        with pytest.raises(FrameTooLargeError, match="2147483648-byte payload"):
            _read_from_stream(header, max_frame_bytes=1 << 20)

    @pytest.mark.parametrize(
        "header, complaint",
        [
            (struct.pack("!2sBBI", b"XX", PROTOCOL_VERSION, 2, 64), "bad magic"),
            (struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION + 1, 2, 64), "protocol version"),
            (struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, 99, 64), "unknown message kind"),
            (struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, 2, 64), "unknown message kind 2"),
        ],
    )
    def test_a_garbage_header_is_refused_at_eight_bytes(self, header, complaint):
        with pytest.raises(WireFormatError, match=complaint):
            _read_from_stream(header)

    def test_eof_mid_frame_is_a_disconnect(self):
        data = _convey_frame()
        with pytest.raises(PeerDisconnectedError, match="mid-frame"):
            _read_from_stream(data[:-3], eof=True)
        with pytest.raises(PeerDisconnectedError, match="mid-frame"):
            _read_from_stream(data[:5], eof=True)
        with pytest.raises(PeerDisconnectedError, match=r"closed \(EOF\)"):
            _read_from_stream(b"", eof=True)

    def test_a_whole_frame_comes_back_with_its_wire_size(self):
        data = _convey_frame()
        frame, wire_bytes = _read_from_stream(data + b"next frame")
        assert frame == Frame(kind=MessageKind.CRYPTO, src=1, dst=2, round_index=3, pad_len=4)
        assert wire_bytes == len(data)


# -------------------------------------- (iv b) a retired frame off a party port --


def _two_vertex_graph() -> DistributedGraph:
    """Vertex 0 -> vertex 1 under D = 2: over two parties (owner = vertex
    rank mod 2) party 1 owns vertex 1 and is owed party 0's bytes into it."""
    graph = DistributedGraph(degree_bound=2)
    graph.add_vertex(0)
    graph.add_vertex(1)
    graph.add_edge(0, 1)
    return graph


class TestRetiredFrameOverTcp:
    def test_a_round_value_frame_fails_its_sender_with_the_named_error(self, caplog):
        """Party 0 of a loopback mesh writes a kind-2 frame to party 1,
        whose window then waits on the 2 bytes party 0 owes it. Party 1's
        read loop refuses the frame and fails party 0, so the window fails
        on that cause, not on the io timeout."""
        transports = [TcpTransport(i, 2, session="retired", io_timeout=5.0) for i in range(2)]
        try:
            peers = [PeerAddress(i, "127.0.0.1", t.listen()) for i, t in enumerate(transports)]
            dialers = [threading.Thread(target=t.connect, args=(peers,)) for t in transports]
            for dialer in dialers:
                dialer.start()
            for dialer in dialers:
                dialer.join(timeout=30.0)
            attacker, victim = transports
            victim.open(_two_vertex_graph())

            async def send():
                attacker._writers[1].write(_round_value_frame(b"\x00" + bytes(8)))
                await attacker._writers[1].drain()

            attacker.run(send())
            with pytest.raises(WireFormatError) as caught:
                victim.run(victim.convey_round(0, "round", [(0, 1, 2.0)]))
            recorded = victim._peer_failure.get(0)
        finally:
            for transport in transports:
                transport.close()
        assert isinstance(recorded, WireFormatError)
        assert "unknown message kind 2" in str(recorded)
        assert "still owed 2 conveyed bytes by party 0" in str(caught.value)
        assert "unknown message kind 2" in str(caught.value)
        assert "Unhandled exception" not in caplog.text


# ------------------------------------------------ (v) transfer role inputs --


def _transfer_transcript(bits=4, block=3):
    rng = DeterministicRNG("hostile-widths")
    elgamal = ExponentialElGamal(TOY_GROUP_64, dlog_half_width=64)
    signer = SchnorrSigner(TOY_GROUP_64)
    members = [generate_member_keys(elgamal, bits, rng) for _ in range(block)]
    neighbor_key = TOY_GROUP_64.random_scalar(rng)
    certificate = build_certificate(
        elgamal, signer, signer.keygen(rng), 0, 0, members, neighbor_key, rng
    )
    protocol = MessageTransferProtocol(elgamal, bits, noise_alpha=0.5)
    bundles = [
        protocol.sender_encrypt(share, certificate, rng)
        for share in share_value(0b1010, bits, block, rng)
    ]
    return protocol, bundles, neighbor_key, members, rng


class TestTransferRoleWidths:
    """Whatever widths the per-bit vectors of a subshare matrix arrive
    with, the roles downstream either run on exactly ``L`` bits or raise
    ``ProtocolError``: no ``IndexError``, no vector quietly cut."""

    @given(widths=st.lists(st.integers(min_value=0, max_value=9), min_size=9, max_size=9))
    @example(widths=[4] * 9)
    @example(widths=[4] * 8 + [5])
    @settings(max_examples=40, deadline=None)
    def test_any_width_matrix_is_moved_whole_or_refused(self, widths):
        protocol, bundles, neighbor_key, members, rng = _transfer_transcript()
        bits = protocol.message_bits
        hostile = [
            [
                EncryptedSubshare(c1=sub.c1, c2=(sub.c2 * 3)[: widths[3 * x + y]])
                for y, sub in enumerate(row)
            ]
            for x, row in enumerate(bundles)
        ]
        try:
            aggregates, _ = protocol.aggregate(hostile, rng)
        except ProtocolError:
            assert any(width != bits for width in widths)
            return
        assert all(width == bits for width in widths)
        for aggregate, member in zip(protocol.adjust(aggregates, neighbor_key), members):
            assert len(aggregate.c2) == bits
            assert 0 <= protocol.receiver_decrypt(aggregate, member) < 1 << bits


# --------------------------------------------- (vi) a party's trace shard --


def _good_shard() -> dict:
    recorder = TraceRecorder(clock=ManualClock(), party=0)
    with recorder.span("round", round=0):
        recorder.metrics.inc("gmw.pair_bits", 8.0, src=0, dst=1)
    return _good_result().export(recorder)


def _spans(doc: dict) -> list:
    return doc["trace"]["spans"]


def _shard_with(mutate) -> bytes:
    doc = _good_shard()
    mutate(doc)
    return json.dumps(doc).encode()


_BAD_SHARDS = {
    "a-jsonl-line-of-a-list": b"[1]\n",
    "not-json": b"\x00party-0 trace",
    "truncated": json.dumps(_good_shard()).encode()[:-7],
    "foreign-schema": _shard_with(lambda doc: doc.update(schema="acme.trace")),
    "span-without-start": _shard_with(lambda doc: _spans(doc)[0].pop("start")),
    "span-start-not-a-number": _shard_with(lambda doc: _spans(doc)[0].update(start="a")),
    "span-end-not-finite": _shard_with(lambda doc: _spans(doc)[0].update(end=1e309)),
    "party-not-an-int": _shard_with(lambda doc: doc["trace"].update(party="zero")),
    "untraced-run": _shard_with(lambda doc: doc.update(trace=None)),
    "metrics-not-a-registry": _shard_with(lambda doc: doc["trace"].update(metrics=[1])),
}


class TestTraceShard:
    @pytest.mark.parametrize("raw", list(_BAD_SHARDS.values()), ids=list(_BAD_SHARDS))
    def test_a_bad_shard_is_the_named_error(self, tmp_path, raw):
        path = tmp_path / "party-0.json"
        path.write_bytes(raw)
        with pytest.raises(ResultFormatError):
            load_trace_shard(path)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: _spans(doc)[0].update(start="a"),
            lambda doc: doc["trace"].update(party="zero"),
            lambda doc: doc["trace"]["metrics"].update(gauges={"g": "high"}),
        ],
        ids=["span-start", "party", "gauge"],
    )
    def test_the_validator_reports_a_mistyped_trace(self, mutate):
        doc = _good_shard()
        mutate(doc)
        assert validate_export(doc) != []

    @given(trace=_json_values)
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_json_trace_loads_or_raises_the_named_error(self, tmp_path, trace):
        doc = _good_shard()
        doc["trace"] = trace
        path = tmp_path / "party-0.json"
        path.write_text(json.dumps(doc))
        try:
            shard = load_trace_shard(path)
        except ResultFormatError:
            return
        assert isinstance(shard["trace"]["party"], int)

    def test_the_merge_leaves_a_bad_shard_out(self, tmp_path):
        (tmp_path / "party-0.json").write_text(json.dumps(_good_shard()))
        (tmp_path / "party-1.json").write_bytes(_BAD_SHARDS["span-without-start"])
        timeline = merge_cluster_trace(tmp_path)
        assert timeline["parties"] == [0]
        assert [(e["round"], e["party"]) for e in timeline["entries"]] == [(0, 0)]
        assert validate_export(timeline) == []
        assert json.loads((tmp_path / "timeline.json").read_text()) == timeline


# ---------------------------------------------------- (vii) the report CLI --


def _report_exports() -> list:
    """A valid run, batch and timeline export, each with every section the
    report renders: bill, rounds, build tables, phases, traffic, ledger."""
    recorder = TraceRecorder(clock=ManualClock(), party=0)
    with recorder.span("run"):
        with recorder.span("round", round=0):
            recorder.event("bill", and_gates=8, rounds=2, ots=24, transfers=3, exponentiations=21)
            recorder.metrics.inc("mpc.plan.builds", 1.0)
    traffic = TrafficMeter()
    traffic.record_send(0, 1, 8.0)
    result = _good_result()
    result.traffic = traffic
    result.phases = PhaseTimer(seconds={"stage:rounds": 0.2, "computation": 0.1})
    run = result.export(recorder)
    accountant = PrivacyAccountant()
    accountant.charge(0.2, label="ok", fingerprint=FP)
    accountant.refund(accountant.charge(0.1, label="failed"))
    batch = BatchResult(
        outcomes=[
            ScenarioOutcome("ok", result=result, seconds=0.5),
            ScenarioOutcome("failed", error="ProtocolError: boom", seconds=0.1),
        ],
        wall_seconds=0.7,
        workers=2,
        epsilon_charged=0.2,
        cache_misses=2,
    ).export(accountant)
    return [run, batch, merge_shards([json.loads(json.dumps(run))])]


def _slots(doc) -> list:
    """Every (container, key) slot of a JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    slots = []
    for key, value in items:
        slots.append((doc, key))
        if isinstance(value, (dict, list)):
            slots.extend(_slots(value))
    return slots


class TestReportCli:
    """``python -m repro.obs.report`` exits 0 or 1 on any document, never
    with a traceback, and renders exactly the documents ``--check`` passes."""

    @staticmethod
    def assert_verdicts_agree(tmp_path, doc) -> int:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        checked = report_main([str(path), "--check"])
        assert checked in (0, 1)
        assert report_main([str(path)]) == checked
        return checked

    def test_the_valid_exports_check_and_render(self, tmp_path):
        for doc in _report_exports():
            assert self.assert_verdicts_agree(tmp_path, doc) == 0

    @pytest.mark.parametrize(
        "index, mutate",
        [
            (1, lambda doc: doc["ledger"].update(reconciliation=[])),
            (1, lambda doc: doc.update(epsilon_charged=None)),
            (2, lambda doc: doc["entries"].append(dict(doc["entries"][0], round="1"))),
            (0, lambda doc: doc["trace"]["spans"][0].update(span_id=[1])),
            (0, lambda doc: doc.update(aggregate=10**400)),
        ],
        ids=["reconciliation-list", "epsilon-null", "mixed-rounds", "span-id-list", "huge-int"],
    )
    def test_an_inconsistent_export_is_a_named_failure(self, tmp_path, index, mutate):
        doc = _report_exports()[index]
        mutate(doc)
        assert validate_export(doc) != []
        assert self.assert_verdicts_agree(tmp_path, doc) == 1

    @given(doc=_json_values)
    @example(doc=[1])
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_arbitrary_json(self, tmp_path, doc):
        self.assert_verdicts_agree(tmp_path, doc)

    @given(data=st.data())
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_one_field_of_a_valid_export_replaced(self, tmp_path, data):
        doc = data.draw(st.sampled_from(_report_exports()))
        container, key = data.draw(st.sampled_from(_slots(doc)))
        container[key] = data.draw(_json_values)
        self.assert_verdicts_agree(tmp_path, doc)


# ------------------------------------------------- nothing is ever executed --


class _Detonator:
    """Unpickling an instance creates the sentinel file."""

    def __init__(self, sentinel) -> None:
        self.sentinel = str(sentinel)

    def __reduce__(self):
        return (open, (self.sentinel, "w"))


@pytest.fixture
def bomb(tmp_path):
    sentinel = tmp_path / "sentinel"
    payload = pickle.dumps(_Detonator(sentinel))
    pickle.loads(payload).close()  # the bomb is live…
    assert sentinel.exists()
    sentinel.unlink()  # …and re-armed
    yield payload
    assert not sentinel.exists(), "a decoder executed a pickle"


class TestNoCodeExecution:
    def test_pickle_written_as_a_disk_entry(self, tmp_path, bomb):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / (FP + ".json")).write_bytes(bomb)
        assert _fresh_lookup(directory) is None

    def test_pickle_left_over_from_the_two_file_format(self, tmp_path, bomb):
        directory = tmp_path / "cache"
        directory.mkdir()
        (directory / (FP + ".pkl")).write_bytes(bomb)
        (directory / (FP + ".json")).write_text(
            json.dumps(
                {"version": 1, "fingerprint": FP, "payload_bytes": len(bomb)}
            )
        )
        assert _fresh_lookup(directory) is None
        assert list(directory.iterdir()) == []

    def test_pickle_sent_as_a_round_value(self, bomb):
        with pytest.raises(WireFormatError):
            decode_frame(_round_value_frame(b"\x06" + bomb))

    def test_pickle_sent_as_service_request_lines(self, bomb):
        for line in filter(None, bomb.split(b"\n")):
            response = _dispatch(StressTestService(), line)
            assert response["ok"] is False
            assert response["error"] == "ServiceProtocolError"

    def test_pickle_submitted_as_a_scenario(self, bomb):
        accountant = PrivacyAccountant()
        server = StressTestService(accountant=accountant)
        request = {"op": "submit", "scenario": bomb.decode("latin-1")}
        response = _dispatch(server, json.dumps(request).encode())
        assert response["status"] == "rejected"
        assert response["error"] == "ScenarioValidationError"
        assert accountant.spent == 0.0

    def test_pickle_handed_to_the_decoder_directly(self, bomb):
        for document in (bomb, bomb.decode("latin-1"), {"schema": bomb.decode("latin-1")}):
            with pytest.raises(ResultFormatError):
                RunResult.from_doc(document)
