"""Hostile bytes at every place a result or a round value is decoded.

The release store is the long-lived, shared part of a deployment: a
cache directory, a cache-tier port, a party port. Whatever arrives there
— arbitrary bytes, arbitrary JSON, a pickle that would run code — must
come out as a miss or as the layer's one named error: never an escaped
exception, never a hang, never an executed payload.
"""

import asyncio
import base64
import json
import pickle
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import PersistentScenarioCache, RunResult
from repro.api.cache import ScenarioCache
from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.keys import SchnorrSigner
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import (
    FrameTooLargeError,
    PeerDisconnectedError,
    ProtocolError,
    ResultFormatError,
    ServiceError,
    WireFormatError,
)
from repro.net.peer import read_frame
from repro.net.wire import (
    HEADER_BYTES,
    MAGIC,
    PROTOCOL_VERSION,
    Frame,
    MessageKind,
    decode_frame,
    encode_frame,
)
from repro.service import CacheTierServer, RemoteScenarioCache
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


# ------------------------------------------------------------ (ii) the tier --


def _dispatch(server: CacheTierServer, line: bytes) -> dict:
    return asyncio.run(server._dispatch_line(line))


class _ScriptedSocket:
    """Stands in for the tier's end of a connection: swallows the request,
    answers with one scripted line."""

    def __init__(self, line: bytes) -> None:
        self._pending = [line + b"\n"]

    def sendall(self, data: bytes) -> None:
        pass

    def recv(self, size: int) -> bytes:
        return self._pending.pop() if self._pending else b""

    def close(self) -> None:
        pass


def _remote_answered_with(line: bytes, strict: bool = False) -> RemoteScenarioCache:
    remote = RemoteScenarioCache("127.0.0.1", 1, strict=strict)
    remote._client._sock = _ScriptedSocket(line)
    return remote


class TestCacheTier:
    @given(line=st.binary(max_size=256).filter(lambda b: b"\n" not in b))
    @settings(max_examples=100)
    def test_arbitrary_request_bytes_get_a_typed_error_line(self, line):
        server = CacheTierServer(ScenarioCache())
        response = _dispatch(server, line + b"\n")
        assert response["ok"] is False
        assert response["error"] == "ServiceProtocolError"
        json.dumps(response, allow_nan=False)

    @given(request=_json_values)
    @settings(max_examples=100)
    def test_arbitrary_json_requests_never_escape(self, request):
        server = CacheTierServer(ScenarioCache())
        response = _dispatch(server, json.dumps(request).encode() + b"\n")
        assert response["ok"] in (True, False)
        json.dumps(response, allow_nan=False)

    @given(payload=_json_values)
    @settings(max_examples=100)
    def test_arbitrary_store_payloads_are_refused_and_store_nothing(self, payload):
        backing = ScenarioCache()
        server = CacheTierServer(backing)
        request = {"op": "store", "fingerprint": FP, "payload": payload}
        response = _dispatch(server, json.dumps(request).encode() + b"\n")
        assert response["ok"] is False
        assert response["error"] == "ServiceProtocolError"
        assert len(backing) == 0 and server.counters["stores"] == 0

    @given(line=st.binary(max_size=256).filter(lambda b: b"\n" not in b))
    @settings(max_examples=100)
    def test_arbitrary_response_bytes_are_a_miss(self, line):
        assert _remote_answered_with(line).lookup(FP) is None
        with pytest.raises(ServiceError):
            _remote_answered_with(line, strict=True).lookup(FP)

    @given(payload=_json_values, hit=_json_values)
    @settings(max_examples=100)
    def test_arbitrary_lookup_responses_are_a_miss(self, payload, hit):
        body = {"ok": True, "version": 1, "op": "lookup", "hit": hit, "payload": payload}
        line = json.dumps(body).encode()
        assert _remote_answered_with(line).lookup(FP) is None
        assert _remote_answered_with(line, strict=True).lookup(FP) is None


# ------------------------------------------------------- (iii) round values --


def _round_value_frame(value_bytes: bytes) -> bytes:
    payload = struct.pack("!IIHI", 1, 2, 0, 3) + value_bytes
    header = struct.pack(
        "!2sBBI", MAGIC, PROTOCOL_VERSION, int(MessageKind.ROUND_VALUE), len(payload)
    )
    return header + payload


class TestRoundValue:
    @given(body=st.binary(max_size=64))
    @settings(max_examples=300)
    def test_arbitrary_value_bytes_decode_or_raise_the_named_error(self, body):
        data = _round_value_frame(body)
        try:
            frame, consumed = decode_frame(data)
        except WireFormatError:
            return
        assert consumed == len(data)
        assert frame.value is None or type(frame.value) in (bool, int, float)

    @given(body=st.binary(max_size=64))
    @settings(max_examples=100)
    def test_the_retired_pickle_tag_is_an_unknown_tag(self, body):
        with pytest.raises(WireFormatError, match="unknown value tag 6"):
            decode_frame(_round_value_frame(b"\x06" + body))

    @pytest.mark.parametrize("value", [[1.0, 2.0], "text", b"bytes", {"a": 1}, (1,), 1j])
    def test_an_unsupported_value_is_refused_at_encode(self, value):
        with pytest.raises(WireFormatError, match="cannot encode"):
            encode_frame(Frame(kind=MessageKind.ROUND_VALUE, value=value))

    def test_header_size_matches_the_handmade_frame(self):
        data = _round_value_frame(b"\x03")
        assert decode_frame(data) == (
            Frame(kind=MessageKind.ROUND_VALUE, src=1, dst=2, round_index=3),
            HEADER_BYTES + 14 + 1,
        )


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
        ],
    )
    def test_a_garbage_header_is_refused_at_eight_bytes(self, header, complaint):
        with pytest.raises(WireFormatError, match=complaint):
            _read_from_stream(header)

    def test_eof_mid_frame_is_a_disconnect(self):
        data = _round_value_frame(b"\x03")
        with pytest.raises(PeerDisconnectedError, match="mid-frame"):
            _read_from_stream(data[:-3], eof=True)
        with pytest.raises(PeerDisconnectedError, match="mid-frame"):
            _read_from_stream(data[:5], eof=True)
        with pytest.raises(PeerDisconnectedError, match=r"closed \(EOF\)"):
            _read_from_stream(b"", eof=True)

    def test_a_whole_frame_comes_back_with_its_wire_size(self):
        data = _round_value_frame(b"\x03")
        frame, wire_bytes = _read_from_stream(data + b"next frame")
        assert frame == Frame(kind=MessageKind.ROUND_VALUE, src=1, dst=2, round_index=3)
        assert wire_bytes == len(data)


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

    def test_pickle_sent_as_a_tier_payload(self, bomb):
        backing = ScenarioCache()
        server = CacheTierServer(backing)
        for payload in (base64.b64encode(bomb).decode("ascii"), bomb.decode("latin-1")):
            request = {"op": "store", "fingerprint": FP, "payload": payload}
            response = _dispatch(server, json.dumps(request).encode() + b"\n")
            assert response["error"] == "ServiceProtocolError"
        assert len(backing) == 0

    def test_pickle_answered_as_a_tier_lookup(self, bomb):
        body = {
            "ok": True,
            "version": 1,
            "op": "lookup",
            "hit": True,
            "payload": base64.b64encode(bomb).decode("ascii"),
        }
        assert _remote_answered_with(json.dumps(body).encode()).lookup(FP) is None

    def test_pickle_sent_as_a_round_value(self, bomb):
        with pytest.raises(WireFormatError):
            decode_frame(_round_value_frame(b"\x06" + bomb))

    def test_pickle_handed_to_the_decoder_directly(self, bomb):
        for document in (bomb, bomb.decode("latin-1"), {"schema": bomb.decode("latin-1")}):
            with pytest.raises(ResultFormatError):
                RunResult.from_doc(document)
