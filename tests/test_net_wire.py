"""Property tests for the framed wire codec (hypothesis-driven).

The codec's contract, as the satellite task states it: encode/decode
round-trips every :class:`MessageKind` exactly; truncated buffers and
garbage headers *always* raise a named
:class:`~repro.exceptions.WireFormatError` (never hang, never over-read);
oversized declarations are refused by
:class:`~repro.exceptions.FrameTooLargeError` before any payload is
touched. Over-reading is observable: :func:`decode_frame` reports the
offset it consumed, so a junk suffix must never move it.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import FrameTooLargeError, WireFormatError
from repro.net.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    MAGIC,
    PROTOCOL_VERSION,
    CTRL_ABORT,
    CTRL_BYE,
    Frame,
    MessageKind,
    convey_kind,
    decode_frame,
    encode_frame,
)

_U32 = 2**32 - 1
_U16 = 2**16 - 1

# -- frame strategies, one per kind ------------------------------------------

_sessions = st.binary(min_size=16, max_size=16)
_u32 = st.integers(min_value=0, max_value=_U32)
_u16 = st.integers(min_value=0, max_value=_U16)

_values = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=2**63, max_value=2**200),  # bigint tag
    st.integers(min_value=-(2**200), max_value=-(2**63) - 1),
)

_hello_frames = st.builds(
    lambda session, party, num: Frame(
        kind=MessageKind.HELLO, session=session, party_id=party, num_parties=num
    ),
    _sessions,
    _u32,
    _u32,
)
_round_frames = st.builds(
    lambda src, dst, slot, rnd, value: Frame(
        kind=MessageKind.ROUND_VALUE,
        src=src,
        dst=dst,
        in_slot=slot,
        round_index=rnd,
        value=value,
    ),
    _u32,
    _u32,
    _u16,
    _u32,
    _values,
)
_convey_frames = st.builds(
    lambda kind, src, dst, rnd, pad: Frame(
        kind=kind, src=src, dst=dst, round_index=rnd, pad_len=pad
    ),
    st.sampled_from(
        [MessageKind.GMW_BATCH, MessageKind.TRANSFER_AGG, MessageKind.CRYPTO]
    ),
    _u32,
    _u32,
    _u32,
    st.integers(min_value=0, max_value=2048),
)
_control_frames = st.builds(
    lambda code, detail: Frame(kind=MessageKind.CONTROL, code=code, detail=detail),
    st.integers(min_value=0, max_value=255),
    st.text(max_size=64),
)
_frames = st.one_of(_hello_frames, _round_frames, _convey_frames, _control_frames)


def _values_equal(sent, received) -> bool:
    """Bit-level equality: NaN must survive the wire too."""
    if type(sent) is float and type(received) is float:
        return struct.pack("!d", sent) == struct.pack("!d", received)
    return type(sent) is type(received) and sent == received


class TestRoundTrip:
    @given(frame=_frames)
    @settings(max_examples=200)
    def test_every_kind_round_trips(self, frame):
        data = encode_frame(frame)
        decoded, consumed = decode_frame(data)
        assert consumed == len(data)
        assert decoded.kind is frame.kind
        if frame.kind is MessageKind.HELLO:
            assert decoded.session == frame.session
            assert decoded.party_id == frame.party_id
            assert decoded.num_parties == frame.num_parties
        elif frame.kind is MessageKind.ROUND_VALUE:
            assert (decoded.src, decoded.dst, decoded.in_slot, decoded.round_index) == (
                frame.src,
                frame.dst,
                frame.in_slot,
                frame.round_index,
            )
            assert _values_equal(frame.value, decoded.value)
        elif frame.kind is MessageKind.CONTROL:
            assert (decoded.code, decoded.detail) == (frame.code, frame.detail)
        else:
            assert (decoded.src, decoded.dst, decoded.round_index, decoded.pad_len) == (
                frame.src,
                frame.dst,
                frame.round_index,
                frame.pad_len,
            )

    @given(frame=_frames, offset_pad=st.binary(min_size=0, max_size=32))
    @settings(max_examples=100)
    def test_decode_at_offset(self, frame, offset_pad):
        data = encode_frame(frame)
        decoded, consumed = decode_frame(offset_pad + data, offset=len(offset_pad))
        assert consumed == len(offset_pad) + len(data)
        assert decoded.kind is frame.kind

    def test_nan_float_survives_exactly(self):
        frame = Frame(kind=MessageKind.ROUND_VALUE, value=float("nan"))
        decoded, _ = decode_frame(encode_frame(frame))
        assert math.isnan(decoded.value)


class TestNeverOverRead:
    @given(frame=_frames, junk=st.binary(min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_junk_suffix_untouched(self, frame, junk):
        """The declared length bounds the read: trailing bytes (the next
        frame on a stream) are never consumed, whatever they contain."""
        data = encode_frame(frame)
        decoded, consumed = decode_frame(data + junk)
        assert consumed == len(data)
        assert decoded.kind is frame.kind


class TestTruncationAlwaysRaises:
    @given(frame=_frames, data=st.data())
    @settings(max_examples=200)
    def test_every_proper_prefix_raises(self, frame, data):
        encoded = encode_frame(frame)
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        with pytest.raises(WireFormatError):
            decode_frame(encoded[:cut])

    @given(frame=_round_frames, chopped=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_understated_length_raises_not_misparses(self, frame, chopped):
        """A header whose length lies short makes the *payload* parse fail
        (truncated value), not silently produce a wrong frame."""
        encoded = bytearray(encode_frame(frame))
        (length,) = struct.unpack_from("!I", encoded, 4)
        if length < chopped:
            return
        struct.pack_into("!I", encoded, 4, length - chopped)
        with pytest.raises(WireFormatError):
            decode_frame(bytes(encoded[: len(encoded) - chopped]))


class TestGarbageHeaderAlwaysRaises:
    @given(header=st.binary(min_size=HEADER_BYTES, max_size=HEADER_BYTES + 64))
    @settings(max_examples=200)
    def test_bad_magic_or_version_raises(self, header):
        if header[:2] == MAGIC and header[2] == PROTOCOL_VERSION:
            header = b"XX" + header[2:]
        with pytest.raises(WireFormatError):
            decode_frame(header)

    @given(kind_byte=st.integers(min_value=0, max_value=255))
    def test_unknown_kind_raises(self, kind_byte):
        known = {int(k) for k in MessageKind}
        if kind_byte in known:
            return
        header = struct.pack("!2sBBI", MAGIC, PROTOCOL_VERSION, kind_byte, 0)
        with pytest.raises(WireFormatError):
            decode_frame(header)

    @given(version=st.integers(min_value=0, max_value=255))
    def test_wrong_version_raises(self, version):
        if version == PROTOCOL_VERSION:
            return
        header = struct.pack(
            "!2sBBI", MAGIC, version, int(MessageKind.CONTROL), 0
        )
        with pytest.raises(WireFormatError):
            decode_frame(header)


class TestFrameCap:
    def test_encode_refuses_oversized_padding(self):
        frame = Frame(kind=MessageKind.GMW_BATCH, pad_len=1024)
        with pytest.raises(FrameTooLargeError):
            encode_frame(frame, max_frame_bytes=256)

    def test_decode_refuses_declared_oversize_before_payload(self):
        """The cap check runs on the *declared* length: a hostile header
        is refused even though not one payload byte is present."""
        header = struct.pack(
            "!2sBBI", MAGIC, PROTOCOL_VERSION, int(MessageKind.CRYPTO), 2**31
        )
        with pytest.raises(FrameTooLargeError):
            decode_frame(header, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES)

    @given(pad=st.integers(min_value=0, max_value=512))
    @settings(max_examples=50)
    def test_cap_is_exact(self, pad):
        frame = Frame(kind=MessageKind.CRYPTO, pad_len=pad)
        payload_len = 16 + pad  # convey header + padding
        encoded = encode_frame(frame, max_frame_bytes=payload_len)
        decoded, _ = decode_frame(encoded, max_frame_bytes=payload_len)
        assert decoded.pad_len == pad
        with pytest.raises(FrameTooLargeError):
            encode_frame(frame, max_frame_bytes=payload_len - 1)


class TestConveyIntegrity:
    def test_pad_length_mismatch_raises(self):
        encoded = bytearray(
            encode_frame(Frame(kind=MessageKind.TRANSFER_AGG, pad_len=8))
        )
        # lie about the padding length inside an otherwise valid frame
        struct.pack_into("!I", encoded, HEADER_BYTES + 12, 9)
        with pytest.raises(WireFormatError):
            decode_frame(bytes(encoded))

    def test_kind_mapping(self):
        assert convey_kind("ot") is MessageKind.GMW_BATCH
        assert convey_kind("transfer") is MessageKind.TRANSFER_AGG
        assert convey_kind("anything-else") is MessageKind.CRYPTO


class TestControlCodes:
    def test_bye_and_abort_codes_are_distinct(self):
        assert CTRL_BYE != CTRL_ABORT

    def test_abort_detail_round_trips(self):
        frame = Frame(
            kind=MessageKind.CONTROL,
            code=CTRL_ABORT,
            detail="PeerDisconnectedError: party 1 died",
        )
        decoded, _ = decode_frame(encode_frame(frame))
        assert decoded.code == CTRL_ABORT
        assert "party 1 died" in decoded.detail
