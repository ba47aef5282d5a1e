"""The framed wire format real DStress peers speak (MOTION-style framing).

Every message on a peer connection is one *frame*: a fixed 8-byte header
— magic, protocol version, typed :class:`MessageKind`, and a big-endian
u32 payload length — followed by exactly that many payload bytes. The
shape follows MOTION's length-prefixed typed-message framing
(``message.fbs``): the receiver always knows how many bytes to read
before it reads them, so a partial read is detectable (EOF mid-frame),
an oversized declaration is refusable before allocation, and garbage is
rejected at the header, never by wandering into the stream.

::

    offset  size  field
    ------  ----  ----------------------------------------------------
    0       2     magic  b"DS"
    2       1     protocol version (PROTOCOL_VERSION)
    3       1     MessageKind
    4       4     payload length (big-endian u32)
    8       n     payload (layout per kind, see the kind table below)

Frame kinds and payload layouts (all integers big-endian):

``HELLO``
    The versioned handshake, first frame in each direction on every
    connection: ``session (16 bytes) | party_id u32 | num_parties u32``.
    Version lives in the header; a mismatch on any field is a
    :class:`~repro.exceptions.HandshakeError` at the peer layer.
``ROUND_VALUE``
    One §3.6 round message: ``src u32 | dst u32 | in_slot u16 |
    round u32 | value`` where ``value`` is the typed scalar encoding
    below — exact (floats travel as IEEE-754 doubles, ints exactly), so
    a wire hop can never break bit-identity with the in-memory bus.
``GMW_BATCH`` / ``TRANSFER_AGG`` / ``CRYPTO``
    A crypto payload conveyed for the secure engine (a block's GMW
    OT-extension batch, a §3.5 transfer's masked words, other protocol
    bytes): ``src u32 | dst u32 | round u32 | pad_len u32`` followed by
    ``pad_len`` padding bytes. The *values* are computed by the protocol
    simulation at every replica; the frame carries the real byte volume
    so wall-clock pays genuine serialization. Batches larger than one
    frame are chunked by the transport.
``CONTROL``
    Connection control: ``code u8`` + UTF-8 detail. ``CTRL_BYE`` is a
    clean goodbye; ``CTRL_ABORT`` announces the sender is unwinding an
    error (detail = the error text), so the survivors fail fast with a
    named cause instead of waiting out a timeout.

Scalar value encoding (``ROUND_VALUE`` payloads): a 1-byte tag then the
value — ``0`` float64, ``1`` int64, ``2`` arbitrary-size int (sign byte +
u32 length + magnitude bytes), ``3`` ``None``, ``4``/``5`` ``True`` /
``False``. That is the whole table: round values are floats (float
arithmetic) or ints (fixed point), and a value of any other type is a
:class:`~repro.exceptions.WireFormatError` at encode, an unknown tag the
same error at decode — bytes off a peer socket are parsed, never
executed.

Decoders never over-read and never block: :func:`decode_frame` consumes
exactly one frame from a buffer and reports how many bytes it used, and
raises a :class:`~repro.exceptions.WireFormatError` (or its
:class:`~repro.exceptions.FrameTooLargeError` subclass) for truncated,
garbage, or oversized input.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Tuple

from repro.exceptions import FrameTooLargeError, WireFormatError

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "DEFAULT_MAX_FRAME_BYTES",
    "HEADER_BYTES",
    "CONVEY_HEADER_BYTES",
    "CTRL_BYE",
    "CTRL_ABORT",
    "MessageKind",
    "Frame",
    "encode_frame",
    "decode_header",
    "decode_frame",
    "convey_kind",
]

MAGIC = b"DS"
PROTOCOL_VERSION = 1
#: Refuse any frame declaring a larger payload than this (configurable on
#: the transport; this is the default cap and the codec's hard ceiling).
DEFAULT_MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct("!2sBBI")
HEADER_BYTES = _HEADER.size

_HELLO = struct.Struct("!16sII")
_ROUND_VALUE = struct.Struct("!IIHI")
_CONVEY = struct.Struct("!IIII")
#: Fixed (src, dst, round, pad_len) prefix of a convey payload — what the
#: transport subtracts from the frame cap when chunking padded batches.
CONVEY_HEADER_BYTES = _CONVEY.size
_SESSION_BYTES = 16

CTRL_BYE = 1
CTRL_ABORT = 2


class MessageKind(IntEnum):
    """Every frame type a DStress peer connection can carry."""

    HELLO = 1  #: versioned handshake (first frame, both directions)
    ROUND_VALUE = 2  #: one §3.6 round message into a destination in-slot
    GMW_BATCH = 3  #: a block's GMW OT-extension batch (padded bytes)
    TRANSFER_AGG = 4  #: a §3.5 transfer's masked subshare words (padded bytes)
    CRYPTO = 5  #: other conveyed protocol bytes (padded)
    CONTROL = 6  #: BYE / ABORT connection control


#: The convey kinds — frames whose payload is real padding standing in
#: for protocol bytes computed at every replica.
_CONVEY_KINDS = frozenset(
    {MessageKind.GMW_BATCH, MessageKind.TRANSFER_AGG, MessageKind.CRYPTO}
)


def convey_kind(kind: str) -> MessageKind:
    """Map a :meth:`~repro.core.transport.Transport.convey_round` kind string
    onto its typed frame kind (unknown strings travel as ``CRYPTO``)."""
    return {
        "ot": MessageKind.GMW_BATCH,
        "transfer": MessageKind.TRANSFER_AGG,
    }.get(kind, MessageKind.CRYPTO)


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame. Which fields are meaningful depends on
    :attr:`kind` (see the module docstring's layout table); unused fields
    keep their defaults so frames compare structurally."""

    kind: MessageKind
    src: int = 0
    dst: int = 0
    in_slot: int = 0
    round_index: int = 0
    value: Any = None
    pad_len: int = 0
    session: bytes = b""
    party_id: int = 0
    num_parties: int = 0
    code: int = 0
    detail: str = ""


# ------------------------------------------------------------ value codec --

_TAG_FLOAT = 0
_TAG_INT64 = 1
_TAG_BIGINT = 2
_TAG_NONE = 3
_TAG_TRUE = 4
_TAG_FALSE = 5

_F64 = struct.Struct("!d")
_I64 = struct.Struct("!q")
_U32 = struct.Struct("!I")
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _encode_value(value: Any) -> bytes:
    if value is None:
        return bytes([_TAG_NONE])
    if value is True:
        return bytes([_TAG_TRUE])
    if value is False:
        return bytes([_TAG_FALSE])
    if type(value) is float:
        return bytes([_TAG_FLOAT]) + _F64.pack(value)
    if type(value) is int:
        if _INT64_MIN <= value <= _INT64_MAX:
            return bytes([_TAG_INT64]) + _I64.pack(value)
        sign = 1 if value < 0 else 0
        magnitude = abs(value).to_bytes((abs(value).bit_length() + 7) // 8, "big")
        return bytes([_TAG_BIGINT, sign]) + _U32.pack(len(magnitude)) + magnitude
    raise WireFormatError(f"cannot encode a {type(value).__name__} as a round value")


def _decode_value(data: bytes, where: str) -> Any:
    if not data:
        raise WireFormatError(f"{where}: empty value encoding")
    tag, body = data[0], data[1:]
    if tag == _TAG_NONE:
        _expect_len(body, 0, where)
        return None
    if tag == _TAG_TRUE:
        _expect_len(body, 0, where)
        return True
    if tag == _TAG_FALSE:
        _expect_len(body, 0, where)
        return False
    if tag == _TAG_FLOAT:
        _expect_len(body, _F64.size, where)
        return _F64.unpack(body)[0]
    if tag == _TAG_INT64:
        _expect_len(body, _I64.size, where)
        return _I64.unpack(body)[0]
    if tag == _TAG_BIGINT:
        if len(body) < 1 + _U32.size:
            raise WireFormatError(f"{where}: truncated bigint value")
        sign = body[0]
        (length,) = _U32.unpack(body[1 : 1 + _U32.size])
        magnitude = body[1 + _U32.size :]
        _expect_len(magnitude, length, where)
        value = int.from_bytes(magnitude, "big")
        return -value if sign else value
    raise WireFormatError(f"{where}: unknown value tag {tag}")


def _expect_len(body: bytes, expected: int, where: str) -> None:
    if len(body) != expected:
        raise WireFormatError(
            f"{where}: value payload holds {len(body)} bytes, expected {expected}"
        )


# ------------------------------------------------------------ frame codec --


def encode_frame(frame: Frame, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame (header + payload), enforcing the size cap."""
    kind = MessageKind(frame.kind)
    if kind is MessageKind.HELLO:
        session = frame.session
        if len(session) != _SESSION_BYTES:
            raise WireFormatError(
                f"HELLO session must be {_SESSION_BYTES} bytes, got {len(session)}"
            )
        payload = _HELLO.pack(session, frame.party_id, frame.num_parties)
    elif kind is MessageKind.ROUND_VALUE:
        payload = _ROUND_VALUE.pack(
            frame.src, frame.dst, frame.in_slot, frame.round_index
        ) + _encode_value(frame.value)
    elif kind in _CONVEY_KINDS:
        if frame.pad_len < 0:
            raise WireFormatError("convey padding length cannot be negative")
        payload = (
            _CONVEY.pack(frame.src, frame.dst, frame.round_index, frame.pad_len)
            + b"\x00" * frame.pad_len
        )
    elif kind is MessageKind.CONTROL:
        payload = bytes([frame.code]) + frame.detail.encode("utf-8")
    else:  # pragma: no cover - MessageKind() above rejects unknown kinds
        raise WireFormatError(f"unencodable frame kind {frame.kind!r}")
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"{kind.name} frame payload of {len(payload)} bytes exceeds the "
            f"{max_frame_bytes}-byte frame cap"
        )
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, int(kind), len(payload)) + payload


def decode_header(
    header: bytes, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> Tuple[MessageKind, int]:
    """Validate the first :data:`HEADER_BYTES` of ``header`` — magic,
    version, kind, declared length against the cap — and return
    ``(kind, payload_length)``. Needs no payload byte, so a stream reader
    refuses a hostile declaration before it reads or buffers for it."""
    if len(header) < HEADER_BYTES:
        raise WireFormatError(
            f"truncated frame: {len(header)} bytes cannot hold the "
            f"{HEADER_BYTES}-byte header"
        )
    magic, version, kind_byte, length = _HEADER.unpack_from(header, 0)
    if magic != MAGIC:
        raise WireFormatError(f"bad magic {bytes(magic)!r}; this is not a DStress frame")
    if version != PROTOCOL_VERSION:
        raise WireFormatError(
            f"unsupported protocol version {version} (this build speaks "
            f"{PROTOCOL_VERSION})"
        )
    try:
        kind = MessageKind(kind_byte)
    except ValueError:
        raise WireFormatError(f"unknown message kind {kind_byte}") from None
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"{kind.name} frame declares a {length}-byte payload, over the "
            f"{max_frame_bytes}-byte frame cap"
        )
    return kind, length


def decode_frame(
    data: bytes,
    offset: int = 0,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> Tuple[Frame, int]:
    """Decode exactly one frame from ``data[offset:]``.

    Returns ``(frame, next_offset)`` where ``next_offset`` is the first
    byte *after* the decoded frame — the decoder never reads past the
    declared length, so trailing bytes (the next frame) are untouched.
    Truncated buffers, garbage headers, unknown kinds/versions, and
    oversized declarations all raise a named
    :class:`~repro.exceptions.WireFormatError`; nothing hangs or
    silently consumes garbage.
    """
    view = memoryview(data)[offset:]
    kind, length = decode_header(view, max_frame_bytes)
    if len(view) < HEADER_BYTES + length:
        raise WireFormatError(
            f"truncated {kind.name} frame: header declares {length} payload "
            f"bytes but only {len(view) - HEADER_BYTES} follow"
        )
    payload = bytes(view[HEADER_BYTES : HEADER_BYTES + length])
    where = f"{kind.name} frame"
    try:
        if kind is MessageKind.HELLO:
            session, party_id, num_parties = _HELLO.unpack(payload)
            frame = Frame(
                kind=kind, session=session, party_id=party_id, num_parties=num_parties
            )
        elif kind is MessageKind.ROUND_VALUE:
            src, dst, in_slot, round_index = _ROUND_VALUE.unpack(
                payload[: _ROUND_VALUE.size]
            )
            value = _decode_value(payload[_ROUND_VALUE.size :], where)
            frame = Frame(
                kind=kind,
                src=src,
                dst=dst,
                in_slot=in_slot,
                round_index=round_index,
                value=value,
            )
        elif kind in _CONVEY_KINDS:
            src, dst, round_index, pad_len = _CONVEY.unpack(payload[: _CONVEY.size])
            if len(payload) - _CONVEY.size != pad_len:
                raise WireFormatError(
                    f"{where}: declares {pad_len} padding bytes but carries "
                    f"{len(payload) - _CONVEY.size}"
                )
            frame = Frame(
                kind=kind, src=src, dst=dst, round_index=round_index, pad_len=pad_len
            )
        elif kind is MessageKind.CONTROL:
            if not payload:
                raise WireFormatError(f"{where}: missing control code")
            frame = Frame(
                kind=kind, code=payload[0], detail=payload[1:].decode("utf-8")
            )
        else:  # pragma: no cover - all kinds handled above
            raise WireFormatError(f"undecodable frame kind {kind!r}")
    except WireFormatError:
        raise
    except Exception as exc:  # struct.error, UnicodeDecodeError, ...
        raise WireFormatError(f"{where}: malformed payload: {exc}") from exc
    return frame, offset + HEADER_BYTES + length
