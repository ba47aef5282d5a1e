"""Peer connections: dialing the mesh, handshakes, failure mapping.

This layer owns everything between "a list of (party, host, port)
addresses" and "an established, version-checked stream": dialing with
retry and exponential backoff under a connect deadline, the HELLO
handshake in both directions, and — crucially — the mapping of every
socket failure mode onto the named
:class:`~repro.exceptions.TransportError` taxonomy, so the transport
above never sees a raw ``OSError`` and never hangs on a dead peer:

* connect refused / unreachable / timed out after retries →
  :class:`~repro.exceptions.PeerConnectError`
* connection reset, broken pipe, EOF mid-frame →
  :class:`~repro.exceptions.PeerDisconnectedError`
* read deadline exceeded on a live connection →
  :class:`~repro.exceptions.TransportTimeoutError`
* frame-level garbage → :class:`~repro.exceptions.WireFormatError`
  (raised by the codec, passed through here)
* HELLO version/session/party mismatch, an undecodable HELLO →
  :class:`~repro.exceptions.HandshakeError`
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import (
    HandshakeError,
    PeerConnectError,
    PeerDisconnectedError,
    TransportTimeoutError,
    WireFormatError,
)
from repro.net.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    Frame,
    MessageKind,
    decode_frame,
    decode_header,
    encode_frame,
)

__all__ = ["PeerAddress", "read_frame", "write_frame", "dial_peer", "expect_hello"]


@dataclass(frozen=True)
class PeerAddress:
    """One party's listening endpoint in the mesh."""

    party_id: int
    host: str
    port: int

    def __str__(self) -> str:
        return f"party {self.party_id} ({self.host}:{self.port})"


async def read_frame(
    reader: asyncio.StreamReader,
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    timeout: Optional[float] = None,
    where: str = "peer",
) -> Tuple[Frame, int]:
    """Read exactly one frame, mapping every failure to the taxonomy;
    returns it with the bytes it took on the wire.

    Reads the fixed header first and validates it alone — magic, version,
    kind, declared length against the cap — so garbage and an oversized
    declaration are refused at eight bytes, before a payload byte is read
    or buffered for, and the payload read never runs into the next frame.
    Distinguishes a clean EOF *between* frames (``PeerDisconnectedError``
    naming a closed connection) from an EOF *mid-frame* (a partial read —
    the connection died while a frame was in flight).
    """

    async def _read() -> Tuple[Frame, int]:
        header = await reader.readexactly(HEADER_BYTES)
        _, length = decode_header(header, max_frame_bytes)
        payload = await reader.readexactly(length) if length else b""
        return decode_frame(header + payload, max_frame_bytes=max_frame_bytes)

    try:
        if timeout is not None:
            return await asyncio.wait_for(_read(), timeout)
        return await _read()
    except asyncio.TimeoutError:
        raise TransportTimeoutError(
            f"{where}: no frame within the {timeout:g}s read timeout"
        ) from None
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise PeerDisconnectedError(
                f"{where}: connection closed mid-frame (EOF after "
                f"{len(exc.partial)} of {exc.expected} bytes)"
            ) from None
        raise PeerDisconnectedError(f"{where}: connection closed (EOF)") from None
    except (ConnectionResetError, BrokenPipeError) as exc:
        raise PeerDisconnectedError(f"{where}: connection reset: {exc}") from exc


def write_frame(
    writer: asyncio.StreamWriter,
    frame: Frame,
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    where: str = "peer",
) -> int:
    """Serialize and buffer one frame; returns the bytes written.

    Buffering never blocks; callers that need pacing await
    ``writer.drain()`` themselves (mapped by the transport). A closed
    writer raises :class:`PeerDisconnectedError` immediately.
    """
    if writer.is_closing():
        raise PeerDisconnectedError(f"{where}: connection already closed")
    data = encode_frame(frame, max_frame_bytes=max_frame_bytes)
    try:
        writer.write(data)
    except (ConnectionResetError, BrokenPipeError, OSError) as exc:
        raise PeerDisconnectedError(f"{where}: write failed: {exc}") from exc
    return len(data)


def check_hello(
    frame: Frame,
    *,
    session: bytes,
    num_parties: int,
    where: str,
) -> int:
    """Validate a received HELLO against this mesh; returns the party id."""
    if frame.kind is not MessageKind.HELLO:
        raise HandshakeError(
            f"{where}: expected HELLO, got {MessageKind(frame.kind).name}"
        )
    if frame.session != session:
        raise HandshakeError(
            f"{where}: session mismatch (two clusters crossing wires?)"
        )
    if frame.num_parties != num_parties:
        raise HandshakeError(
            f"{where}: peer announces a {frame.num_parties}-party mesh, "
            f"this side expects {num_parties}"
        )
    if not 0 <= frame.party_id < num_parties:
        raise HandshakeError(
            f"{where}: party id {frame.party_id} outside the "
            f"{num_parties}-party mesh"
        )
    return frame.party_id


async def expect_hello(
    reader: asyncio.StreamReader,
    *,
    session: bytes,
    num_parties: int,
    timeout: float,
    max_frame_bytes: int,
    where: str,
) -> int:
    """Read and validate the first frame of a connection (the HELLO).

    A frame this build cannot decode is a failed handshake: a peer of
    another protocol version is refused here, before any run starts.
    """
    try:
        frame, _ = await read_frame(
            reader, max_frame_bytes=max_frame_bytes, timeout=timeout, where=where
        )
    except WireFormatError as exc:
        raise HandshakeError(f"{where}: handshake failed: {exc}") from exc
    return check_hello(
        frame, session=session, num_parties=num_parties, where=where
    )


async def dial_peer(
    address: PeerAddress,
    *,
    my_party: int,
    session: bytes,
    num_parties: int,
    connect_timeout: float,
    retry_backoff: float,
    max_frame_bytes: int,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Dial one peer with retry+backoff, then handshake both ways.

    The retry loop exists because mesh startup is racy by construction:
    every party dials every other while they are all still binding their
    listeners, so the first attempts routinely hit connection-refused.
    Attempts back off exponentially (``retry_backoff * 2^n``, capped)
    until ``connect_timeout`` is spent, then raise
    :class:`PeerConnectError` naming the peer and the attempt count.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + connect_timeout
    attempt = 0
    last_error: Optional[BaseException] = None
    while True:
        remaining = deadline - loop.time()
        if remaining <= 0:
            raise PeerConnectError(
                f"could not connect to {address} within {connect_timeout:g}s "
                f"({attempt} attempts; last error: {last_error})"
            )
        attempt += 1
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(address.host, address.port),
                timeout=remaining,
            )
            break
        except asyncio.TimeoutError:
            last_error = TimeoutError("connect timed out")
        except OSError as exc:  # refused, unreachable, reset during accept
            last_error = exc
        await asyncio.sleep(min(retry_backoff * (2 ** min(attempt, 8)), 1.0))
    try:
        write_frame(
            writer,
            Frame(
                kind=MessageKind.HELLO,
                session=session,
                party_id=my_party,
                num_parties=num_parties,
            ),
            max_frame_bytes=max_frame_bytes,
            where=str(address),
        )
        await writer.drain()
        peer_id = await expect_hello(
            reader,
            session=session,
            num_parties=num_parties,
            timeout=max(deadline - loop.time(), 0.1),
            max_frame_bytes=max_frame_bytes,
            where=str(address),
        )
        if peer_id != address.party_id:
            raise HandshakeError(
                f"{address}: answered as party {peer_id}, expected "
                f"{address.party_id} — peer table and mesh disagree"
            )
    except BaseException:
        writer.close()
        raise
    return reader, writer
