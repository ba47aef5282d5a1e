""":class:`TcpTransport` — the Transport protocol over real sockets.

Execution model: **deterministic replication**. Every party process runs
the complete engine with identical seeds, so every replica computes every
value; what distinguishes the parties is *ownership*. Each vertex is
owned by one party (``sorted_rank(vertex_id) % num_parties``), and a
convey puts a link's bytes on the wire exactly once: only the owner of
the source vertex sends them, as padding frames of the link's byte
volume (chunked under the frame cap, the sender awaiting ``drain()`` so
egress pays real kernel backpressure), and only when the destination's
owner is another party. No replica waits on a value — every one already
computed it — so the wire carries byte volume, never values, and a wire
hop cannot break bit-identity with the in-memory bus. The secure
engine's transcript is globally sequential (every
:class:`~repro.crypto.rng.DeterministicRNG` fork consumes parent
stream), so partitioning the *computation* would break that identity;
replicating it keeps the transcript intact while the owners' bytes
genuinely travel TCP.

Threading model: the transport owns one asyncio loop in a daemon io
thread, where its sockets, read loops and byte counts live. An engine
hands each release window's whole coroutine to that loop with one
:meth:`TcpTransport.run` (``run_coroutine_threadsafe(...).result()``), so
every :meth:`~TcpTransport.convey_round` — and the chaos wrapper's
faults — already runs on the thread that owns the state it touches, and
a window costs exactly one crossing however many links it carries. The
io loop keeps reading peers' frames between windows and after this
party's run, so a peer still sending to a party that has finished never
stalls its ``drain()`` on a reader that stopped.

Failure model: a window returns only once every byte the replicated
schedule so far routes to this party has arrived, counted per peer
(:meth:`TcpTransport._settled`, the one receive barrier). That wait races
the peers' failure event and ``io_timeout``: a read loop that hits
EOF/ECONNRESET without a prior BYE, or refuses a malformed frame, marks
its peer failed, so a killed peer surfaces as a named
:class:`~repro.exceptions.PeerDisconnectedError` (a stalled one as
:class:`~repro.exceptions.TransportTimeoutError`) within the timeout —
never a hang. A clean BYE instead marks the peer *departed*: its run is
complete (it could not have finished while still owing us bytes), so
later sends to it are suppressed rather than failed.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import threading
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.core.transport import Transport
from repro.exceptions import (
    ConfigurationError,
    HandshakeError,
    PeerConnectError,
    PeerDisconnectedError,
    TransportError,
    TransportTimeoutError,
)
from repro.net.peer import PeerAddress, dial_peer, expect_hello, read_frame, write_frame
from repro.net.wire import (
    CONVEY_HEADER_BYTES,
    CTRL_ABORT,
    CTRL_BYE,
    DEFAULT_MAX_FRAME_BYTES,
    HEADER_BYTES,
    Frame,
    MessageKind,
    convey_kind,
)

__all__ = ["TcpTransport", "session_id"]

#: Environment variables the ``transport="tcp"`` string spec reads.
ENV_PARTY = "REPRO_TCP_PARTY"
ENV_PEERS = "REPRO_TCP_PEERS"
ENV_SESSION = "REPRO_TCP_SESSION"


def session_id(token: Union[str, bytes]) -> bytes:
    """Derive the 16-byte wire session id from a human-readable token.

    Already-sized byte strings pass through, so callers can also supply
    raw ``os.urandom(16)`` material directly.
    """
    if isinstance(token, bytes):
        if len(token) == 16:
            return token
        return hashlib.sha256(token).digest()[:16]
    return hashlib.sha256(token.encode("utf-8")).digest()[:16]


class TcpTransport(Transport):
    """Real-socket bus: framed TCP streams between genuine peer processes.

    One instance is one party's endpoint in an ``num_parties``-way mesh
    and serves **one execution**: :meth:`listen` → :meth:`connect` (or
    :meth:`start` / :meth:`from_env` for the preassigned-port path), one
    engine run, :meth:`close`. Build a fresh mesh per run — frames carry
    no run id, so reusing a connected mesh across runs could count one
    run's bytes toward another run's receive barrier.
    """

    name = "tcp"

    def __init__(
        self,
        party_id: int,
        num_parties: int,
        *,
        session: Union[str, bytes] = "dstress",
        host: str = "127.0.0.1",
        port: int = 0,
        connect_timeout: float = 10.0,
        io_timeout: float = 30.0,
        retry_backoff: float = 0.05,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        chunk_bytes: int = 1 << 20,
    ) -> None:
        if num_parties < 1:
            raise ConfigurationError("a TCP mesh needs at least one party")
        if not 0 <= party_id < num_parties:
            raise ConfigurationError(
                f"party id {party_id} outside the {num_parties}-party mesh"
            )
        if connect_timeout <= 0 or io_timeout <= 0:
            raise ConfigurationError("transport timeouts must be positive")
        if chunk_bytes < 1:
            raise ConfigurationError("convey chunk size must be positive")
        if max_frame_bytes <= HEADER_BYTES + CONVEY_HEADER_BYTES:
            raise ConfigurationError("frame cap too small to carry any payload")
        self.party_id = party_id
        self.num_parties = num_parties
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.io_timeout = io_timeout
        self.retry_backoff = retry_backoff
        self.max_frame_bytes = max_frame_bytes
        self.chunk_bytes = min(
            chunk_bytes, max_frame_bytes - CONVEY_HEADER_BYTES
        )
        #: Chaos hook: ``os._exit(17)`` the whole process the first time a
        #: convey reaches this round — how the kill-a-peer tests die
        #: mid-round without cooperation from the engine above.
        self.die_at_round: Optional[int] = None

        self._session = session_id(session)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._all_writers: List[asyncio.StreamWriter] = []
        self._tasks: Set[asyncio.Task] = set()
        self._inbound_ids: Set[int] = set()
        self._inbound_ready: Optional[asyncio.Event] = None
        self._failure: Optional[asyncio.Event] = None
        self._failure_error: Optional[TransportError] = None
        self._peer_failure: Dict[int, TransportError] = {}
        self._departed: Set[int] = set()
        self._handshake_errors: List[TransportError] = []
        self._owner: Dict[int, int] = {}
        #: conveyed bytes each peer owes this party under the replicated
        #: schedule, and what of them has arrived (see :meth:`_settled`)
        self._owed: Counter = Counter()
        self._arrived: Counter = Counter()
        self._arrival: Optional[asyncio.Event] = None
        self._opened = False
        self._closed = False
        self._stats: Dict[str, float] = {
            "frames_sent": 0.0,
            "frames_received": 0.0,
            "bytes_sent": 0.0,
            "bytes_received": 0.0,
            "sends_suppressed": 0.0,
        }

    # ------------------------------------------------------------ lifecycle --

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._closed:
            raise ConfigurationError("this TcpTransport has been closed")
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
            # the mesh-wide coordination events must belong to the io loop
            self._inbound_ready = asyncio.Event()
            self._failure = asyncio.Event()
            self._arrival = asyncio.Event()
            if self.num_parties <= 1:
                self._inbound_ready.set()
            self._thread = threading.Thread(
                target=self._loop.run_forever,
                name=f"tcp-transport-party{self.party_id}",
                daemon=True,
            )
            self._thread.start()
        return self._loop

    def run(self, coro):
        """Run ``coro`` to completion on the io loop, from any other thread.

        One submission carries a whole release window, so the engine's
        protocol calls run where the sockets and byte counts live. The
        submission copies the caller's context, so the window's ``round``
        spans nest under the caller's ``run`` span. The window returns
        only once its inbound conveyed bytes are in (:meth:`_settled`). If
        the wait is interrupted, the window is cancelled on the io loop.
        """
        future = asyncio.run_coroutine_threadsafe(self._settled(coro), self._ensure_loop())
        try:
            return future.result()
        except BaseException:
            future.cancel()
            raise

    async def _settled(self, coro):
        """Run ``coro``, then wait until every conveyed byte the replicated
        schedule so far routes to this party has arrived from each peer.

        The one receive barrier: a party whose replica finished first would
        otherwise end its window, and report its wire counts, before a
        slower peer's bytes reached it. Counting per peer keeps a fast
        peer's early bytes of a later window from standing in for a slow
        peer's missing ones. The wait is raced against peer failure and
        ``io_timeout``: never a hang.
        """
        result = await coro
        while self._still_owed():
            self._arrival.clear()
            waiters = [
                asyncio.ensure_future(self._arrival.wait()),
                asyncio.ensure_future(self._failure.wait()),
            ]
            try:
                done, _pending = await asyncio.wait(
                    waiters, timeout=self.io_timeout, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                for waiter in waiters:
                    waiter.cancel()
            owed = self._still_owed()
            if not owed:
                break
            where = f"party {self.party_id}: still owed {owed}"
            if waiters[1] in done:
                cause = self._failure_error
                raise type(cause)(f"{where}: {cause}")
            if not done:
                raise TransportTimeoutError(
                    f"{where} after {self.io_timeout:g}s "
                    "(no peer failure detected — mesh stalled?)"
                )
        return result

    def _still_owed(self) -> str:
        """The conveyed bytes still owed, by peer (empty when none)."""
        return ", ".join(
            f"{owed - self._arrived[pid]} conveyed bytes by party {pid}"
            for pid, owed in sorted(self._owed.items())
            if self._arrived[pid] < owed
        )

    def listen(self) -> int:
        """Bind the listener (port 0 picks a free one); returns the port."""
        self.port = self.run(asyncio.wait_for(self._bind(), self.connect_timeout))
        return self.port

    async def _bind(self) -> int:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        return self._server.sockets[0].getsockname()[1]

    def connect(self, peers: Iterable[PeerAddress]) -> None:
        """Dial every other party and wait for the full inbound mesh.

        ``peers`` may include this party's own address (ignored); it must
        cover every other party exactly once.
        """
        others = sorted(
            (p for p in peers if p.party_id != self.party_id),
            key=lambda p: p.party_id,
        )
        expected = set(range(self.num_parties)) - {self.party_id}
        if {p.party_id for p in others} != expected:
            raise ConfigurationError(
                f"peer table {sorted(p.party_id for p in others)} does not "
                f"cover parties {sorted(expected)}"
            )
        self.run(self._dial_mesh(others))

    async def _dial_mesh(self, others: Sequence[PeerAddress]) -> None:
        outcomes = await asyncio.gather(
            *(
                dial_peer(
                    address,
                    my_party=self.party_id,
                    session=self._session,
                    num_parties=self.num_parties,
                    connect_timeout=self.connect_timeout,
                    retry_backoff=self.retry_backoff,
                    max_frame_bytes=self.max_frame_bytes,
                )
                for address in others
            ),
            return_exceptions=True,
        )
        failure = next(
            (o for o in outcomes if isinstance(o, BaseException)), None
        )
        if failure is not None:
            for outcome in outcomes:
                if not isinstance(outcome, BaseException):
                    outcome[1].close()
            raise failure
        for address, outcome in zip(others, outcomes):
            reader, writer = outcome
            self._writers[address.party_id] = writer
            self._all_writers.append(writer)
            # the peer sends its data frames on the connection *it*
            # dialed; this reader exists to notice its death promptly
            self._spawn_read_loop(
                reader,
                address.party_id,
                f"party {self.party_id} -> {address}",
            )
        try:
            await asyncio.wait_for(
                self._inbound_ready.wait(), self.connect_timeout
            )
        except asyncio.TimeoutError:
            if self._handshake_errors:
                raise self._handshake_errors[0] from None
            missing = sorted(
                set(range(self.num_parties))
                - {self.party_id}
                - self._inbound_ids
            )
            raise PeerConnectError(
                f"parties {missing} never completed the inbound handshake "
                f"within {self.connect_timeout:g}s"
            ) from None

    def start(self, peers: Iterable[PeerAddress]) -> None:
        """Listen on this party's preassigned port, then dial the mesh."""
        self.listen()
        self.connect(peers)

    @classmethod
    def from_env(
        cls,
        config=None,
        env: Optional[Dict[str, str]] = None,
    ) -> "TcpTransport":
        """Build and fully connect a transport from the environment.

        This is the ``transport="tcp"`` string spec: each party process
        sets ``REPRO_TCP_PARTY`` (its index), ``REPRO_TCP_PEERS``
        (comma-separated ``host:port`` list, index = party id) and
        optionally ``REPRO_TCP_SESSION`` (shared token), and the engine's
        resolve step blocks here until the mesh is up. ``config`` is
        accepted for registry-signature compatibility; the mesh shape
        comes from the environment, not the run config.
        """
        environ = os.environ if env is None else env
        party_raw = environ.get(ENV_PARTY)
        peers_raw = environ.get(ENV_PEERS)
        if party_raw is None or peers_raw is None:
            raise ConfigurationError(
                'transport="tcp" needs the mesh described in the '
                f"environment: {ENV_PARTY}=<this party's index> and "
                f"{ENV_PEERS}=<host:port,host:port,...> (index = party id); "
                f"optionally {ENV_SESSION}=<shared session token>. For "
                "programmatic meshes pass a connected TcpTransport instance "
                "instead (see repro.net.cluster)."
            )
        addresses: List[PeerAddress] = []
        for index, entry in enumerate(peers_raw.split(",")):
            host, _, port_text = entry.strip().rpartition(":")
            if not host or not port_text.isdigit():
                raise ConfigurationError(
                    f"{ENV_PEERS} entry {entry!r} is not host:port"
                )
            addresses.append(PeerAddress(index, host, int(port_text)))
        try:
            party = int(party_raw)
        except ValueError:
            raise ConfigurationError(
                f"{ENV_PARTY} must be an integer, got {party_raw!r}"
            ) from None
        if not 0 <= party < len(addresses):
            raise ConfigurationError(
                f"{ENV_PARTY}={party} outside the {len(addresses)}-party "
                f"mesh described by {ENV_PEERS}"
            )
        mine = addresses[party]
        transport = cls(
            party,
            len(addresses),
            session=environ.get(ENV_SESSION, "dstress"),
            host=mine.host,
            port=mine.port,
        )
        transport.start(addresses)
        return transport

    def close(self, error: Optional[BaseException] = None) -> None:
        """Tear the mesh down (idempotent).

        A clean close says goodbye (``CTRL_BYE``) so peers mark this party
        departed; ``error`` switches that to ``CTRL_ABORT`` carrying the
        error text, so survivors fail fast with the real cause instead of
        waiting out their timeouts.
        """
        if self._closed:
            return
        self._closed = True
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._say_goodbye(error), loop
            ).result(timeout=self.connect_timeout)
        except Exception:
            pass  # best-effort goodbye; the loop is coming down regardless
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=self.connect_timeout)
        if not thread.is_alive():
            loop.close()

    async def _say_goodbye(self, error: Optional[BaseException]) -> None:
        goodbye = Frame(
            kind=MessageKind.CONTROL,
            code=CTRL_ABORT if error is not None else CTRL_BYE,
            detail="" if error is None else f"{type(error).__name__}: {error}",
        )
        for pid, writer in list(self._writers.items()):
            if pid in self._departed or pid in self._peer_failure:
                continue
            try:
                write_frame(writer, goodbye, max_frame_bytes=self.max_frame_bytes)
                await asyncio.wait_for(writer.drain(), timeout=1.0)
            except Exception:
                continue
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for writer in self._all_writers:
            try:
                writer.close()
            except Exception:
                continue

    # --------------------------------------------------------- read loops --

    def _spawn_read_loop(
        self, reader: asyncio.StreamReader, pid: int, label: str
    ) -> None:
        task = self._loop.create_task(self._read_loop(reader, pid, label))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Accept one inbound connection: HELLO both ways, then read."""
        label = f"party {self.party_id} (inbound)"
        self._all_writers.append(writer)
        try:
            write_frame(
                writer,
                Frame(
                    kind=MessageKind.HELLO,
                    session=self._session,
                    party_id=self.party_id,
                    num_parties=self.num_parties,
                ),
                max_frame_bytes=self.max_frame_bytes,
                where=label,
            )
            await asyncio.wait_for(writer.drain(), self.connect_timeout)
            pid = await expect_hello(
                reader,
                session=self._session,
                num_parties=self.num_parties,
                timeout=self.connect_timeout,
                max_frame_bytes=self.max_frame_bytes,
                where=label,
            )
            if pid == self.party_id:
                raise HandshakeError(
                    f"{label}: a connection claims to be this party"
                )
            if pid in self._inbound_ids:
                raise HandshakeError(
                    f"{label}: duplicate inbound connection from party {pid}"
                )
        except asyncio.TimeoutError:
            writer.close()
            return
        except TransportError as exc:
            self._handshake_errors.append(
                exc
                if isinstance(exc, HandshakeError)
                else HandshakeError(f"{label}: handshake failed: {exc}")
            )
            writer.close()
            return
        self._inbound_ids.add(pid)
        if len(self._inbound_ids) >= self.num_parties - 1:
            self._inbound_ready.set()
        await self._read_loop(
            reader, pid, f"party {self.party_id} <- party {pid}"
        )

    async def _read_loop(
        self, reader: asyncio.StreamReader, pid: int, label: str
    ) -> None:
        try:
            while True:
                frame, wire_bytes = await read_frame(
                    reader, max_frame_bytes=self.max_frame_bytes, where=label
                )
                await self._handle_frame(frame, wire_bytes, pid)
        except asyncio.CancelledError:
            raise
        except PeerDisconnectedError as exc:
            if self._closed or pid in self._departed:
                return  # their goodbye (or our shutdown) already explained it
            self._mark_peer_failed(pid, exc)
        except TransportError as exc:  # wire garbage, oversized frame, ...
            self._mark_peer_failed(pid, exc)

    async def _handle_frame(self, frame: Frame, wire_bytes: int, pid: int) -> None:
        self._stats["frames_received"] += 1
        self._stats["bytes_received"] += wire_bytes
        if frame.kind is MessageKind.CONTROL:
            if frame.code == CTRL_BYE:
                self._departed.add(pid)
            elif frame.code == CTRL_ABORT:
                self._mark_peer_failed(
                    pid,
                    PeerDisconnectedError(
                        f"party {pid} aborted its run: {frame.detail}"
                    ),
                )
        else:  # convey kinds carry only padding: nothing to route
            self._arrived[pid] += frame.pad_len
            self._arrival.set()

    def _mark_peer_failed(self, pid: int, error: TransportError) -> None:
        self._peer_failure.setdefault(pid, error)
        if self._failure_error is None:
            self._failure_error = error
        self._failure.set()

    # ----------------------------------------------------- Transport: open --

    def open(self, graph) -> None:
        if self._opened:
            raise ConfigurationError(
                "a TcpTransport serves one execution; build a fresh mesh "
                "per run (frames carry no run id)"
            )
        self._ensure_loop()
        self._owner = {
            vid: rank % self.num_parties
            for rank, vid in enumerate(graph.vertex_ids)
        }
        self._opened = True

    # ------------------------------------------------- Transport: conveys --

    def _maybe_die(self, round_index: int) -> None:
        if self.die_at_round is not None and round_index >= self.die_at_round:
            os._exit(17)

    async def convey_round(self, round_index, kind, links):
        for src, dst, num_bytes in links:
            await self._convey(src, dst, num_bytes, round_index, kind)

    async def _convey(self, src, dst, num_bytes, round_index, kind):
        self._maybe_die(round_index)
        me = self.party_id
        dst_owner = self._owner[dst]
        src_owner = self._owner[src]
        if src_owner != me:
            if dst_owner == me:  # a peer's to send: owed, settled at window end
                self._owed[src_owner] += max(0, math.ceil(num_bytes))
            return
        if dst_owner == me:
            return  # only the source owner pays the wire; replicas compute
        remaining = max(0, math.ceil(num_bytes))
        frame_kind = convey_kind(kind)
        while True:
            pad = min(remaining, self.chunk_bytes)
            await self._write_to(
                dst_owner,
                Frame(
                    kind=frame_kind,
                    src=src,
                    dst=dst,
                    round_index=round_index,
                    pad_len=pad,
                ),
            )
            remaining -= pad
            if remaining <= 0:
                break

    async def _write_to(self, pid: int, frame: Frame) -> None:
        """One real frame onto the wire to ``pid``, sender-paced.

        ``write()`` is synchronous (the frame lands in the buffer
        atomically, so concurrent senders interleave whole frames, never
        bytes), then ``drain()`` is awaited under the io timeout — egress
        pays genuine TCP backpressure, which is what makes the measured
        wall-clock comparable to the netsim projection.
        """
        link = f"round {frame.round_index}: delivery {frame.src}->{frame.dst}"
        failed = self._peer_failure.get(pid)
        if failed is not None:
            raise PeerDisconnectedError(
                f"{link} cannot reach party {pid}: {failed}"
            )
        if pid in self._departed:
            # a clean BYE means the peer's run is complete — it cannot
            # have finished while still owing us anything, so late egress
            # to it (end-of-run skew) is suppressed, not failed
            self._stats["sends_suppressed"] += 1
            return
        writer = self._writers.get(pid)
        if writer is None:
            raise PeerDisconnectedError(
                f"{link}: no connection to party {pid} (connect the mesh "
                "before running)"
            )
        num_bytes = write_frame(
            writer,
            frame,
            max_frame_bytes=self.max_frame_bytes,
            where=f"party {self.party_id} -> party {pid}",
        )
        self._stats["frames_sent"] += 1
        self._stats["bytes_sent"] += num_bytes
        try:
            await asyncio.wait_for(writer.drain(), self.io_timeout)
        except asyncio.TimeoutError:
            raise TransportTimeoutError(
                f"{link}: party {pid} did not drain within "
                f"{self.io_timeout:g}s"
            ) from None
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            raise PeerDisconnectedError(
                f"{link}: connection to party {pid} died mid-write: {exc}"
            ) from exc

    # --------------------------------------------------------- wire stats --

    def wire_stats(self) -> Dict[str, float]:
        """A snapshot of real wire activity (frames/bytes actually moved)."""
        stats = dict(self._stats)
        stats["party_id"] = float(self.party_id)
        stats["num_parties"] = float(self.num_parties)
        stats["peers_connected"] = float(len(self._writers))
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpTransport party={self.party_id}/{self.num_parties} "
            f"{self.host}:{self.port}>"
        )
