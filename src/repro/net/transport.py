""":class:`TcpTransport` — the full Transport protocol over real sockets.

Execution model: **deterministic replication**. Every party process runs
the complete engine with identical seeds, so every replica computes every
payload; what distinguishes the parties is *ownership*. Each vertex is
owned by one party (``sorted_rank(vertex_id) % num_parties``), and the
wire carries exactly one frame per cross-owner edge per round: the owner
of the source vertex sends, the owner of the destination vertex fills
that in-slot **only** from the received frame (its local replica of the
send is suppressed), and every other replica delivers locally. The
secure engine's transcript is globally sequential (every
:class:`~repro.crypto.rng.DeterministicRNG` fork consumes parent
stream), so partitioning the *computation* would break bit-identity with
the in-memory engines; replicating it keeps the transcript intact while
the owners' payloads genuinely travel TCP — and since replicas are
deterministic, the wire value always equals the local one, which is
precisely the bit-identity claim the cluster tests assert.

Crypto conveys follow the same rule: only ``owner(src)`` puts the padded
byte volume on the wire (chunked under the frame cap, sender awaiting
``drain()`` so egress pays real kernel backpressure); the receiving read
loop counts the bytes, and no replica blocks on them — the *values* were
already computed everywhere.

Threading model: the transport owns one background asyncio loop in a
daemon thread. Every public entry point bridges onto it —
``run_coroutine_threadsafe`` wrapped back into the caller's loop for the
async methods, ``.result()`` for the sync ones — so all mailbox and
connection state is mutated on exactly one thread, and the engine's own
event loop (created per ``asyncio.run``) never touches a socket. A hop
is paid per protocol call, not per message: one :meth:`send_round`
carries a vertex's whole round (its frames written in out-slot order),
one :meth:`convey_round` a whole crypto batch (in link order), and one
:meth:`gather_round` a vertex's barrier — so the hops a run makes scale
with vertex-rounds and batches, never with edges or links.

Failure model: a read loop that hits EOF/ECONNRESET without a prior BYE
marks the peer failed and sets a transport-wide failure event; every
round gather races its mailbox barrier against that event *and* the
configured ``io_timeout``, so a killed peer surfaces as a named
:class:`~repro.exceptions.PeerDisconnectedError` (or
:class:`~repro.exceptions.TransportTimeoutError`) within the timeout —
never a hang. A clean BYE instead marks the peer *departed*: its run is
complete (it could not have finished while still owing us frames), so
later sends to it are suppressed rather than failed.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

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
from repro.simulation.netsim import TrafficMeter

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
    no run id, so reusing a connected mesh across runs could leak one
    run's round-0 frames into the previous run's mailboxes.
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
        meter: Optional[TrafficMeter] = None,
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
        self.meter = meter if meter is not None else TrafficMeter()
        #: Chaos hook: ``os._exit(17)`` the whole process the first time a
        #: delivery or convey reaches this round — how the kill-a-peer tests die
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
        self._run_started: Optional[asyncio.Event] = None
        self._failure: Optional[asyncio.Event] = None
        self._failure_error: Optional[TransportError] = None
        self._peer_failure: Dict[int, TransportError] = {}
        self._departed: Set[int] = set()
        self._handshake_errors: List[TransportError] = []
        self._owner: Dict[int, int] = {}
        self._sync_round = 0
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
            self._run_started = asyncio.Event()
            self._failure = asyncio.Event()
            if self.num_parties <= 1:
                self._inbound_ready.set()
            self._thread = threading.Thread(
                target=self._loop.run_forever,
                name=f"tcp-transport-party{self.party_id}",
                daemon=True,
            )
            self._thread.start()
        return self._loop

    def _call_io(self, coro, timeout: Optional[float] = None):
        """Run ``coro`` on the io loop from synchronous code."""
        future = asyncio.run_coroutine_threadsafe(coro, self._ensure_loop())
        return future.result(timeout)

    async def _on_io(self, coro):
        """Run ``coro`` on the io loop from the engine's event loop."""
        return await asyncio.wrap_future(
            asyncio.run_coroutine_threadsafe(coro, self._ensure_loop())
        )

    def listen(self) -> int:
        """Bind the listener (port 0 picks a free one); returns the port."""
        self.port = self._call_io(self._inner_listen(), timeout=self.connect_timeout)
        return self.port

    async def _inner_listen(self) -> int:
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
        self._call_io(self._inner_connect(others))

    async def _inner_connect(self, others: Sequence[PeerAddress]) -> None:
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
        meter: Optional[TrafficMeter] = None,
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
            meter=meter,
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
                self._inner_close(error), loop
            ).result(timeout=self.connect_timeout)
        except Exception:
            pass  # best-effort goodbye; the loop is coming down regardless
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=self.connect_timeout)
        if not thread.is_alive():
            loop.close()

    async def _inner_close(self, error: Optional[BaseException]) -> None:
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
        if frame.kind is MessageKind.ROUND_VALUE:
            if not self._run_started.is_set():
                # mesh startup skew: a fast peer's round-0 frames can land
                # before this party's engine has open()ed its mailboxes —
                # hold the connection (TCP buffers behind it) until then
                await self._run_started.wait()
            try:
                self._deliver(
                    frame.src,
                    frame.dst,
                    frame.in_slot,
                    frame.value,
                    frame.round_index,
                )
            except TransportError as exc:  # duplicate delivery off the wire
                self._mark_peer_failed(pid, exc)
        elif frame.kind is MessageKind.CONTROL:
            if frame.code == CTRL_BYE:
                self._departed.add(pid)
            elif frame.code == CTRL_ABORT:
                self._mark_peer_failed(
                    pid,
                    PeerDisconnectedError(
                        f"party {pid} aborted its run: {frame.detail}"
                    ),
                )
        # convey kinds carry only padding: counted above, nothing to route

    def _mark_peer_failed(self, pid: int, error: TransportError) -> None:
        self._peer_failure.setdefault(pid, error)
        if self._failure_error is None:
            self._failure_error = error
        self._failure.set()

    # ----------------------------------------------------- Transport: sync --

    def open(self, graph, fill) -> None:
        self._call_io(self._inner_open(graph, fill), timeout=self.io_timeout)

    async def _inner_open(self, graph, fill) -> None:
        if self._opened:
            raise ConfigurationError(
                "a TcpTransport serves one execution; build a fresh mesh "
                "per run (frames carry no run id)"
            )
        Transport.open(self, graph, fill)
        self._owner = {
            vid: rank % self.num_parties
            for rank, vid in enumerate(graph.vertex_ids)
        }
        self._sync_round = 0
        self._opened = True
        self._run_started.set()

    def deliver_outboxes(self, graph, outboxes, fill):
        """The synchronous full-round path, over the same wire machinery.

        One call is one round (engines open the bus per run, so the round
        counter starts at this run's zero): every edge goes through the
        frame writer ``send_round`` uses — cross-owner edges genuinely
        travel TCP — and
        every vertex's inbox is gathered with the same failure/timeout
        protection the async engines get.
        """
        return self._call_io(self._inner_round(graph, outboxes, fill))

    async def _inner_round(self, graph, outboxes, fill):
        if not self._opened:
            raise ConfigurationError(
                "TcpTransport.deliver_outboxes needs open() first — every "
                "engine opens its bus at the start of the run"
            )
        round_index = self._sync_round
        self._sync_round += 1
        for src, out_slot, dst, in_slot in graph.routes():
            await self._inner_send(src, dst, in_slot, outboxes[src][out_slot], round_index)
        inboxes = {}
        for vid in graph.vertex_ids:
            inboxes[vid] = await Transport.gather_round(self, vid, round_index)
        return inboxes

    # ---------------------------------------------------- Transport: async --

    async def send_round(self, src, round_index, deliveries):
        await self._on_io(self._inner_send_round(src, round_index, deliveries))

    async def gather_round(self, vertex_id, round_index):
        return await self._on_io(
            Transport.gather_round(self, vertex_id, round_index)
        )

    async def convey_round(self, round_index, kind, links):
        await self._on_io(self._inner_convey_round(round_index, kind, links))

    async def fault_delivery(self, src, dst, in_slot, round_index, description):
        await self._on_io(
            self._inner_fault(src, dst, in_slot, round_index, description)
        )

    async def _inner_fault(self, src, dst, in_slot, round_index, description):
        # chaos is replicated like everything else: every party's wrapper
        # drops the same delivery, so each replica accounts it locally and
        # no wire frame is sent (the wrapper left it out of the batch)
        self._fault((dst, round_index), description)

    def _maybe_die(self, round_index: int) -> None:
        if self.die_at_round is not None and round_index >= self.die_at_round:
            os._exit(17)

    async def _inner_send_round(self, src, round_index, deliveries):
        for dst, in_slot, payload in deliveries:
            await self._inner_send(src, dst, in_slot, payload, round_index)

    async def _inner_convey_round(self, round_index, kind, links):
        for src, dst, num_bytes in links:
            await self._inner_convey(src, dst, num_bytes, round_index, kind)

    async def _inner_send(self, src, dst, in_slot, payload, round_index):
        self._maybe_die(round_index)
        me = self.party_id
        src_owner = self._owner[src]
        dst_owner = self._owner[dst]
        if src_owner == me and dst_owner != me:
            await self._write_to(
                dst_owner,
                Frame(
                    kind=MessageKind.ROUND_VALUE,
                    src=src,
                    dst=dst,
                    in_slot=in_slot,
                    round_index=round_index,
                    value=payload,
                ),
            )
        if not (dst_owner == me and src_owner != me):
            # everyone delivers their replica locally, EXCEPT the owner of
            # a cross-owner destination: that slot fills only off the wire
            self._deliver(src, dst, in_slot, payload, round_index)

    async def _inner_convey(self, src, dst, num_bytes, round_index, kind):
        self._maybe_die(round_index)
        me = self.party_id
        dst_owner = self._owner[dst]
        if self._owner[src] != me or dst_owner == me:
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
        self.meter.record_send(frame.src, frame.dst, float(num_bytes))
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

    async def _await_round(self, key: Tuple[int, int]) -> None:
        """The round barrier, raced against peer failure and the timeout.

        This is the never-hang guarantee: the wait resolves when the
        mailbox completes, raises the failure cause when a peer died, and
        raises :class:`TransportTimeoutError` when ``io_timeout`` passes
        with neither — a completed round always wins over a concurrent
        failure, because its frames all arrived.
        """
        vertex_id, round_index = key
        event = self._event(key)
        if event.is_set():
            return
        waiters = [
            asyncio.ensure_future(event.wait()),
            asyncio.ensure_future(self._failure.wait()),
        ]
        try:
            done, _pending = await asyncio.wait(
                waiters,
                timeout=self.io_timeout,
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            for waiter in waiters:
                waiter.cancel()
        if event.is_set():
            return
        if waiters[1] in done:
            cause = self._failure_error
            raise type(cause)(
                f"round {round_index}: vertex {vertex_id} cannot complete "
                f"its gather: {cause}"
            )
        raise TransportTimeoutError(
            f"round {round_index}: vertex {vertex_id} gather still "
            f"incomplete after {self.io_timeout:g}s (no peer failure "
            "detected — mesh stalled?)"
        )

    # ------------------------------------------------------------ metering --

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
