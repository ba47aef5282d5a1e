"""TcpTransport over real localhost sockets (threads as parties).

These tests run a genuine mesh — every byte crosses an OS socket — but
host each party in a thread rather than a forked process, so the suite
stays fast; the separate-OS-process acceptance path lives in
``test_net_cluster.py``. The contract under test:

* **bit-identity** — ``engine="plaintext"`` and ``engine="secure"``
  over a TCP mesh release exactly what the in-memory bus releases, from
  a plain thread or from inside a running event loop;
* **one submission per window** — a run hands each release window to
  the bus's io loop once (:meth:`TcpTransport.run`), so its ``round``
  spans nest under the caller's ``run`` span;
* **the window edge** — the resume step of a windowed run conveys its
  round on the same wire, and a window returns only once the bytes its
  peers convey to it are in;
* **chaos composition** — :class:`FaultInjectingTransport` wraps a
  ``TcpTransport``, so drop/duplicate chaos works against real sockets;
* **never a hang** — a peer that vanishes (abrupt socket death, no
  goodbye) or stalls surfaces a *named* ``TransportError`` within the
  configured timeout.
"""

import asyncio
import struct
import threading
import time
from collections import Counter

import pytest

from repro import StressTest
from repro.core.transport import (
    FaultInjectingTransport,
    check_transport_spec,
    innermost_transport,
)
from repro.exceptions import (
    ConfigurationError,
    HandshakeError,
    PeerDisconnectedError,
    TransportError,
    TransportTimeoutError,
)
from repro.crypto.rng import DeterministicRNG
from repro.finance import Bank, FinancialNetwork, apply_shock, uniform_shock
from repro.graphgen import CorePeripheryParams, core_periphery_network
from repro.net.peer import PeerAddress, dial_peer
from repro.net.transport import ENV_PARTY, ENV_PEERS, TcpTransport, session_id
from repro.net.wire import MAGIC, PROTOCOL_VERSION, MessageKind
from repro.obs.trace import TraceRecorder, recording

ITERATIONS = 2
IO_TIMEOUT = 10.0


def _network() -> FinancialNetwork:
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=2.0))
    net.add_bank(Bank(1, cash=1.0))
    net.add_bank(Bank(2, cash=1.0))
    net.add_bank(Bank(3, cash=0.5))
    net.add_debt(0, 1, 4.0)
    net.add_debt(0, 2, 2.0)
    net.add_debt(1, 3, 3.0)
    net.add_debt(2, 3, 1.0)
    return net


def _template():
    return (
        StressTest(_network())
        .program("eisenberg-noe")
        .preset("demo")
        .degree_bound(2)
    )


def _mesh(num_parties, session, io_timeout=IO_TIMEOUT):
    transports = [
        TcpTransport(i, num_parties, session=session, io_timeout=io_timeout)
        for i in range(num_parties)
    ]
    peers = [
        PeerAddress(i, "127.0.0.1", t.listen()) for i, t in enumerate(transports)
    ]
    return transports, peers


def _run_parties(transports, peers, run_one, join_timeout=60.0):
    """Each party in its own thread: connect the mesh, run, report."""
    results = [None] * len(transports)
    errors = [None] * len(transports)

    def party(i):
        try:
            transports[i].connect(peers)
            results[i] = run_one(i, transports[i])
        except BaseException as exc:  # noqa: BLE001 - reported to the test
            errors[i] = exc

    threads = [
        threading.Thread(target=party, args=(i,), daemon=True)
        for i in range(len(transports))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=join_timeout)
    hung = [i for i, thread in enumerate(threads) if thread.is_alive()]
    assert not hung, f"parties {hung} hung past the test deadline"
    return results, errors


def _close_all(transports):
    for transport in transports:
        transport.close()


def _assert_released_identical(summary, reference):
    assert summary.aggregate == reference.aggregate
    assert summary.trajectory == reference.trajectory


def _count_calls(bus):
    """Count ``bus``'s submissions to its io loop (``run``, one per
    window) next to the per-link work they carry (one ``_convey`` per
    link of every batch). Install it after the mesh is connected:
    ``connect`` is a submission of its own."""
    counts = Counter()
    original_run = bus.run

    def run(coro):
        counts["run"] += 1
        return original_run(coro)

    bus.run = run
    original = bus._convey

    async def counted(*args):
        counts["_convey"] += 1
        return await original(*args)

    bus._convey = counted
    return counts


def _wire_sent(result):
    return result.extras["wire_frames_sent"], result.extras["wire_bytes_sent"]


class TestPlaintextBitIdentity:
    def test_three_party_mesh_matches_in_memory(self):
        reference = _template().engine("plaintext").run(iterations=ITERATIONS)
        transports, peers = _mesh(3, "test-async-mesh")
        try:
            results, errors = _run_parties(
                transports,
                peers,
                lambda i, bus: _template()
                .engine("plaintext", transport=bus)
                .run(iterations=ITERATIONS),
            )
        finally:
            _close_all(transports)
        assert errors == [None, None, None]
        for result in results:
            _assert_released_identical(result, reference)
            # real frames moved: every party has genuine wire traffic
            assert result.extras["wire_bytes_sent"] > 0

    def test_a_run_started_inside_a_running_loop_matches_in_memory(self):
        """Each party calls the synchronous ``run`` from inside an event
        loop of its own (a notebook kernel's situation): the window goes
        to the bus's io loop all the same, and every party releases what
        the in-memory bus does."""
        reference = _template().engine("plaintext").run(iterations=ITERATIONS)
        transports, peers = _mesh(2, "test-async-in-loop")

        def run_one(i, bus):
            async def inside_a_loop():
                return _template().engine("plaintext", transport=bus).run(iterations=ITERATIONS)

            return asyncio.run(inside_a_loop())

        try:
            results, errors = _run_parties(transports, peers, run_one)
        finally:
            _close_all(transports)
        assert errors == [None, None]
        for result in results:
            _assert_released_identical(result, reference)
        # party 0 owns the sources of both cross-owner edges
        assert [result.extras["wire_frames_sent"] > 0 for result in results] == [True, False]

    def test_wire_carries_only_cross_owner_edges(self):
        """A 1-party 'mesh' owns every vertex: nothing should hit a wire."""
        transport = TcpTransport(0, 1, session="solo")
        transport.listen()
        transport.connect([])
        try:
            result = (
                _template()
                .engine("plaintext", transport=transport)
                .run(iterations=ITERATIONS)
            )
        finally:
            transport.close()
        assert result.extras["wire_bytes_sent"] == 0
        reference = _template().engine("plaintext").run(iterations=ITERATIONS)
        _assert_released_identical(result, reference)

    def test_one_io_submission_per_run_one_convey_per_edge(self, monkeypatch):
        """The whole one-shot run is one submission to each party's io
        loop, however many edges it routes (three times as many as
        vertices here): one convey per edge-round inside it, no other
        crossing onto the io thread, and one padding frame per
        cross-owner edge-round on the wire: a 16-byte convey header and
        the 2-byte word, no value."""
        network = apply_shock(
            core_periphery_network(
                CorePeripheryParams(num_banks=8, core_size=3), DeterministicRNG(1)
            ),
            uniform_shock(range(3), 0.9, "core"),
        )
        session = StressTest(network).program("eisenberg-noe").seed(1).engine("plaintext")
        reference = session.run(iterations=ITERATIONS)
        transports, peers = _mesh(2, "test-async-hops")
        counts = [None, None]
        crossings = Counter()
        submit = asyncio.run_coroutine_threadsafe

        def counted_submit(coro, loop):
            crossings[loop] += 1
            return submit(coro, loop)

        monkeypatch.setattr(asyncio, "run_coroutine_threadsafe", counted_submit)

        def run_one(i, bus):
            counts[i] = _count_calls(bus)
            return session.clone().engine("plaintext", transport=bus).run(iterations=ITERATIONS)

        try:
            results, errors = _run_parties(transports, peers, run_one)
            per_party = [crossings[bus._loop] for bus in transports]
        finally:
            _close_all(transports)
        assert errors == [None, None]
        assert per_party == [2, 2]  # connect, then the one window
        for result, count in zip(results, counts):
            _assert_released_identical(result, reference)
            assert count["_convey"] == 23 * ITERATIONS  # one per edge-round
            assert count["run"] == 1  # the one window
            assert _wire_sent(result) == (16.0, 16 * (8 + 16 + 2))


class TestSecureAsyncBitIdentity:
    def test_two_party_mesh_matches_secure_engine(self):
        """Released bits match the in-memory engine, one io-loop
        submission carries the whole run (every crypto batch and link of
        it), and each party puts the frames and bytes on the wire it
        always did."""
        reference = _template().engine("secure").run(iterations=ITERATIONS)
        transports, peers = _mesh(2, "test-secure-mesh")
        counts = [None, None]

        def run_one(i, bus):
            counts[i] = _count_calls(bus)
            return _template().engine("secure", transport=bus).run(iterations=ITERATIONS)

        try:
            results, errors = _run_parties(transports, peers, run_one)
        finally:
            _close_all(transports)
        assert errors == [None, None]
        for result in results:
            assert result.aggregate == reference.aggregate
            assert result.pre_noise_aggregate == reference.pre_noise_aggregate
            assert result.noise_raw == reference.noise_raw
            assert result.trajectory == reference.trajectory
            # the OT batches genuinely travelled: megabytes, not frames
            assert result.extras["wire_bytes_sent"] > 1000
        for count in counts:
            assert count["run"] == 1  # the one window
            assert count["_convey"] == 110  # the links its batches carry
        # the same frames as ever; a transfer's words are L-bit pads now,
        # not L + 1 group elements per subshare
        assert [_wire_sent(r) for r in results] == [(36.0, 259160.0), (42.0, 259336.0)]


    def test_a_window_ends_with_its_inbound_crypto_bytes_in(self):
        """Party 1 starts late, so party 0's replica finishes its crypto
        first; party 0's window still returns only after party 1's
        batches reached it: each party's received bytes are exactly what
        the other sent, and so are its wire counts."""
        transports, peers = _mesh(2, "test-secure-settle")

        def run_one(i, bus):
            if i == 1:
                time.sleep(0.5)
            return _template().engine("secure", transport=bus).run(iterations=ITERATIONS)

        try:
            results, errors = _run_parties(transports, peers, run_one)
        finally:
            _close_all(transports)
        assert errors == [None, None]
        received = [r.extras["wire_bytes_received"] for r in results]
        sent = [r.extras["wire_bytes_sent"] for r in results]
        assert received == sent[::-1] and min(received) > 0

    def test_traced_round_spans_descend_from_their_run_span(self):
        """Both parties trace into one recorder: each party's window runs
        on its bus's io loop, yet every ``round`` span it records descends
        from that party's own ``run`` span, and the released bits are
        the untraced ones."""
        reference = _template().engine("secure").run(iterations=ITERATIONS)
        transports, peers = _mesh(2, "test-secure-trace")
        recorder = TraceRecorder()
        try:
            with recording(recorder):
                results, errors = _run_parties(
                    transports,
                    peers,
                    lambda i, bus: _template()
                    .engine("secure", transport=bus)
                    .run(iterations=ITERATIONS),
                )
        finally:
            _close_all(transports)
        assert errors == [None, None]
        for result in results:
            assert result.noise_raw == reference.noise_raw
            assert result.trajectory == reference.trajectory
        spans = {span.span_id: span for span in recorder.spans}

        def run_span_of(span):
            while span.parent_id is not None:
                span = spans[span.parent_id]
            return span

        runs = [span for span in recorder.spans if span.name == "run"]
        rounds = [span for span in recorder.spans if span.name == "round"]
        assert len(runs) == 2
        assert all(run.parent_id is None for run in runs)
        per_run = Counter(run_span_of(span).span_id for span in rounds)
        # every computation step plus the final one, under each party's run
        assert per_run == {run.span_id: ITERATIONS + 1 for run in runs}


class TestWindowEdge:
    """The resume step at a window edge: the step the previous window
    left pending, on the bus the first window opened."""

    def test_windowed_async_resumes_over_tcp(self):
        """The step that resumes a windowed run is one convey carrying
        every edge, on bus round 1, across real sockets; every window
        releases what the in-memory run does."""
        windowed = {"release": "windowed", "windows": [1, 1]}
        reference = _template().engine("plaintext", **windowed).run(iterations=ITERATIONS)
        edges = _network().to_en_graph(2).num_edges
        transports, peers = _mesh(2, "test-window-mesh")
        resumes = Counter()
        for party, bus in enumerate(transports):

            async def convey(round_index, kind, links, _party=party,
                             _original=bus.convey_round):
                if round_index == 1:
                    resumes[_party] += len(links)
                await _original(round_index, kind, links)

            bus.convey_round = convey
        counts = [None, None]

        def run_one(i, bus):
            counts[i] = _count_calls(bus)
            return _template().engine("plaintext", transport=bus, **windowed).run(
                iterations=ITERATIONS
            )

        try:
            results, errors = _run_parties(transports, peers, run_one)
        finally:
            _close_all(transports)
        assert errors == [None, None]
        assert resumes == {0: edges, 1: edges}  # one convey, every edge
        assert [count["run"] for count in counts] == [2, 2]  # one per window
        for result in results:
            _assert_released_identical(result, reference)
            assert result.releases == reference.releases

    @pytest.mark.parametrize(
        "windows", [[1, 2], [2, 1], [1, 1, 1]], ids=["1-2", "2-1", "1-1-1"]
    )
    def test_every_window_split_resumes_over_tcp(self, windows):
        windowed = {"release": "windowed", "windows": windows}
        iterations = sum(windows)
        reference = _template().engine("plaintext", **windowed).run(iterations=iterations)
        transports, peers = _mesh(2, "test-window-splits")
        try:
            results, errors = _run_parties(
                transports,
                peers,
                lambda i, bus: _template()
                .engine("plaintext", transport=bus, **windowed)
                .run(iterations=iterations),
            )
        finally:
            _close_all(transports)
        assert errors == [None, None]
        for result in results:
            _assert_released_identical(result, reference)
            assert result.releases == reference.releases

    def test_a_slow_party_never_sees_the_next_window_early(self):
        """Party 1 parks its round-0 convey while party 0 runs ahead into
        the resume step: party 0's round-1 bytes reach party 1 before its
        first window settles, yet each window settles and every party
        releases what the in-memory run does, and each party received
        exactly the bytes the other sent."""
        windowed = {"release": "windowed", "windows": [1, 1]}
        reference = _template().engine("plaintext", **windowed).run(iterations=ITERATIONS)
        transports, peers = _mesh(2, "test-window-slow")
        slow = transports[1]

        async def convey(round_index, kind, links, _original=slow.convey_round):
            if round_index == 0:
                await asyncio.sleep(0.2)
            await _original(round_index, kind, links)

        slow.convey_round = convey
        try:
            results, errors = _run_parties(
                transports,
                peers,
                lambda i, bus: _template()
                .engine("plaintext", transport=bus, **windowed)
                .run(iterations=ITERATIONS),
            )
        finally:
            _close_all(transports)
        assert errors == [None, None]
        for result in results:
            _assert_released_identical(result, reference)
            assert result.releases == reference.releases
        received = [r.extras["wire_bytes_received"] for r in results]
        sent = [r.extras["wire_bytes_sent"] for r in results]
        assert received == sent[::-1] and max(received) > 0


class TestFaultInjectionOverTcp:
    def test_drop_chaos_composes_over_real_sockets(self):
        """Every replica wraps its TCP bus with the same drop set; the
        dropped link's step raises a named TransportError at every party
        instead of hanging any of them."""
        transports, peers = _mesh(2, "test-fault-mesh", io_timeout=5.0)
        try:
            results, errors = _run_parties(
                transports,
                peers,
                lambda i, bus: _template()
                .engine(
                    "plaintext",
                    transport=FaultInjectingTransport(
                        drop={(1, 3, 1)}, inner=bus
                    ),
                )
                .run(iterations=ITERATIONS),
            )
        finally:
            _close_all(transports)
        assert results == [None, None]
        for error in errors:
            assert isinstance(error, TransportError)
            assert "dropped" in str(error)

    def test_wrapper_unwraps_for_metering(self):
        bus = TcpTransport(0, 1, session="unwrap")
        wrapper = FaultInjectingTransport(inner=bus)
        try:
            assert innermost_transport(wrapper) is bus
        finally:
            bus.close()


class TestFailureModes:
    def test_abrupt_peer_death_raises_named_error_not_hang(self):
        """Party 0 vanishes without a goodbye; party 1 — whose window
        genuinely waits on the bytes party 0 owes it in this graph —
        surfaces PeerDisconnectedError within the io timeout."""
        transports, peers = _mesh(2, "test-death-mesh", io_timeout=3.0)
        run_started = threading.Event()

        def run_one(i, bus):
            if i == 0:
                # connect, then die abruptly: close every socket without
                # BYE — exactly what a SIGKILL'd process looks like
                run_started.wait(timeout=10.0)
                bus.run(_slam_shut(bus))
                return "died"
            run_started.set()
            return (
                _template()
                .engine("plaintext", transport=bus)
                .run(iterations=ITERATIONS)
            )

        try:
            results, errors = _run_parties(transports, peers, run_one)
        finally:
            _close_all(transports)
        assert results[0] == "died"
        assert isinstance(errors[1], (PeerDisconnectedError, TransportTimeoutError))
        # two cross-owner edges x two rounds x one 2-byte word
        assert "still owed 8 conveyed bytes by party 0" in str(errors[1])

    def test_stalled_mesh_times_out_with_named_error(self):
        """Party 0 connects but never runs: party 1's window, owed party
        0's bytes, must raise TransportTimeoutError after io_timeout, not
        wait forever."""
        transports, peers = _mesh(2, "test-stall-mesh", io_timeout=1.5)
        done = threading.Event()

        def run_one(i, bus):
            if i == 0:
                done.wait(timeout=30.0)  # stay connected, send nothing
                return "stalled"
            try:
                return (
                    _template()
                    .engine("plaintext", transport=bus)
                    .run(iterations=ITERATIONS)
                )
            finally:
                done.set()
        try:
            results, errors = _run_parties(transports, peers, run_one)
        finally:
            _close_all(transports)
        assert results[0] == "stalled"
        assert isinstance(errors[1], TransportTimeoutError)

    def test_session_mismatch_is_a_handshake_error(self):
        listener = TcpTransport(0, 2, session="alpha")
        port = listener.listen()

        async def dial_with_wrong_session():
            return await dial_peer(
                PeerAddress(0, "127.0.0.1", port),
                my_party=1,
                session=session_id("beta"),
                num_parties=2,
                connect_timeout=5.0,
                retry_backoff=0.05,
                max_frame_bytes=1 << 20,
            )

        try:
            with pytest.raises(HandshakeError, match="session mismatch"):
                asyncio.run(dial_with_wrong_session())
        finally:
            listener.close()

    def test_a_peer_of_the_previous_protocol_version_fails_at_hello(self):
        """Version 2 retired the round-value frame: a version-1 peer's
        HELLO is refused at the handshake, before any run starts."""
        session = session_id("old-build")

        hung_up = []

        async def old_peer(reader, writer):
            payload = struct.pack("!16sII", session, 0, 2)
            header = struct.pack("!2sBBI", MAGIC, 1, int(MessageKind.HELLO), len(payload))
            writer.write(header + payload)
            await writer.drain()
            await reader.read()  # until the dialer hangs up
            writer.close()
            await writer.wait_closed()
            hung_up[0].set()

        async def dial_an_old_peer():
            hung_up.append(asyncio.Event())
            server = await asyncio.start_server(old_peer, "127.0.0.1", 0)
            try:
                return await dial_peer(
                    PeerAddress(0, "127.0.0.1", server.sockets[0].getsockname()[1]),
                    my_party=1,
                    session=session,
                    num_parties=2,
                    connect_timeout=5.0,
                    retry_backoff=0.05,
                    max_frame_bytes=1 << 20,
                )
            finally:
                await asyncio.wait_for(hung_up[0].wait(), 5.0)
                server.close()
                await server.wait_closed()

        assert PROTOCOL_VERSION == 2
        with pytest.raises(HandshakeError, match="unsupported protocol version 1"):
            asyncio.run(dial_an_old_peer())

    def test_a_listener_refuses_a_dialer_of_the_previous_protocol_version(self):
        listener = TcpTransport(0, 2, session="old-build", connect_timeout=5.0)
        port = listener.listen()

        async def dial_as_an_old_build():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            payload = struct.pack("!16sII", session_id("old-build"), 1, 2)
            header = struct.pack("!2sBBI", MAGIC, 1, int(MessageKind.HELLO), len(payload))
            writer.write(header + payload)
            await writer.drain()
            await reader.read()  # until the listener hangs up
            writer.close()
            await writer.wait_closed()

        try:
            asyncio.run(asyncio.wait_for(dial_as_an_old_build(), 10.0))
            [error] = listener._handshake_errors
        finally:
            listener.close()
        assert isinstance(error, HandshakeError)
        assert "unsupported protocol version 1" in str(error)

    def test_a_fast_peer_never_settles_a_slow_peers_bytes(self):
        """The receive barrier counts per peer: party 1 has already sent
        8 bytes (a window ahead), party 2 none of its 4, so the window
        waits on party 2 and names it, though 8 of the 8 bytes owed in
        total have arrived."""
        bus = TcpTransport(0, 3, session="per-peer", io_timeout=0.3)
        try:
            bus._owed.update({1: 4, 2: 4})
            bus._arrived.update({1: 8})
            with pytest.raises(
                TransportTimeoutError, match=r"still owed 4 conveyed bytes by party 2 after"
            ):
                bus.run(asyncio.sleep(0))
        finally:
            bus.close()

    def test_unreachable_peer_is_a_connect_error(self):
        transport = TcpTransport(
            0, 2, session="nowhere", connect_timeout=0.5, retry_backoff=0.05
        )
        transport.listen()
        try:
            from repro.exceptions import PeerConnectError

            with pytest.raises(PeerConnectError, match="could not connect"):
                # a port from the dynamic range nobody is listening on
                transport.connect([PeerAddress(1, "127.0.0.1", 1)])
        finally:
            transport.close()


class TestSpecAndEnv:
    def test_tcp_is_a_known_spec(self):
        assert check_transport_spec("tcp") == "tcp"

    def test_unknown_spec_error_lists_tcp(self):
        with pytest.raises(ConfigurationError, match="known transports: memory, tcp, wan$"):
            check_transport_spec("socket")

    def test_from_env_requires_the_mesh_description(self):
        with pytest.raises(ConfigurationError, match=ENV_PARTY):
            TcpTransport.from_env(env={})

    def test_from_env_rejects_malformed_peers(self):
        with pytest.raises(ConfigurationError, match="host:port"):
            TcpTransport.from_env(
                env={ENV_PARTY: "0", ENV_PEERS: "localhost;9000"}
            )

    def test_from_env_rejects_party_outside_mesh(self):
        with pytest.raises(ConfigurationError, match="outside"):
            TcpTransport.from_env(
                env={ENV_PARTY: "7", ENV_PEERS: "127.0.0.1:9000,127.0.0.1:9001"}
            )

    def test_single_execution_contract(self):
        transport = TcpTransport(0, 1, session="once")
        transport.listen()
        transport.connect([])
        try:
            _template().engine("plaintext", transport=transport).run(
                iterations=ITERATIONS
            )
            with pytest.raises(ConfigurationError, match="one execution"):
                _template().engine("plaintext", transport=transport).run(
                    iterations=ITERATIONS
                )
        finally:
            transport.close()


async def _slam_shut(bus):
    """Close every socket of ``bus`` with no goodbye (simulated SIGKILL)."""
    for writer in bus._all_writers:
        writer.close()
    if bus._server is not None:
        bus._server.close()
