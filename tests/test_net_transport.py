"""TcpTransport over real localhost sockets (threads as parties).

These tests run a genuine mesh — every byte crosses an OS socket — but
host each party in a thread rather than a forked process, so the suite
stays fast; the separate-OS-process acceptance path lives in
``test_net_cluster.py``. The contract under test:

* **bit-identity** — ``engine="async"`` and ``engine="secure-async"``
  over a TCP mesh release exactly what the in-memory bus releases;
* **the sync path** — ``deliver_outboxes`` (sequential engines, the
  sharded barrier) travels the same wire;
* **chaos composition** — :class:`FaultInjectingTransport` wraps a
  ``TcpTransport``, so drop/duplicate chaos works against real sockets;
* **never a hang** — a peer that vanishes (abrupt socket death, no
  goodbye) or stalls surfaces a *named* ``TransportError`` within the
  configured timeout.
"""

import asyncio
import threading
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
    """Count ``bus``'s hops onto its io thread (``_on_io``) next to the
    per-message work they carry (one ``_inner_send`` per edge, one
    ``_inner_convey`` per crypto link)."""
    counts = Counter()
    for name in ("_on_io", "_inner_send", "_inner_convey"):
        original = getattr(bus, name)

        async def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return await _original(*args)

        setattr(bus, name, counted)
    return counts


def _wire_sent(result):
    return result.extras["wire_frames_sent"], result.extras["wire_bytes_sent"]


class TestAsyncEngineBitIdentity:
    def test_three_party_mesh_matches_in_memory(self):
        reference = _template().engine("async").run(iterations=ITERATIONS)
        transports, peers = _mesh(3, "test-async-mesh")
        try:
            results, errors = _run_parties(
                transports,
                peers,
                lambda i, bus: _template()
                .engine("async", transport=bus)
                .run(iterations=ITERATIONS),
            )
        finally:
            _close_all(transports)
        assert errors == [None, None, None]
        for result in results:
            _assert_released_identical(result, reference)
            # real frames moved: every party has genuine wire traffic
            assert result.extras["wire_bytes_sent"] > 0

    def test_wire_carries_only_cross_owner_edges(self):
        """A 1-party 'mesh' owns every vertex: nothing should hit a wire."""
        transport = TcpTransport(0, 1, session="solo")
        transport.listen()
        transport.connect([])
        try:
            result = (
                _template()
                .engine("async", transport=transport)
                .run(iterations=ITERATIONS)
            )
        finally:
            transport.close()
        assert result.extras["wire_bytes_sent"] == 0
        reference = _template().engine("async").run(iterations=ITERATIONS)
        _assert_released_identical(result, reference)

    def test_hops_scale_with_vertex_rounds_not_edges(self):
        """One io-thread hop per vertex-round send and per gather: on a
        graph with three times as many edges as vertices the hops stay
        under the edge count, and the wire carries what it always did."""
        network = apply_shock(
            core_periphery_network(
                CorePeripheryParams(num_banks=8, core_size=3), DeterministicRNG(1)
            ),
            uniform_shock(range(3), 0.9, "core"),
        )
        session = StressTest(network).program("eisenberg-noe").seed(1).engine("async")
        reference = session.run(iterations=ITERATIONS)
        vertex_rounds = 8 * ITERATIONS
        transports, peers = _mesh(2, "test-async-hops")
        counts = [_count_calls(t) for t in transports]
        try:
            results, errors = _run_parties(
                transports,
                peers,
                lambda i, bus: session.clone()
                .engine("async", transport=bus)
                .run(iterations=ITERATIONS),
            )
        finally:
            _close_all(transports)
        assert errors == [None, None]
        for result, count in zip(results, counts):
            _assert_released_identical(result, reference)
            assert count["_inner_send"] == 23 * ITERATIONS  # one per edge-round
            assert count["_on_io"] <= 2 * vertex_rounds < count["_inner_send"]
            assert _wire_sent(result) == (16.0, 496.0)


class TestSecureAsyncBitIdentity:
    def test_two_party_mesh_matches_secure_engine(self):
        """Released bits match the in-memory engine, one io-thread hop
        carries a whole crypto batch (never one per link), and each party
        puts the same frames and bytes on the wire as a hop per link did."""
        reference = _template().engine("secure").run(iterations=ITERATIONS)
        transports, peers = _mesh(2, "test-secure-mesh")
        counts = [_count_calls(t) for t in transports]
        try:
            results, errors = _run_parties(
                transports,
                peers,
                lambda i, bus: _template()
                .engine("secure-async", transport=bus)
                .run(iterations=ITERATIONS),
            )
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
            assert count["_on_io"] == 20  # the run's crypto batches
            assert count["_inner_convey"] == 110  # the links they carry
        assert [_wire_sent(r) for r in results] == [(36.0, 980128.0), (42.0, 982448.0)]


class TestSynchronousPath:
    def test_sharded_engine_routes_rounds_over_tcp(self):
        """deliver_outboxes is the same wire: the sequential round barrier
        crosses real sockets and stays bit-identical. (shards=1 keeps the
        inline path — forking workers from a threaded test is off-limits —
        which is exactly the synchronous deliver_outboxes contract.)"""
        reference = _template().engine("plaintext").run(iterations=ITERATIONS)
        transports, peers = _mesh(2, "test-sync-mesh")
        try:
            results, errors = _run_parties(
                transports,
                peers,
                lambda i, bus: _template()
                .engine("sharded", shards=1, transport=bus)
                .run(iterations=ITERATIONS),
            )
        finally:
            _close_all(transports)
        assert errors == [None, None]
        for result in results:
            _assert_released_identical(result, reference)


class TestFaultInjectionOverTcp:
    def test_drop_chaos_composes_over_real_sockets(self):
        """Every replica wraps its TCP bus with the same drop set; the
        victim's gather raises a named TransportError at every party
        instead of hanging any of them."""
        transports, peers = _mesh(2, "test-fault-mesh", io_timeout=5.0)
        try:
            results, errors = _run_parties(
                transports,
                peers,
                lambda i, bus: _template()
                .engine(
                    "async",
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
        """Party 0 vanishes without a goodbye; party 1 — whose gathers
        genuinely wait on party 0's frames in this graph — surfaces
        PeerDisconnectedError within the io timeout."""
        transports, peers = _mesh(2, "test-death-mesh", io_timeout=3.0)
        run_started = threading.Event()

        def run_one(i, bus):
            if i == 0:
                # connect, then die abruptly: close every socket without
                # BYE — exactly what a SIGKILL'd process looks like
                run_started.wait(timeout=10.0)
                bus._call_io(_slam_shut(bus))
                return "died"
            run_started.set()
            return (
                _template()
                .engine("async", transport=bus)
                .run(iterations=ITERATIONS)
            )

        try:
            results, errors = _run_parties(transports, peers, run_one)
        finally:
            _close_all(transports)
        assert results[0] == "died"
        assert isinstance(errors[1], (PeerDisconnectedError, TransportTimeoutError))
        assert "vertex" in str(errors[1]) and "round" in str(errors[1])

    def test_stalled_mesh_times_out_with_named_error(self):
        """Party 0 connects but never runs: party 1's gathers must raise
        TransportTimeoutError after io_timeout, not wait forever."""
        transports, peers = _mesh(2, "test-stall-mesh", io_timeout=1.5)
        done = threading.Event()

        def run_one(i, bus):
            if i == 0:
                done.wait(timeout=30.0)  # stay connected, send nothing
                return "stalled"
            try:
                return (
                    _template()
                    .engine("async", transport=bus)
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
        assert check_transport_spec("socket") == "socket"

    def test_unknown_spec_error_lists_tcp(self):
        with pytest.raises(ConfigurationError, match="tcp"):
            check_transport_spec("carrier-pigeon")

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
            _template().engine("async", transport=transport).run(
                iterations=ITERATIONS
            )
            with pytest.raises(ConfigurationError, match="one execution"):
                _template().engine("async", transport=transport).run(
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
