"""The process launcher: one OS process per party, a real mesh per run.

This is the harness behind the acceptance claim "``secure-async`` runs
genuinely multi-process": :func:`run_scenario_cluster` forks one child
per party (the repo-wide fork policy, see :mod:`repro.api.pool`), each
child binds a :class:`~repro.net.transport.TcpTransport` listener on
port 0 and reports the bound port up a pipe, the parent broadcasts the
assembled peer table, and each child dials the full mesh and runs the
same scenario over its transport instance. Children pass connected
transport *instances* to ``.engine(name, transport=...)`` — the
environment-variable string spec (``transport="tcp"``) exists for
externally-orchestrated deployments; inside one launcher, exchanging
live ports over pipes avoids every port-preassignment race.

Shutdown is a barrier on purpose: a child that finishes reports its
result and then *waits for the parent's shutdown word* before closing
its mesh. Replicated execution means fast parties can finish while slow
ones are still conveying to them, and closing a socket under a peer
still writing manifests as a connection reset at the healthy peer; the
barrier confines clean BYEs to after every run is done. A child that
*fails* closes immediately with ``CTRL_ABORT`` so survivors learn the
real cause — and a child that is killed outright says nothing, which is
exactly the EOF-without-goodbye case the survivors' read loops convert
into :class:`~repro.exceptions.PeerDisconnectedError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Optional, Union

from repro.api.pool import scrub_repro_env
from repro.exceptions import ConfigurationError
from repro.net.peer import PeerAddress
from repro.net.transport import TcpTransport
from repro.obs.export import encode_run_fields

__all__ = ["ClusterOutcome", "ClusterRun", "run_scenario_cluster"]

#: Builds one party's scenario: receives the party id, returns a
#: ``StressTest`` ready for ``.engine(...)`` (program/preset/network set,
#: engine deliberately unset — the harness attaches it with the party's
#: connected transport).
ScenarioBuilder = Callable[[int], Any]


@dataclass
class ClusterOutcome:
    """What one party's process reported back.

    ``status`` is ``"ok"`` (summary holds the released result),
    ``"error"`` (the child raised — ``error_type`` names the exception
    class, so tests can assert a *named* ``TransportError`` surfaced),
    ``"died"`` (the process exited without reporting; ``exit_code`` from
    the OS), or ``"timeout"`` (no report within the harness deadline).
    """

    party_id: int
    status: str
    summary: Optional[Dict[str, Any]] = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    exit_code: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class ClusterRun:
    """Everything that parameterizes one multi-process cluster run."""

    build: ScenarioBuilder
    num_parties: int = 3
    engine: str = "secure-async"
    engine_options: Dict[str, Any] = field(default_factory=dict)
    iterations: Union[int, str] = "auto"
    host: str = "127.0.0.1"
    session: Optional[str] = None
    connect_timeout: float = 10.0
    io_timeout: float = 30.0
    #: Harness deadline for each child's report, seconds.
    timeout: float = 120.0
    #: Chaos: ``{party_id: round_index}`` — those parties hard-exit
    #: (``os._exit(17)``) the first time a convey reaches that round.
    die_at_round: Dict[int, int] = field(default_factory=dict)
    #: When set, each child runs under a :class:`~repro.obs.trace.TraceRecorder`
    #: and writes its run export ``party-<id>.json`` here after its run; the
    #: parent merges the exports into ``timeline.json`` (see :mod:`repro.obs.merge`).
    trace_dir: Optional[str] = None


def _result_summary(result) -> Dict[str, Any]:
    """The bit-comparable essence of a released run result: a key
    projection of its ``dstress.obs.run`` document."""
    return encode_run_fields(
        result,
        ("engine", "aggregate", "pre_noise_aggregate", "noise_raw", "trajectory", "extras"),
    )


def _child_main(run: ClusterRun, party_id: int, conn) -> None:
    """One party: listen, report port, connect the mesh, run, report."""
    # a party takes its configuration from `run` (the mesh arrives over the
    # pipe, not via REPRO_TCP_*), never from the parent's environment
    scrub_repro_env()
    transport: Optional[TcpTransport] = None
    try:
        transport = TcpTransport(
            party_id,
            run.num_parties,
            session=run.session or "dstress-cluster",
            host=run.host,
            connect_timeout=run.connect_timeout,
            io_timeout=run.io_timeout,
        )
        port = transport.listen()
        conn.send(("port", port))
        peer_table = conn.recv()
        transport.connect(
            PeerAddress(pid, host, port) for pid, host, port in peer_table
        )
        if party_id in run.die_at_round:
            transport.die_at_round = run.die_at_round[party_id]
        test = run.build(party_id)
        options = dict(run.engine_options)
        options["transport"] = transport
        summary: Dict[str, Any]
        if run.trace_dir is not None:
            from repro.obs.trace import TraceRecorder, recording

            recorder = TraceRecorder(party=party_id)
            with recording(recorder):
                result = test.engine(run.engine, **options).run(
                    iterations=run.iterations
                )
            # the export is written after the run completes: tracing must
            # never add I/O inside the protocol's round schedule
            shard_path = os.path.join(run.trace_dir, f"party-{party_id}.json")
            with open(shard_path, "w") as handle:
                json.dump(result.export(recorder), handle)
            summary = _result_summary(result)
            summary["trace_shard"] = shard_path
        else:
            result = test.engine(run.engine, **options).run(
                iterations=run.iterations
            )
            summary = _result_summary(result)
        conn.send(("ok", summary))
        # shutdown barrier: hold the mesh open until every party reported,
        # so our clean close cannot reset a slower peer mid-run
        if conn.poll(run.timeout):
            conn.recv()
        transport.close()
        os._exit(0)
    except BaseException as exc:  # noqa: BLE001 - the pipe is the report
        if transport is not None:
            transport.close(error=exc)
        try:
            conn.send(("error", (type(exc).__name__, str(exc))))
        except Exception:
            pass
        os._exit(1)


def _compile_plans(run: ClusterRun) -> None:
    """Compile the run's circuit plans (:meth:`Engine.compile_plans
    <repro.api.engines.Engine.compile_plans>`) in this process, before the
    parties fork: they inherit the plan table copy-on-write instead of
    each recompiling the same circuits. Whatever fails here fails in every
    party too, and a party can report it up its pipe; this prelude cannot."""
    try:
        resolved = run.build(0).engine(run.engine, **run.engine_options).resolve(run.iterations)
        resolved.engine.compile_plans(resolved.program, resolved.graph, resolved.config)
    except Exception:
        pass


def run_scenario_cluster(
    build: ScenarioBuilder,
    *,
    num_parties: int = 3,
    engine: str = "secure-async",
    engine_options: Optional[Dict[str, Any]] = None,
    iterations: Union[int, str] = "auto",
    host: str = "127.0.0.1",
    session: Optional[str] = None,
    connect_timeout: float = 10.0,
    io_timeout: float = 30.0,
    timeout: float = 120.0,
    die_at_round: Optional[Dict[int, int]] = None,
    trace_dir: Optional[str] = None,
) -> List[ClusterOutcome]:
    """Run one scenario across ``num_parties`` real OS processes.

    Returns one :class:`ClusterOutcome` per party, in party order. The
    caller asserts what it cares about — the cluster tests check that
    every ``"ok"`` summary is bit-identical to an in-memory run of the
    same scenario, and that chaos runs surface *named* transport errors
    instead of timing out the harness.

    ``trace_dir`` turns on per-party tracing: each child records spans and
    metrics under a :class:`~repro.obs.trace.TraceRecorder` and writes its
    run export, ``party-<id>.json``, into the directory; after all reports
    are in, the parent merges the exports into ``<trace_dir>/timeline.json``
    (best effort — a partial cluster merges every export that landed and
    checks).

    Children are scrubbed of ``REPRO_*`` environment variables at startup
    (fork inheritance would otherwise hand every child whatever harness
    or server knobs the parent ran under).
    """
    if num_parties < 2:
        raise ConfigurationError("a cluster needs at least two parties")
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    run = ClusterRun(
        build=build,
        num_parties=num_parties,
        engine=engine,
        engine_options=dict(engine_options or {}),
        iterations=iterations,
        host=host,
        session=session or f"dstress-cluster-{os.getpid()}-{os.urandom(4).hex()}",
        connect_timeout=connect_timeout,
        io_timeout=io_timeout,
        timeout=timeout,
        die_at_round=dict(die_at_round or {}),
        trace_dir=trace_dir,
    )
    _compile_plans(run)
    ctx = get_context("fork")
    pipes = []
    procs = []
    for party_id in range(num_parties):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_child_main,
            args=(run, party_id, child_conn),
            name=f"dstress-party-{party_id}",
        )
        proc.start()
        child_conn.close()
        pipes.append(parent_conn)
        procs.append(proc)

    outcomes: List[Optional[ClusterOutcome]] = [None] * num_parties
    try:
        # phase 1: collect bound ports
        ports: List[Optional[int]] = [None] * num_parties
        for party_id, conn in enumerate(pipes):
            message = _recv(conn, connect_timeout)
            if message is None or message[0] != "port":
                outcomes[party_id] = _dead_outcome(
                    party_id, procs[party_id], message
                )
            else:
                ports[party_id] = message[1]
        if any(port is None for port in ports):
            # a party died before binding: nobody can form the mesh
            for party_id in range(num_parties):
                if outcomes[party_id] is None:
                    outcomes[party_id] = ClusterOutcome(
                        party_id,
                        "error",
                        error_type="PeerConnectError",
                        error_message="mesh never formed: a party died "
                        "before binding its listener",
                    )
            return [outcome for outcome in outcomes if outcome is not None]
        # phase 2: broadcast the peer table
        peer_table = [
            (party_id, host, port) for party_id, port in enumerate(ports)
        ]
        for conn in pipes:
            try:
                conn.send(peer_table)
            except (BrokenPipeError, OSError):
                continue
        # phase 3: collect run reports
        for party_id, conn in enumerate(pipes):
            if outcomes[party_id] is not None:
                continue
            message = _recv(conn, timeout)
            if message is None:
                outcomes[party_id] = _dead_outcome(
                    party_id, procs[party_id], None
                )
            elif message[0] == "ok":
                outcomes[party_id] = ClusterOutcome(
                    party_id, "ok", summary=message[1]
                )
            else:
                error_type, error_message = message[1]
                outcomes[party_id] = ClusterOutcome(
                    party_id,
                    "error",
                    error_type=error_type,
                    error_message=error_message,
                )
        # phase 4: release the shutdown barrier
        for conn in pipes:
            try:
                conn.send("shutdown")
            except (BrokenPipeError, OSError):
                continue
    finally:
        for proc in procs:
            proc.join(timeout=connect_timeout)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=connect_timeout)
        for conn in pipes:
            conn.close()
    if trace_dir is not None:
        from repro.obs.merge import merge_cluster_trace

        merge_cluster_trace(trace_dir)
    return [outcome for outcome in outcomes if outcome is not None]


def _recv(conn, timeout: float):
    """One message off a child pipe, or ``None`` if it died / went quiet."""
    try:
        if not conn.poll(timeout):
            return None
        return conn.recv()
    except (EOFError, OSError):
        return None


def _dead_outcome(party_id: int, proc, message) -> ClusterOutcome:
    if message is not None and message[0] == "error":
        error_type, error_message = message[1]
        return ClusterOutcome(
            party_id,
            "error",
            error_type=error_type,
            error_message=error_message,
        )
    proc.join(timeout=0.1)
    if proc.exitcode is not None:
        return ClusterOutcome(party_id, "died", exit_code=proc.exitcode)
    return ClusterOutcome(party_id, "timeout")
