"""The async engine: per-vertex asyncio pipelines over a transport bus.

The real DStress deployment is message-passing over a WAN where rounds
are dominated by transfer I/O, not local compute (§6). The clear engines
execute rounds in one process — route, barrier, repeat — so nothing
overlaps communication with computation. This backend runs each vertex
as an asyncio task over a :class:`~repro.core.transport.Transport`:
a vertex computes its next round as soon as *its own* inbox completes,
while slow links' deliveries are still in flight elsewhere. The schedule
itself lives in :func:`repro.core.rounds.run_rounds_async`; the state it
advances is a :class:`~repro.core.rounds.RoundLoop` with the same float
arithmetic and initial state as the ``plaintext`` engine's, kept per
vertex (``plaintext_loop(..., pipelines=True)``): each pipeline steps
its vertex with ``float_update``, the row ``plaintext`` computes in one
numpy pass.

Engine options (all reachable through the registry and batch scenarios)::

    StressTest(net).program("en").engine("async", tasks=8).run()
    .engine("async", transport="wan")          # simulated WAN delays
    .engine("async", transport=my_transport)   # any Transport instance

Under the default :class:`~repro.core.transport.InMemoryTransport` the
result is bit-identical to ``engine="plaintext"`` at every ``tasks``
level — asserted by the cross-engine parity matrix. Under
:class:`~repro.core.transport.SimulatedWanTransport` the payloads are
unchanged (still bit-identical) but wall-clock reflects the link
schedule, and the bus's delay and byte totals for the run land in
``extras["simulated_seconds"]`` / ``extras["wan_bytes"]``. On every bus
``result.traffic`` is the protocol's per-link bytes
(:func:`~repro.simulation.netsim.meter_from_rounds`), never the bus's.

All vertex tasks share the parent process, so nothing is pickled per
round. Nor is there a Task per message: a vertex hands its whole round
to the bus in one :meth:`~repro.core.transport.Transport.send_round`
call, which the in-memory bus delivers inline — the only Tasks are the
vertex pipelines.
``tests/test_async_overlap.py`` holds both numbers to account: the Task
count, and the overlapped run's wall-clock against the link delays its
WAN bus accounted.

Like every backend the engine executes through the shared run lifecycle,
with the bus lifecycle it shares with ``secure-async`` (:class:`BusCore`):
the bus is opened once at setup, and each window is one
:meth:`~repro.core.rounds.RoundLoop.advance_async` coroutine handed to
:meth:`~repro.core.transport.Transport.run` — a fresh event loop for the
in-process buses, the io loop of a TCP mesh. Under ``release="windowed"``
a window resumes the previous one's pending outboxes through the shared
resumption contract — sent on the bus as the round they belong to, like
every other round.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.api.engines import Engine, _PlaintextCore
from repro.api.registry import register_engine
from repro.api.result import RunResult
from repro.core.lifecycle import ReleasePolicy, RunState, run_lifecycle
from repro.core.transport import (
    Transport,
    attach_bus_extras,
    check_transport_spec,
    transport_from_spec,
    wan_totals,
)
from repro.exceptions import ConfigurationError

__all__ = ["AsyncEngine", "BusCore", "BusEngine"]


class BusCore:
    """The bus lifecycle of the engines that route rounds over a
    :class:`~repro.core.transport.Transport` (``async``, ``secure-async``),
    mixed in ahead of the in-process core whose stages it wraps.

    Setup resolves the engine's transport spec, snapshots the bus's WAN
    totals and opens it once for the whole execution; each window hands
    its coroutine to the bus's :meth:`~repro.core.transport.Transport.run`
    once; finalize stamps what the bus saw onto the result and closes an
    engine-owned bus.
    """

    #: The value of an in-slot no message fills (``None``: the secure
    #: engine conveys bytes, never round values).
    fill = None
    bus: Optional[Transport] = None

    def setup(self, state: RunState) -> None:
        self.bus = transport_from_spec(self.engine.transport, self.config)
        # A caller-supplied Transport instance may be reused across runs;
        # snapshot its totals so the extras below report *this* run.
        self.before = wan_totals(self.bus)
        super().setup(state)
        self.bus.open(self.graph, self.fill)

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        result.extras["tasks"] = float(self.engine.tasks)
        attach_bus_extras(result, self.bus, self.before)
        self.close()
        return result

    def close(self, error: Optional[BaseException] = None) -> None:
        """Tear down an engine-owned bus (a "tcp" spec owns sockets and an
        io thread); a caller-supplied instance stays open — its mesh may
        span further runs."""
        if self.bus is not None and self.bus is not self.engine.transport:
            self.bus.close(error=error)
            self.bus = None


class BusEngine(Engine):
    """What the bus engines share: the ``tasks`` and ``transport``
    options, and a run that closes its engine-owned bus however it ends.

    ``tasks`` bounds how much work interleaves on the bus; ``transport``
    picks it (``"memory"``, ``"wan"``, ``"tcp"``, or a
    :class:`~repro.core.transport.Transport` instance).
    """

    #: The :class:`BusCore` a run drives.
    core: type

    def __init__(
        self,
        tasks: int = 4,
        transport: Union[str, Transport] = "memory",
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        # a positive int (``bool`` is not)
        if isinstance(tasks, bool) or not isinstance(tasks, int) or tasks < 1:
            raise ConfigurationError(
                f"engine {self.name!r}: tasks must be a positive int, got {tasks!r}"
            )
        self.tasks = tasks
        self.transport = check_transport_spec(transport)
        self._configure_release(release, windows, window_epsilon)

    def execute(self, program, graph, iterations, config, accountant=None):
        core = self.core(self, program, graph, config)
        try:
            return run_lifecycle(self, core, program, config, iterations, accountant)
        except BaseException as exc:
            core.close(error=exc)
            raise


class _AsyncCore(BusCore, _PlaintextCore):
    """The plaintext core with its loop driven as asyncio pipelines.

    Arithmetic, initial state, aggregate and result assembly are the
    plaintext core's, on a per-vertex loop; each window is one
    :meth:`~repro.core.rounds.RoundLoop.advance_async` drive on the bus,
    resuming through the loop's pending outboxes.
    """

    pipelines = True

    @property
    def fill(self):
        return self.loop.arithmetic.fill

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        self.bus.run(
            self.loop.advance_async(rounds, self.bus, max_tasks=self.engine.tasks)
        )
        state.trajectory = list(self.loop.trajectory)

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        result.extras["messages_sent"] = float(self.graph.num_edges * state.rounds_done)
        return result


class AsyncEngine(BusEngine):
    """Float-mode execution as overlapped per-vertex asyncio pipelines.

    ``tasks`` bounds how many vertex computations interleave (the message
    waits always stay concurrent — that is the point); ``transport`` picks
    the bus.
    """

    name = "async"
    core = _AsyncCore


register_engine("async", AsyncEngine, aliases=("asyncio", "overlapped"))
