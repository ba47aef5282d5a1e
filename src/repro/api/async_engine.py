"""The async engine: the plaintext loop with its rounds conveyed over a bus.

The real DStress deployment is message-passing over a WAN where rounds
are dominated by transfer I/O, not local compute (§6). This backend steps
exactly the loop ``engine="plaintext"`` steps (a
:class:`~repro.core.rounds.ColumnLoop` wherever ``plaintext`` uses one)
and hands every communication step's bytes — one fixed-point word per
routed link — to a :class:`~repro.core.transport.Transport` as one
:meth:`~repro.core.transport.Transport.convey_round` call, the way
``secure-async`` conveys its block batches. Values are routed in
process, so the bus never carries one: it carries the step's byte volume
and pays its link delays.

Engine options (all reachable through the registry and batch scenarios)::

    StressTest(net).program("en").engine("async", tasks=8).run()
    .engine("async", transport="wan")          # simulated WAN delays
    .engine("async", transport=my_transport)   # any Transport instance

On every bus the result is bit-identical to ``engine="plaintext"`` at
every ``tasks`` level — asserted by the cross-engine parity matrix.
Under :class:`~repro.core.transport.SimulatedWanTransport` wall-clock
reflects the link schedule, and the bus's delay and byte totals for the
run land in ``extras["simulated_seconds"]`` / ``extras["wan_bytes"]``.
On every bus ``result.traffic`` is the protocol's per-link bytes
(:func:`~repro.simulation.netsim.meter_from_rounds`), never the bus's.

Like every backend the engine executes through the shared run lifecycle,
with the bus lifecycle it shares with ``secure-async`` (:class:`BusCore`):
the bus is opened once at setup, and each window is one
:class:`~repro.core.rounds.RoundScheduler` coroutine handed to
:meth:`~repro.core.transport.Transport.run` — a fresh event loop for the
in-process buses, the io loop of a TCP mesh. Under ``release="windowed"``
a window first conveys the resume step as the bus round it belongs to,
like every other round.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.api.engines import Engine, _PlaintextCore
from repro.api.registry import register_engine
from repro.api.result import RunResult
from repro.core.lifecycle import ReleasePolicy, RunState, run_lifecycle
from repro.core.rounds import RoundScheduler, WindowEvents
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
    """The bus lifecycle of the engines that convey rounds over a
    :class:`~repro.core.transport.Transport` (``async``, ``secure-async``),
    mixed in ahead of the in-process core whose stages it wraps.

    Setup resolves the engine's transport spec, snapshots the bus's WAN
    totals and opens it once for the whole execution; :meth:`drive` hands
    each window to a fresh :class:`~repro.core.rounds.RoundScheduler` (a
    window edge is a full barrier, so no delivery ever spans one) on the
    bus's :meth:`~repro.core.transport.Transport.run`; finalize stamps
    what the bus saw onto the result and closes an engine-owned bus.
    """

    bus: Optional[Transport] = None

    def setup(self, state: RunState) -> None:
        self.bus = transport_from_spec(self.engine.transport, self.config)
        # A caller-supplied Transport instance may be reused across runs;
        # snapshot its totals so the extras below report *this* run.
        self.before = wan_totals(self.bus)
        super().setup(state)
        self.bus.open(self.graph)

    def drive(self, events: WindowEvents) -> None:
        scheduler = RoundScheduler(self.bus, max_tasks=self.engine.tasks)
        self.bus.run(scheduler.run(events))

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

    ``tasks`` bounds how many conveys may be in flight at once;
    ``transport`` picks the bus (``"memory"``, ``"wan"``, ``"tcp"``, or a
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
    """The plaintext core with its windows conveyed over a bus."""

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        result.extras["messages_sent"] = float(self.graph.num_edges * state.rounds_done)
        return result


class AsyncEngine(BusEngine):
    """Float-mode execution with every communication step conveyed over a
    bus; ``tasks`` bounds the conveys in flight, ``transport`` picks the
    bus."""

    name = "async"
    core = _AsyncCore


register_engine("async", AsyncEngine, aliases=("asyncio", "overlapped"))
