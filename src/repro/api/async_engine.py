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

Like every backend the engine executes through the shared run lifecycle;
under ``release="windowed"`` each window is one
:meth:`~repro.core.rounds.RoundLoop.advance_async` call, resuming the
previous window's pending outboxes through the shared resumption contract
— sent on the bus as the round they belong to, like every other round.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence, Union

from repro.api.engines import Engine, _PlaintextCore
from repro.api.registry import register_engine
from repro.api.result import RunResult
from repro.core.engine import plaintext_loop
from repro.core.lifecycle import ReleasePolicy, RunState, run_lifecycle
from repro.core.transport import (
    Transport,
    attach_bus_extras,
    check_transport_spec,
    transport_from_spec,
    wan_totals,
)
from repro.exceptions import ConfigurationError

__all__ = ["AsyncEngine", "run_coroutine"]


def check_tasks(tasks, owner: str) -> int:
    """``tasks`` as given, if it is a positive int (``bool`` is not)."""
    if isinstance(tasks, bool) or not isinstance(tasks, int) or tasks < 1:
        raise ConfigurationError(
            f"engine {owner!r}: tasks must be a positive int, got {tasks!r}"
        )
    return tasks


def run_coroutine(coro):
    """Drive ``coro`` to completion from synchronous code, loop or no loop.

    ``asyncio.run`` refuses to nest inside a running event loop, which is
    exactly where notebook kernels (Jupyter/ipykernel) execute user code.
    In that case the schedule runs on a private loop in a worker thread —
    the engine's ``execute`` stays synchronous either way, and the
    computation is deterministic regardless of which thread hosts it.
    Shared by every asyncio-scheduled backend (``async``, ``secure-async``).
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(asyncio.run, coro).result()


class _AsyncCore(_PlaintextCore):
    """The plaintext core with its loop driven as asyncio pipelines.

    Arithmetic, initial state, aggregate and result assembly are the
    plaintext core's, on a per-vertex loop; each window is one
    :meth:`~repro.core.rounds.RoundLoop.advance_async` drive on its own
    event loop, resuming through the loop's pending outboxes.
    """

    def __init__(self, engine, program, graph, config) -> None:
        super().__init__(engine, program, graph, config)
        self.bus = None
        self.before = None

    def setup(self, state: RunState) -> None:
        self.bus = transport_from_spec(self.engine.transport, self.config)
        # A caller-supplied Transport instance may be reused across runs;
        # snapshot its totals so the extras below report *this* run.
        self.before = wan_totals(self.bus)
        self.loop = plaintext_loop(self.program, self.graph, phases=state.phases, pipelines=True)

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        run_coroutine(
            self.loop.advance_async(rounds, self.bus, max_tasks=self.engine.tasks)
        )
        state.trajectory = list(self.loop.trajectory)

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        result.extras.update(
            {
                "tasks": float(self.engine.tasks),
                "messages_sent": float(self.graph.num_edges * state.rounds_done),
            }
        )
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


class AsyncEngine(Engine):
    """Float-mode execution as overlapped per-vertex asyncio pipelines.

    ``tasks`` bounds how many vertex computations interleave (the message
    waits always stay concurrent — that is the point); ``transport`` picks
    the bus (``"memory"``, ``"wan"``, or a
    :class:`~repro.core.transport.Transport` instance).
    """

    name = "async"

    def __init__(
        self,
        tasks: int = 4,
        transport: Union[str, Transport] = "memory",
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self.tasks = check_tasks(tasks, self.name)
        self.transport = check_transport_spec(transport)
        self._configure_release(release, windows, window_epsilon)

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _AsyncCore(self, program, graph, config)
        try:
            return run_lifecycle(self, core, program, config, iterations, accountant)
        except BaseException as exc:
            core.close(error=exc)
            raise


register_engine("async", AsyncEngine, aliases=("asyncio", "overlapped"))
