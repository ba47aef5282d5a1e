"""The async engine: per-vertex asyncio pipelines over a transport bus.

The real DStress deployment is message-passing over a WAN where rounds
are dominated by transfer I/O, not local compute (§6). Every previous
backend executed rounds synchronously — route, barrier, repeat — so
nothing could overlap communication with computation. This backend runs
each vertex as an asyncio task over a :class:`~repro.core.transport.Transport`:
a vertex computes its next round as soon as *its own* inbox completes,
while slow links' deliveries are still in flight elsewhere. The schedule
itself lives in :func:`repro.core.rounds.run_rounds_async`; the state it
advances is the same :class:`~repro.core.rounds.RoundLoop` (same float
arithmetic, same initial state) the ``plaintext`` engine drives with the
sequential :func:`~repro.core.rounds.run_rounds` skeleton.

Engine options (all reachable through the registry and batch scenarios)::

    StressTest(net).program("en").engine("async", tasks=8).run()
    .engine("async", transport="wan")          # metered simulated WAN
    .engine("async", transport=my_transport)   # any Transport instance
    .engine("async", overlap=False)            # sequential-over-the-bus
                                               # baseline (benchmark foil)

Under the default :class:`~repro.core.transport.InMemoryTransport` the
result is bit-identical to ``engine="plaintext"`` at every ``tasks``
level — asserted by the cross-engine parity matrix. Under
:class:`~repro.core.transport.SimulatedWanTransport` the payloads are
unchanged (still bit-identical) but wall-clock reflects the link
schedule and ``result.traffic`` carries the per-node byte meters.

Unlike the sharded engine there is no per-round state pickling: all
vertex tasks share the parent process, so the fan-out cost the sharded
benchmark quantifies is amortized to zero. Nor is there a Task per
message: a vertex hands its whole round to the bus in one
:meth:`~repro.core.transport.Transport.send_round` call, which the
in-memory bus delivers inline — the only Tasks are the vertex pipelines.
``tests/test_async_overlap.py`` holds both numbers to account: the Task
count, and overlap beating the sequential schedule on a realtime WAN.

Like every backend the engine executes through the shared run lifecycle;
under ``release="windowed"`` each window is one
:meth:`~repro.core.rounds.RoundLoop.advance_async` call, resuming the
previous window's pending outboxes through the shared resumption contract.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence, Union

from repro.api.engines import Engine, _PlaintextCore, validate_intra_run_width
from repro.api.registry import register_engine
from repro.api.result import RunResult
from repro.core.lifecycle import ReleasePolicy, RunState, run_lifecycle
from repro.core.transport import (
    Transport,
    attach_wan_extras,
    attach_wire_extras,
    check_transport_spec,
    transport_from_spec,
    wan_meter_snapshot,
)
from repro.simulation.netsim import TrafficMeter

__all__ = ["AsyncEngine", "run_coroutine"]


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
    plaintext core's; each window is one
    :meth:`~repro.core.rounds.RoundLoop.advance_async` drive on its own
    event loop, resuming through the loop's pending outboxes (the §3.6
    window edge is a full barrier, so nothing is lost to overlap).
    """

    def __init__(self, engine, program, graph, config) -> None:
        super().__init__(engine, program, graph, config)
        self.meter = TrafficMeter()
        self.bus = None
        self.before = None

    def setup(self, state: RunState) -> None:
        self.bus = transport_from_spec(self.engine.transport, self.config, meter=self.meter)
        # A caller-supplied Transport instance may be reused across runs;
        # snapshot its counters so the extras below report *this* run.
        self.before = wan_meter_snapshot(self.bus)
        super().setup(state)

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        run_coroutine(
            self.loop.advance_async(
                rounds,
                self.bus,
                max_tasks=self.engine.tasks,
                overlap=self.engine.overlap,
            )
        )
        state.trajectory = list(self.loop.trajectory)

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        result.extras.update(
            {
                # effective concurrency: the sequential schedule runs one
                # pipeline regardless of the constructor's tasks value,
                # and the extras must report what actually happened
                "tasks": float(self.engine.tasks if self.engine.overlap else 1),
                "overlap": 1.0 if self.engine.overlap else 0.0,
                "messages_sent": float(self.graph.num_edges * state.rounds_done),
            }
        )
        attach_wan_extras(result, self.bus, self.before)
        attach_wire_extras(result, self.bus)
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
    :class:`~repro.core.transport.Transport` instance); ``overlap=False``
    runs the same bus strictly sequentially — one edge per bus call — the
    baseline the overlap is measured against.
    """

    name = "async"

    def __init__(
        self,
        tasks: int = 4,
        transport: Union[str, Transport] = "memory",
        overlap: bool = True,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self.tasks = validate_intra_run_width(tasks, self.name)
        self.transport = check_transport_spec(transport)
        self.overlap = bool(overlap)
        self._configure_release(release, windows, window_epsilon)

    @property
    def intra_run_width(self) -> int:
        """What the batch planner should budget for: the task concurrency
        when overlapping, 1 for the strictly sequential schedule — the
        same effective concurrency the result extras report."""
        return self.tasks if self.overlap else 1

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _AsyncCore(self, program, graph, config)
        try:
            return run_lifecycle(self, core, program, config, iterations, accountant)
        except BaseException as exc:
            core.close(error=exc)
            raise


register_engine("async", AsyncEngine, aliases=("asyncio", "overlapped"))
