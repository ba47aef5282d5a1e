"""The secure-async engine: DStress GMW rounds over a transport bus.

The paper's §6 wall-clock numbers are dominated by transfer I/O — a
secure round's cost is the wire time of its OT-extension batches and §3.5
transfer aggregates, not the local crypto. The sequential
``engine="secure"`` backend computes everything in a straight line, so it
cannot model that claim. This backend runs the *same* window body
(:meth:`repro.core.secure_engine.SecureEngine._window` — one generator,
not a second copy of the loop) with every block batch it yields
dispatched through a
:class:`~repro.core.transport.Transport`: as soon as a block's GMW
evaluation finishes, its per-link OT bytes go on the bus as one
:meth:`~repro.core.transport.Transport.convey_round` call in an asyncio
task, and the next block's evaluation proceeds while those bytes are
still in flight on a simulated WAN.

Engine options (all reachable through the registry and batch scenarios)::

    StressTest(net).program("en").engine("secure-async").run()
    .engine("secure-async", tasks=8)           # bound in-flight batches
    .engine("secure-async", transport="wan")   # simulated WAN delays
    .engine("secure-async", transport=bus)     # any Transport instance
    .engine("secure-async", backend="bitsliced")  # numpy lane GMW with
                                               # offline/online split

Determinism contract: released outputs are **bit-identical** to
``engine="secure"`` under the same seeds — every
:meth:`~repro.crypto.rng.DeterministicRNG.fork` consumes parent stream,
so the window body performs the crypto in the one transcript order and
this driver overlaps only the wire time, which never touches a payload.
The parity matrix asserts this cell by cell. ``result.traffic`` is the
protocol meter on every bus (per-node *and* per-link, OT-extension bytes
included); a WAN bus adds only its delay and byte totals for the run,
``extras["simulated_seconds"]`` / ``extras["wan_bytes"]``.

Like every backend the engine executes through the shared run lifecycle;
under ``release="windowed"`` each window gets a fresh
:class:`~repro.core.rounds.SecureRoundScheduler` (a window edge is a full
barrier, so no delivery ever spans one) on the bus opened once at setup.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.api.async_engine import check_tasks, run_coroutine
from repro.api.engines import Engine, SecureDStressEngine, _SecureCore
from repro.api.registry import register_engine
from repro.api.result import RunResult
from repro.core.lifecycle import ReleasePolicy, RunState, run_lifecycle
from repro.core.rounds import SecureRoundScheduler, WindowEvents
from repro.core.secure_engine import check_backend
from repro.core.transport import (
    Transport,
    attach_bus_extras,
    check_transport_spec,
    transport_from_spec,
    wan_totals,
)

__all__ = ["SecureAsyncEngine"]


class _SecureAsyncCore(_SecureCore):
    """:class:`~repro.api.engines._SecureCore` with rounds over a bus.

    Setup, the window body, aggregation and noising are the parent's
    (the aggregation tree is a final local phase, not a round); only what
    happens to the window's wire events differs — they dispatch through a
    fresh scheduler over the transport.
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
        self.bus.open(self.graph, fill=None)
        super().setup(state)

    def drive(self, events: WindowEvents) -> None:
        scheduler = SecureRoundScheduler(self.bus, max_tasks=self.engine.tasks)
        run_coroutine(scheduler.run(events))

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        result.extras["tasks"] = float(self.engine.tasks)
        attach_bus_extras(result, self.bus, self.before)
        self.close()
        return result

    def close(self, error: Optional[BaseException] = None) -> None:
        """Close an engine-owned bus (a "tcp" spec owns sockets and an io
        thread); caller-supplied instances stay open across runs."""
        if self.bus is not None and self.bus is not self.engine.transport:
            self.bus.close(error=error)
            self.bus = None


class SecureAsyncEngine(Engine):
    """The full DStress protocol with rounds scheduled over a transport.

    ``tasks`` bounds how many block batches may be in flight at once;
    ``transport`` picks the bus (``"memory"``, ``"wan"``, or a
    :class:`~repro.core.transport.Transport` instance). ``backend`` picks
    the GMW lanes as for ``engine("secure")``: ``"scalar"`` (default)
    Python ints, stdlib only, or ``"bitsliced"`` numpy words; each step's
    blocks are evaluated as one batch before its first delivery is
    dispatched.
    """

    name = "secure-async"
    releases_output = True

    def __init__(
        self,
        tasks: int = 4,
        transport: Union[str, Transport] = "memory",
        backend: str = "scalar",
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self.backend = check_backend(backend, "engine 'secure-async'")
        self.tasks = check_tasks(tasks, self.name)
        self.transport = check_transport_spec(transport)
        self._configure_release(release, windows, window_epsilon)

    compile_plans = SecureDStressEngine.compile_plans

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _SecureAsyncCore(self, program, graph, config)
        try:
            return run_lifecycle(self, core, program, config, iterations, accountant)
        except BaseException as exc:
            core.close(error=exc)
            raise


register_engine(
    "secure-async", SecureAsyncEngine, aliases=("secure-asyncio", "dstress-async")
)
