"""The secure-async engine: DStress GMW rounds over a transport bus.

The paper's §6 wall-clock numbers are dominated by transfer I/O — a
secure round's cost is the wire time of its OT-extension batches and §3.5
transfer words, not the local crypto. The sequential
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

Like every backend the engine executes through the shared run lifecycle,
with the bus lifecycle it shares with ``async``
(:class:`~repro.api.async_engine.BusCore`): the bus is opened once at
setup, and each window is a fresh
:class:`~repro.core.rounds.SecureRoundScheduler` (a window edge is a full
barrier, so no delivery ever spans one) whose coroutine is handed to
:meth:`~repro.core.transport.Transport.run` — a fresh event loop for the
in-process buses, the io loop of a TCP mesh, where the window body's
crypto then runs too.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.api.async_engine import BusCore, BusEngine
from repro.api.engines import SecureDStressEngine, _SecureCore
from repro.api.registry import register_engine
from repro.core.lifecycle import ReleasePolicy
from repro.core.rounds import SecureRoundScheduler, WindowEvents
from repro.core.secure_engine import check_backend
from repro.core.transport import Transport

__all__ = ["SecureAsyncEngine"]


class _SecureAsyncCore(BusCore, _SecureCore):
    """:class:`~repro.api.engines._SecureCore` with rounds over a bus.

    Setup, the window body, aggregation and noising are the parent's
    (the aggregation tree is a final local phase, not a round); only what
    happens to the window's wire events differs — they dispatch through a
    fresh scheduler over the transport.
    """

    def drive(self, events: WindowEvents) -> None:
        scheduler = SecureRoundScheduler(self.bus, max_tasks=self.engine.tasks)
        self.bus.run(scheduler.run(events))


class SecureAsyncEngine(BusEngine):
    """The full DStress protocol with rounds scheduled over a transport.

    ``tasks`` bounds how many block batches may be in flight at once;
    ``transport`` picks the bus. ``backend`` picks the GMW lanes as for
    ``engine("secure")``: ``"scalar"`` (default) Python ints, stdlib only,
    or ``"bitsliced"`` numpy words; each step's blocks are evaluated as
    one batch before its first delivery is dispatched.
    """

    name = "secure-async"
    releases_output = True
    core = _SecureAsyncCore

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
        super().__init__(tasks, transport, release, windows, window_epsilon)

    compile_plans = SecureDStressEngine.compile_plans


register_engine(
    "secure-async", SecureAsyncEngine, aliases=("secure-asyncio", "dstress-async")
)
