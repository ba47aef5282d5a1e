"""The async engine: the plaintext loop with its rounds conveyed over a bus.

The real DStress deployment is message-passing over a WAN where rounds
are dominated by transfer I/O, not local compute (§6). This backend steps
exactly the loop ``engine="plaintext"`` steps (a
:class:`~repro.core.rounds.ColumnLoop` wherever ``plaintext`` uses one)
and hands every communication step's bytes — one fixed-point word per
routed link — to a :class:`~repro.core.transport.Transport` as one
:meth:`~repro.core.transport.Transport.convey_round` call, the way
``secure`` conveys its block batches. Values are routed in process, so
the bus never carries one: it carries the step's byte volume and pays
its link delays.

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
with the bus lifecycle it shares with ``secure``
(:class:`~repro.api.engines.BusCore`): the bus is opened once at setup,
and each window goes to :meth:`~repro.core.transport.Transport.drive` —
drained in place on the memory bus, exactly as ``plaintext`` drains it;
one :class:`~repro.core.rounds.RoundScheduler` coroutine on a fresh
event loop for the simulated buses, on the io loop of a TCP mesh. Under
``release="windowed"`` a window first conveys the resume step as the bus
round it belongs to, like every other round.
"""

from __future__ import annotations

from repro.api.engines import BusCore, BusEngine, _PlaintextCore
from repro.api.registry import register_engine
from repro.api.result import RunResult
from repro.core.lifecycle import RunState

__all__ = ["AsyncEngine"]


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
