"""The message bus the bus engines convey rounds over (§3.6 as a transport).

A real DStress deployment is message-passing over a WAN: each participant
is one node, and a round's cost is dominated by the transfer I/O, not the
local compute. This module separates *what* a round computes from *how*
its bytes travel:

* :class:`Transport` — the protocol. A round reaches the bus one way:
  :meth:`~Transport.convey_round` carries one batch of per-link byte
  counts — a clear communication step's words, a secure block's GMW
  OT-extension bytes, a §3.5 transfer's masked words. The values are
  computed in process by the window that yields the batch
  (:meth:`~Transport.drive` puts it on a
  :class:`~repro.core.rounds.RoundScheduler`); only the bytes travel, so
  no bus can change a released bit.
* :class:`InMemoryTransport` — the reference path. Zero delay, nothing
  counted: a window drains in place, with no event loop.
* :class:`SimulatedWanTransport` — injects per-link latency and
  bandwidth delays derived from :class:`~repro.core.config.DStressConfig`
  (``wan_latency_seconds`` / ``wan_bandwidth_bytes`` / ``wan_jitter``)
  and totals the delay and bytes it carried. Only wall-clock and those
  two totals move.
* :class:`FaultInjectingTransport` — a chaos *wrapper* that drops or
  duplicates selected links of a convey over any inner bus, so the
  failure path is testable: a faulted round raises a
  :class:`~repro.exceptions.TransportError` naming the link and round
  instead of hanging the step's barrier.
* ``transport="tcp"`` — the real-socket backend
  (:class:`repro.net.transport.TcpTransport`, registered here, imported
  lazily): the same protocol over framed asyncio TCP streams between
  genuine OS processes, mesh shape taken from the ``REPRO_TCP_*``
  environment (or pass a connected instance; see :mod:`repro.net`).
"""

from __future__ import annotations

import asyncio
import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional, Sequence, Set, Tuple,
)

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, TransportError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config imports nothing here)
    from repro.core.config import DStressConfig
    from repro.core.graph import DistributedGraph
    from repro.core.rounds import WindowEvents

__all__ = [
    "LinkLoad",
    "Transport",
    "InMemoryTransport",
    "SimulatedWanTransport",
    "FaultInjectingTransport",
    "transport_from_spec",
    "check_transport_spec",
    "innermost_transport",
    "wan_totals",
    "attach_bus_extras",
    "validate_wan_params",
]

#: A link is one directed edge's (src, dst) pair.
Link = Tuple[int, int]

#: One link of a :meth:`Transport.convey_round` batch: ``(src, dst, num_bytes)``.
LinkLoad = Tuple[int, int, float]


def validate_wan_params(
    latency_seconds: float, bandwidth_bytes: Optional[float], jitter: float
) -> None:
    """The one rule for valid WAN model parameters.

    Shared by :class:`~repro.core.config.DStressConfig` and
    :class:`SimulatedWanTransport` so a config-built bus and a directly
    constructed one can never accept different parameter ranges.
    """
    if latency_seconds < 0:
        raise ConfigurationError("WAN latency cannot be negative")
    if bandwidth_bytes is not None and bandwidth_bytes <= 0:
        raise ConfigurationError("WAN bandwidth must be positive (or None)")
    if not 0.0 <= jitter < 1.0:
        raise ConfigurationError("WAN jitter must lie in [0, 1)")


class Transport:
    """One way a round's bytes travel between nodes.

    A transport instance serves one execution at a time: :meth:`open`
    binds it to the run's graph. A bus's running totals are not per-run
    state, and engines report them as deltas. Engines may reuse an
    instance across sequential runs but must not share one across
    concurrent runs. A run's per-link traffic is never the bus's: the
    engine computes it from the protocol.
    """

    #: Registry-style name stamped into result extras.
    name: str = "abstract"

    def open(self, graph: "DistributedGraph") -> None:
        """Bind to a graph for one execution. Every engine calls this once
        at the start of each execution, before the first
        :meth:`convey_round`; the in-process buses keep nothing per run,
        the real-socket bus assigns each vertex its owning party."""

    async def convey_round(
        self, round_index: int, kind: str, links: Sequence[LinkLoad]
    ) -> None:
        """Carry one batch of payload, ``num_bytes`` per ``(src, dst,
        num_bytes)`` link, as bus round ``round_index``.

        The values are computed by the window that yields the batch; only
        the *bytes* travel. The reference bus carries them instantly;
        :class:`SimulatedWanTransport` adds every link's delay and bytes to
        its totals and awaits the slowest payload-scaled link delay
        (latency + ``num_bytes / bandwidth``), which is what the bus
        engines overlap computation against; and
        :class:`FaultInjectingTransport` raises a
        :class:`~repro.exceptions.TransportError` for a faulted link
        instead of hanging the round. ``kind`` names the payload class
        (``"round"`` / ``"ot"`` / ``"transfer"``) in fault messages and on
        the wire.
        """
        return None

    def drive(self, events: "WindowEvents", tasks: int) -> None:
        """Put one window's wire events
        (:data:`~repro.core.rounds.WindowEvents`) on this bus.

        Each window is a fresh :class:`~repro.core.rounds.RoundScheduler`
        (a window edge is a full barrier, so no delivery ever spans one),
        at most ``tasks`` conveys in flight, whose coroutine :meth:`run`
        drives. A bus whose conveys cost nothing drains the window in
        place instead (:meth:`InMemoryTransport.drive`).
        """
        from repro.core.rounds import RoundScheduler  # rounds imports this module

        self.run(RoundScheduler(self, tasks).run(events))

    def run(self, coro):
        """Drive one window's coroutine to completion from synchronous
        code.

        The simulated buses run it on a fresh event loop per call. When
        the caller already runs a loop (a notebook kernel), ``asyncio.run``
        refuses to nest, so the window runs on a private loop in a worker
        thread instead; the engine's ``execute`` stays synchronous either
        way, and the computation is deterministic whichever thread hosts
        it. The worker runs in a copy of the caller's context, so spans the
        window opens nest under the caller's, as they do on a fresh loop. A
        bus whose sockets live on a loop of its own (the real-socket
        transport) runs the coroutine there.
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(coro)
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(contextvars.copy_context().run, asyncio.run, coro).result()

    def close(self, error: Optional[BaseException] = None) -> None:
        """Release any resources the bus holds (sockets, an io thread).

        The in-process buses hold none, so this is a no-op. An engine
        closes every bus it built itself from a string spec once its run
        ends, failed or not: that is what tears a ``transport="tcp"``
        mesh down, announcing ``error`` as the abort cause when there is
        one. A caller-supplied instance is the caller's to close.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class InMemoryTransport(Transport):
    """The reference bus: zero delay, nothing counted (the protocol's
    reference bodies)."""

    name = "memory"

    def drive(self, events, tasks):
        """Drain the window in place: a convey here does nothing, so no
        event loop or Task is worth paying for. The window body does the
        same work under every bus."""
        for _event in events:
            pass


class SimulatedWanTransport(Transport):
    """A WAN bus: per-link latency + bandwidth delays, totalled.

    Each directed link ``src -> dst`` gets a deterministic latency of
    ``latency_seconds * jitter_factor(src, dst)`` where the factor is
    drawn once per link from a :class:`DeterministicRNG` keyed by
    ``(seed, src, dst)`` — so delays are reproducible run-to-run and
    independent of delivery order. A payload of ``num_bytes`` bytes
    additionally pays ``num_bytes / bandwidth_bytes`` serialization delay
    when a bandwidth is configured.

    ``realtime=True`` (the bus engines' mode) actually awaits the delay
    so wall-clock reflects the schedule; ``realtime=False`` only
    *accounts* the delay in :attr:`simulated_seconds`. Either way every
    link's bytes are added to :attr:`bytes_sent`. Both totals run across
    every execution the bus carries; engines report a run's share as a
    delta.
    """

    name = "wan"

    def __init__(
        self,
        latency_seconds: float = 0.0,
        bandwidth_bytes: Optional[float] = None,
        jitter: float = 0.0,
        seed: int = 0,
        realtime: bool = True,
    ) -> None:
        validate_wan_params(latency_seconds, bandwidth_bytes, jitter)
        self.latency_seconds = latency_seconds
        self.bandwidth_bytes = bandwidth_bytes
        self.jitter = jitter
        self.seed = seed
        self.realtime = realtime
        #: Total accounted link-delay seconds.
        self.simulated_seconds = 0.0
        #: Total bytes carried.
        self.bytes_sent = 0.0
        self._link_factors: Dict[Link, float] = {}

    @classmethod
    def from_config(
        cls,
        config: "DStressConfig",
        realtime: bool = True,
    ) -> "SimulatedWanTransport":
        """Build the WAN model a config describes."""
        return cls(
            latency_seconds=config.wan_latency_seconds,
            bandwidth_bytes=config.wan_bandwidth_bytes,
            jitter=config.wan_jitter,
            seed=config.seed,
            realtime=realtime,
        )

    def link_delay(self, src: int, dst: int, num_bytes: float) -> float:
        """Deterministic one-way delay of ``num_bytes`` on the directed
        link ``src -> dst``."""
        factor = self._link_factors.get((src, dst))
        if factor is None:
            rng = DeterministicRNG(f"wan-link|{self.seed}|{src}|{dst}")
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            self._link_factors[(src, dst)] = factor
        delay = self.latency_seconds * factor
        if self.bandwidth_bytes is not None:
            delay += num_bytes / self.bandwidth_bytes
        return delay

    async def convey_round(self, round_index, kind, links):
        slowest = 0.0
        for src, dst, num_bytes in links:
            delay = self.link_delay(src, dst, num_bytes)
            self.simulated_seconds += delay
            self.bytes_sent += num_bytes
            slowest = max(slowest, delay)
        # nothing lands at the far end of a convey, so the batch's link
        # waits overlapping in full is one sleep of the slowest of them
        if self.realtime and slowest > 0:
            await asyncio.sleep(slowest)


class FaultInjectingTransport(Transport):
    """A chaos wrapper that misbehaves on selected links — over any bus.

    ``drop`` / ``duplicate`` are sets of ``(src, dst, round_index)``
    triples; ``inner`` is the bus that actually carries everything else
    (default: a fresh :class:`InMemoryTransport` — but wrapping a
    :class:`SimulatedWanTransport` or a real-socket ``TcpTransport``
    injects the same chaos against a delayed or genuinely networked
    mesh). A convey naming a faulted link still carries its unfaulted
    links, then raises a :class:`TransportError` naming the link and
    round, which the step's barrier propagates instead of waiting
    forever on bytes that will never (or twice) arrive. Used by the
    fault-path tests and available for chaos-style batch runs on every
    engine. A window keeps the scheduler (:meth:`Transport.drive`)
    whatever the inner bus, so a fault-free wrapper over the memory bus
    exercises it at zero delay.

    When the inner bus is shared across real processes (TCP), give every
    replica the *same* fault sets: chaos is part of the replicated
    schedule, exactly like the payloads.
    """

    name = "faulty"

    def __init__(
        self,
        drop: Iterable[Tuple[int, int, int]] = (),
        duplicate: Iterable[Tuple[int, int, int]] = (),
        inner: Optional[Transport] = None,
    ) -> None:
        self.drop: Set[Tuple[int, int, int]] = set(drop)
        self.duplicate: Set[Tuple[int, int, int]] = set(duplicate)
        self.inner: Transport = inner if inner is not None else InMemoryTransport()

    def open(self, graph):
        self.inner.open(graph)

    def run(self, coro):
        return self.inner.run(coro)

    def close(self, error: Optional[BaseException] = None) -> None:
        self.inner.close(error)

    async def convey_round(self, round_index, kind, links):
        # engines only convey along links that carry something, so a
        # fault triple naming any other link never matches: it is inert
        clean = []
        fault: Optional[TransportError] = None
        for src, dst, num_bytes in links:
            link = (src, dst, round_index)
            if link in self.drop:
                fault = fault or TransportError(
                    f"round {round_index}: {kind} delivery {src}->{dst} was dropped"
                )
            elif link in self.duplicate:
                fault = fault or TransportError(
                    f"round {round_index}: duplicate {kind} delivery {src}->{dst} "
                    "(a replay would desynchronize the protocol transcript)"
                )
            else:
                clean.append((src, dst, num_bytes))
        await self.inner.convey_round(round_index, kind, clean)
        if fault is not None:
            raise fault


def _tcp_from_env(config):
    # lazy import: the in-process buses must not pay for (or depend on)
    # the socket subsystem; the spec only resolves when actually asked for
    from repro.net.transport import TcpTransport

    return TcpTransport.from_env(config)


#: String specs accepted anywhere a transport can be named.
_TRANSPORT_SPECS: Dict[str, Callable[[Any], Transport]] = {
    "memory": lambda config: InMemoryTransport(),
    "wan": SimulatedWanTransport.from_config,
    "tcp": _tcp_from_env,
}


def check_transport_spec(spec):
    """Validate an engine's ``transport`` constructor option and return it.

    One validation shared by every engine that accepts a transport, so
    the error message (and what counts as a valid spec) cannot drift
    between backends. String specs are resolved against the known names
    *here*, at engine construction — a typo'd name must abort a batch at
    resolve time, before budget is charged, not surface as a per-scenario
    error mid-run.
    """
    if not isinstance(spec, (str, Transport)):
        raise ConfigurationError(
            "transport must be a Transport instance or a name "
            f"('memory' / 'wan' / 'tcp'), got {type(spec).__name__}"
        )
    if isinstance(spec, str) and spec not in _TRANSPORT_SPECS:
        raise ConfigurationError(
            f"unknown transport {spec!r}; known transports: "
            + ", ".join(sorted(_TRANSPORT_SPECS))
        )
    return spec


def innermost_transport(bus) -> "Transport":
    """Peel chaos (or future) wrappers off a bus: the transport that
    actually carries the bytes. Wrappers expose the wrapped bus as
    ``inner``; everything that introspects a bus's totals goes through
    here so a wrapped WAN or TCP bus reports exactly like a bare one.
    """
    while isinstance(getattr(bus, "inner", None), Transport):
        bus = bus.inner
    return bus


def wan_totals(bus) -> Tuple[float, float]:
    """(simulated_seconds, bytes_sent) of a bus before a run starts.

    A WAN bus's totals run across every execution it carries, so engines
    snapshot them and report per-run deltas even when a caller shares one
    :class:`SimulatedWanTransport` instance across several runs. Non-WAN
    buses snapshot as zeros.
    """
    bus = innermost_transport(bus)
    if isinstance(bus, SimulatedWanTransport):
        return bus.simulated_seconds, bus.bytes_sent
    return 0.0, 0.0


def attach_bus_extras(result, bus, before: Tuple[float, float]) -> None:
    """Stamp what the bus saw of one run onto its result's ``extras``.

    A WAN bus contributes ``simulated_seconds`` and ``wan_bytes``, this
    run's deltas against the ``before`` snapshot from :func:`wan_totals`;
    a real-socket bus (anything exposing ``wire_stats()``, possibly under
    a chaos wrapper) its ``wire_*`` frame and byte counts. ``result`` is
    duck-typed so this module stays below :mod:`repro.api` and never
    imports the socket subsystem. ``result.traffic`` is the engine's own:
    the bus never replaces it.
    """
    bus = innermost_transport(bus)
    if isinstance(bus, SimulatedWanTransport):
        result.extras["simulated_seconds"] = bus.simulated_seconds - before[0]
        result.extras["wan_bytes"] = bus.bytes_sent - before[1]
    stats_fn = getattr(bus, "wire_stats", None)
    if not callable(stats_fn):
        return
    stats = stats_fn()
    for key in ("frames_sent", "frames_received", "bytes_sent", "bytes_received"):
        result.extras[f"wire_{key}"] = float(stats[key])
    result.extras["wire_party_id"] = float(stats["party_id"])


def transport_from_spec(spec, config: "DStressConfig") -> Transport:
    """Resolve a transport spec: an instance passes through, a string
    (``"memory"`` / ``"wan"`` / ``"tcp"``) builds one from the config.

    Validation (including the unknown-name error) lives solely in
    :func:`check_transport_spec`, so construction-time and resolve-time
    paths can never report different known-transport lists.
    """
    spec = check_transport_spec(spec)
    if isinstance(spec, Transport):
        return spec
    return _TRANSPORT_SPECS[spec](config)
