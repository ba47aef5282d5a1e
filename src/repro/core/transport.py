"""The message bus every engine routes rounds over (§3.6 as a transport).

A real DStress deployment is message-passing over a WAN: each participant
is one node, and a round's cost is dominated by the transfer I/O, not the
local compute. This module separates *what* a round delivers from *how*
it travels:

* :class:`Transport` — the protocol. A round reaches the bus one way:
  one :meth:`~Transport.send_round` call carries a vertex's whole round
  of out-edge messages, and :meth:`~Transport.gather_round` *is* the
  round barrier — a vertex's round-``r`` gather resolves exactly when all
  of its expected round-``r`` messages have been delivered (or accounted
  as faulted), never earlier. Cryptographic bytes reach it one way too:
  :meth:`~Transport.convey_round` carries one batch of slot-less payloads
  (a block's GMW OT-extension bytes, a §3.5 transfer's masked words) for
  the secure engine's rounds — same link model, byte counts instead of
  values. The clear engines route in-process
  (:func:`repro.core.rounds.route_messages`) and never touch a bus.
* :class:`InMemoryTransport` — the reference path. Zero-delay, in-order
  per slot, bit-identical to :func:`~repro.core.rounds.route_messages`;
  every engine that claims parity with ``plaintext`` runs over this. A
  round message is a function call here: no await suspends and no Task
  is created.
* :class:`SimulatedWanTransport` — injects per-link latency and
  bandwidth delays derived from :class:`~repro.core.config.DStressConfig`
  (``wan_latency_seconds`` / ``wan_bandwidth_bytes`` / ``wan_jitter``)
  and totals the delay and bytes it carried. Delays never change
  payloads, so results stay bit-identical to the in-memory path — only
  wall-clock and those two totals move.
* :class:`FaultInjectingTransport` — a chaos *wrapper* that drops or
  duplicates selected deliveries over any inner bus so the failure path
  is testable: a faulted round raises a
  :class:`~repro.exceptions.TransportError` naming the link and round
  instead of hanging the gather.
* ``transport="tcp"`` — the real-socket backend
  (:class:`repro.net.transport.TcpTransport`, registered here, imported
  lazily): the same protocol over framed asyncio TCP streams between
  genuine OS processes, mesh shape taken from the ``REPRO_TCP_*``
  environment (or pass a connected instance; see :mod:`repro.net`).

Determinism contract: transports deliver *values* into slots; they never
reorder slots, merge payloads, or touch floats. Whatever the scheduling,
an engine that gathers a complete round sees exactly the inbox
``route_messages`` would have produced.
"""

from __future__ import annotations

import asyncio
import contextvars
from concurrent.futures import ThreadPoolExecutor
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, TransportError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config imports nothing here)
    from repro.core.config import DStressConfig
    from repro.core.graph import DistributedGraph

__all__ = [
    "Delivery",
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

#: Slot sentinel distinguishing "nothing delivered yet" from a delivered
#: payload that happens to equal the fill value.
_EMPTY = object()

#: A link is one directed edge's (src, dst) pair.
Link = Tuple[int, int]

#: One round message of a :meth:`Transport.send_round` batch:
#: ``(dst, in_slot, payload)``.
Delivery = Tuple[int, int, Any]

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
    """One way round messages travel between vertices.

    A transport instance serves one execution at a time: :meth:`open`
    resets all per-run state (mailboxes, fault accounting); a bus's
    running totals are not per-run state, and engines report them as
    deltas. Engines may reuse an instance across sequential runs but must
    not share one across concurrent runs. A run's per-link traffic is
    never the bus's: the engine computes it from the protocol.
    """

    #: Registry-style name stamped into result extras.
    name: str = "abstract"

    def open(self, graph: "DistributedGraph", fill: Any) -> None:
        """Bind to a graph for one execution.

        Allocates per-(vertex, round) mailboxes and the expected-arrival
        counts the round barrier resolves against, and resets any per-run
        state a subclass keeps (round counters, fault accounting). Every
        engine calls this once at the start of each execution, so a bus
        instance reused across runs starts each run fresh; call it before
        the first :meth:`send_round`.
        """
        self._graph = graph
        self._fill = fill
        self._expected: Dict[int, int] = {
            view.vertex_id: view.in_degree for view in graph.vertices()
        }
        self._mail: Dict[Tuple[int, int], List[Any]] = {}
        self._resolved: Dict[Tuple[int, int], int] = {}
        self._faulted: Dict[Tuple[int, int], List[str]] = {}
        self._events: Dict[Tuple[int, int], asyncio.Event] = {}

    async def send_round(
        self, src: int, round_index: int, deliveries: Sequence[Delivery]
    ) -> None:
        """Deliver one vertex's round of messages, each into its ``dst``'s
        in-slot.

        ``deliveries`` is ``src``'s ``[(dst, in_slot, payload)]`` in
        out-slot order. The reference bus delivers them inline — the call
        never suspends — and a bus that models the wire overrides this to
        pay its link delays (overlapped within the call) before handing
        each message to :meth:`_deliver`.
        """
        for dst, in_slot, payload in deliveries:
            self._deliver(src, dst, in_slot, payload, round_index)

    async def convey_round(
        self, round_index: int, kind: str, links: Sequence[LinkLoad]
    ) -> None:
        """Carry one batch of cryptographic payload, ``num_bytes`` per
        ``(src, dst, num_bytes)`` link.

        This is the bus's side-channel for protocol traffic that has no
        in-slot — a block's GMW OT-extension batch, a §3.5 transfer's
        masked words — where the *values* are computed by the
        protocol simulation and only the *bytes* travel. The reference bus
        carries them instantly; :class:`SimulatedWanTransport` adds every
        link's delay and bytes to its totals and awaits the slowest
        payload-scaled link delay (latency + ``num_bytes / bandwidth``),
        which is what the secure-async engine overlaps OT computation
        against; and :class:`FaultInjectingTransport` raises a
        :class:`~repro.exceptions.TransportError` for a faulted link
        instead of hanging the round. ``kind`` names the payload class in
        fault messages (``"ot"`` / ``"transfer"``).
        """
        return None

    async def gather_round(self, vertex_id: int, round_index: int) -> List[Any]:
        """Await and return ``vertex_id``'s complete round inbox.

        Resolves when every expected arrival for ``(vertex_id, round)``
        has been delivered or accounted as faulted; a faulted round raises
        :class:`TransportError` instead of returning a partial inbox — and
        instead of hanging, because faults count toward the barrier too.
        """
        key = (vertex_id, round_index)
        if self._expected[vertex_id] > 0:
            await self._await_round(key)
        faults = self._faulted.pop(key, None)
        if faults:
            raise TransportError(
                f"round {round_index}: vertex {vertex_id} cannot complete its "
                "gather: " + "; ".join(faults)
            )
        slots = self._mail.pop(key, None)
        self._events.pop(key, None)
        self._resolved.pop(key, None)
        if slots is None:
            return [self._fill] * self._graph.degree_bound
        return [self._fill if value is _EMPTY else value for value in slots]

    def run(self, coro):
        """Drive one window's coroutine to completion, where this bus's
        mailboxes live, from synchronous code.

        The in-process buses run it on a fresh event loop per call. When
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

    # -- shared mailbox mechanics ---------------------------------------------

    async def _await_round(self, key: Tuple[int, int]) -> None:
        """Block until ``key``'s round barrier resolves.

        The one overridable wait inside :meth:`gather_round`: the
        in-process buses wait on the mailbox event alone (nothing else can
        happen), while the real-socket transport races it against peer
        failure and an I/O timeout so a dead peer can never hang a round.
        """
        await self._event(key).wait()

    def _event(self, key: Tuple[int, int]) -> asyncio.Event:
        event = self._events.get(key)
        if event is None:
            event = self._events[key] = asyncio.Event()
        return event

    def _slots(self, key: Tuple[int, int]) -> List[Any]:
        slots = self._mail.get(key)
        if slots is None:
            slots = self._mail[key] = [_EMPTY] * self._graph.degree_bound
        return slots

    def _deliver(
        self, src: int, dst: int, in_slot: int, payload: Any, round_index: int
    ) -> None:
        key = (dst, round_index)
        slots = self._slots(key)
        if slots[in_slot] is not _EMPTY:
            raise TransportError(
                f"round {round_index}: duplicate delivery {src}->{dst} "
                f"(in-slot {in_slot} already filled)"
            )
        slots[in_slot] = payload
        self._resolve(key)

    def _fault(self, key: Tuple[int, int], description: str) -> None:
        """Account a delivery that will never arrive (the chaos wrapper's
        drop path): the round barrier at ``key`` still resolves, and the
        victim's gather raises a :class:`TransportError` carrying
        ``description``. Called from inside the window :meth:`run` drives,
        so it touches the mailboxes on the loop that owns them.
        """
        self._faulted.setdefault(key, []).append(description)
        self._resolve(key)

    def _resolve(self, key: Tuple[int, int]) -> None:
        count = self._resolved.get(key, 0) + 1
        self._resolved[key] = count
        if count >= self._expected[key[0]]:
            self._event(key).set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class InMemoryTransport(Transport):
    """The reference bus: zero delay, nothing counted, bit-identical.

    Each payload is delivered untouched and inline (``send_round`` and
    ``convey_round`` are the protocol's reference bodies), so any engine
    scheduling over this transport reproduces the sequential inboxes
    verbatim.
    """

    name = "memory"


class SimulatedWanTransport(InMemoryTransport):
    """A WAN bus: per-link latency + bandwidth delays, totalled.

    Each directed link ``src -> dst`` gets a deterministic latency of
    ``latency_seconds * jitter_factor(src, dst)`` where the factor is
    drawn once per link from a :class:`DeterministicRNG` keyed by
    ``(seed, src, dst)`` — so delays are reproducible run-to-run and
    independent of delivery order. A message of ``message_bytes`` bytes
    additionally pays ``message_bytes / bandwidth_bytes`` serialization
    delay when a bandwidth is configured.

    ``realtime=True`` (the async engines' mode) actually awaits the delay
    so wall-clock reflects the schedule; ``realtime=False`` only
    *accounts* the delay in :attr:`simulated_seconds`. Either way every
    delivery's bytes are added to :attr:`bytes_sent`. Both totals run
    across every execution the bus carries; engines report a run's share
    as a delta.
    """

    name = "wan"

    def __init__(
        self,
        latency_seconds: float = 0.0,
        bandwidth_bytes: Optional[float] = None,
        jitter: float = 0.0,
        message_bytes: float = 8.0,
        seed: int = 0,
        realtime: bool = True,
    ) -> None:
        validate_wan_params(latency_seconds, bandwidth_bytes, jitter)
        if message_bytes < 0:
            raise ConfigurationError("message size cannot be negative")
        self.latency_seconds = latency_seconds
        self.bandwidth_bytes = bandwidth_bytes
        self.jitter = jitter
        self.message_bytes = message_bytes
        self.seed = seed
        self.realtime = realtime
        #: Total accounted link-delay seconds.
        self.simulated_seconds = 0.0
        #: Total bytes carried (round messages and conveyed payloads).
        self.bytes_sent = 0.0
        self._link_factors: Dict[Link, float] = {}

    @classmethod
    def from_config(
        cls,
        config: "DStressConfig",
        realtime: bool = True,
    ) -> "SimulatedWanTransport":
        """Build the WAN model a config describes (message size = one
        fixed-point word of the config's format)."""
        return cls(
            latency_seconds=config.wan_latency_seconds,
            bandwidth_bytes=config.wan_bandwidth_bytes,
            jitter=config.wan_jitter,
            message_bytes=config.fmt.total_bits / 8.0,
            seed=config.seed,
            realtime=realtime,
        )

    def link_delay(self, src: int, dst: int, num_bytes: Optional[float] = None) -> float:
        """Deterministic one-way delay of the directed link ``src -> dst``.

        ``num_bytes`` overrides the default per-message payload size for
        serialization-delay purposes (used by :meth:`convey`, whose crypto
        payloads are much larger than one round message).
        """
        factor = self._link_factors.get((src, dst))
        if factor is None:
            rng = DeterministicRNG(f"wan-link|{self.seed}|{src}|{dst}")
            factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            self._link_factors[(src, dst)] = factor
        delay = self.latency_seconds * factor
        if self.bandwidth_bytes is not None:
            payload = self.message_bytes if num_bytes is None else num_bytes
            delay += payload / self.bandwidth_bytes
        return delay

    def _account(self, src: int, dst: int) -> float:
        delay = self.link_delay(src, dst)
        self.simulated_seconds += delay
        self.bytes_sent += self.message_bytes
        return delay

    async def send_round(self, src, round_index, deliveries):
        # account every link first, land the zero-delay ones inline, then
        # sleep the delayed ones concurrently: a batch costs its slowest
        # link, and a Task exists only where a link has a delay to wait
        delays = [self._account(src, dst) for dst, _in_slot, _payload in deliveries]
        delayed = []
        for delay, (dst, in_slot, payload) in zip(delays, deliveries):
            if self.realtime and delay > 0:
                delayed.append((delay, dst, in_slot, payload))
            else:
                self._deliver(src, dst, in_slot, payload, round_index)
        if delayed:
            await asyncio.gather(
                *(self._deliver_after(src, round_index, *entry) for entry in delayed)
            )

    async def _deliver_after(self, src, round_index, delay, dst, in_slot, payload):
        await asyncio.sleep(delay)
        self._deliver(src, dst, in_slot, payload, round_index)

    async def convey_round(self, round_index, kind, links):
        slowest = 0.0
        for src, dst, num_bytes in links:
            delay = self.link_delay(src, dst, num_bytes=num_bytes)
            self.simulated_seconds += delay
            self.bytes_sent += num_bytes
            slowest = max(slowest, delay)
        # nothing lands at the far end of a convey, so the batch's link
        # waits overlapping in full is one sleep of the slowest of them
        if self.realtime and slowest > 0:
            await asyncio.sleep(slowest)


class FaultInjectingTransport(Transport):
    """A chaos wrapper that misbehaves on selected deliveries — over any bus.

    ``drop`` / ``duplicate`` are sets of ``(src, dst, round_index)``
    triples; ``inner`` is the bus that actually carries everything else
    (default: a fresh :class:`InMemoryTransport`, the historical
    behavior — but wrapping a :class:`SimulatedWanTransport` or a
    real-socket ``TcpTransport`` injects the same chaos against a delayed
    or genuinely networked mesh). A dropped delivery never reaches the
    inner bus but *is* accounted at its round barrier
    (:meth:`Transport._fault`), so the victim's gather raises a
    :class:`TransportError` naming the link instead of hanging; a
    duplicated delivery goes through the inner bus twice, tripping the
    duplicate check. Used by the fault-path tests and available for
    chaos-style batch runs over the bus engines (``async``,
    ``secure-async``).

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

    def open(self, graph, fill):
        self.inner.open(graph, fill)

    def run(self, coro):
        return self.inner.run(coro)

    def close(self, error: Optional[BaseException] = None) -> None:
        self.inner.close(error)

    async def gather_round(self, vertex_id, round_index):
        return await self.inner.gather_round(vertex_id, round_index)

    async def send_round(self, src, round_index, deliveries):
        # engines only send along the graph's actual edges, so a fault
        # triple naming a non-edge never matches a delivery: it is inert
        forwarded = []
        replays = []
        for dst, in_slot, payload in deliveries:
            link = (src, dst, round_index)
            if link in self.drop:
                self.inner._fault(
                    (dst, round_index),
                    f"delivery {src}->{dst} (in-slot {in_slot}) was dropped",
                )
                continue
            forwarded.append((dst, in_slot, payload))
            if link in self.duplicate:
                replays.append((dst, in_slot, payload))
        # replays go last, so every unfaulted sibling lands before the
        # first replay trips the inner bus's duplicate-slot check
        await self.inner.send_round(src, round_index, forwarded + replays)

    async def convey_round(self, round_index, kind, links):
        # crypto payloads have no in-slot and no gather barrier, so both
        # fault classes raise right here in the conveying call — the
        # secure round scheduler's barrier propagates the error instead
        # of waiting forever on bytes that will never (or twice) arrive;
        # the batch's unfaulted links are still carried first
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
                    "(crypto payloads are one-shot; a replay would desynchronize "
                    "the protocol transcript)"
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
