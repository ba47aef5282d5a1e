"""The message bus every engine routes rounds over (§3.6 as a transport).

A real DStress deployment is message-passing over a WAN: each participant
is one node, and a round's cost is dominated by the transfer I/O, not the
local compute. The seed engines instead shuffled dicts in-process, which
made it impossible to model (let alone overlap) communication. This module
is the abstraction that separates *what* a round delivers from *how* it
travels:

* :class:`Transport` — the protocol: a synchronous full-round delivery
  (:meth:`~Transport.deliver_outboxes`, the hook behind
  :func:`repro.core.rounds.route_messages`) plus the asynchronous path
  the async engine schedules vertex pipelines over: one
  :meth:`~Transport.send_round` call carries a vertex's whole round of
  out-edge messages, and :meth:`~Transport.gather_round` *is* the round
  barrier — a vertex's round-``r`` gather resolves exactly when all of
  its expected round-``r`` messages have been delivered (or accounted as
  faulted), never earlier. A third call, :meth:`~Transport.convey_round`,
  carries one batch of slot-less cryptographic payloads (a block's GMW
  OT-extension bytes, a §3.5 transfer's aggregates) for the secure
  engine's rounds — same link model, byte counts instead of values.
* :class:`InMemoryTransport` — the reference path. Zero-delay, in-order
  per slot, bit-identical to the historical dict shuffle; every engine
  that claims parity with ``plaintext`` runs over this. A round message
  is a function call here: no await suspends and no Task is created.
* :class:`SimulatedWanTransport` — injects per-link latency and
  bandwidth delays derived from :class:`~repro.core.config.DStressConfig`
  (``wan_latency_seconds`` / ``wan_bandwidth_bytes`` / ``wan_jitter``)
  and meters every delivery into a
  :class:`~repro.simulation.netsim.TrafficMeter`. Delays never change
  payloads, so results stay bit-identical to the in-memory path — only
  wall-clock and the meters move.
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
an engine that gathers a complete round sees exactly the inbox the
sequential ``route_messages`` would have produced.
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, TransportError
from repro.simulation.netsim import TrafficMeter

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
    "wan_meter_snapshot",
    "attach_wan_extras",
    "attach_wire_extras",
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


def _duplicate_delivery_error(
    src: int, dst: int, in_slot: int, round_index: int
) -> TransportError:
    """The one wording for a duplicate-delivery fault, shared by the
    async slot check and the synchronous fault injector."""
    return TransportError(
        f"round {round_index}: duplicate delivery {src}->{dst} "
        f"(in-slot {in_slot} already filled)"
    )


class Transport(ABC):
    """One way round messages travel between vertices.

    A transport instance serves one execution at a time: :meth:`open`
    resets all per-run state (mailboxes, meters' link accounting is the
    caller's to reset). Engines may reuse an instance across sequential
    runs but must not share one across concurrent runs.
    """

    #: Registry-style name stamped into result extras.
    name: str = "abstract"

    # -- synchronous full-round path ------------------------------------------

    @abstractmethod
    def deliver_outboxes(
        self, graph: "DistributedGraph", outboxes: Dict[int, List[Any]], fill: Any
    ) -> Dict[int, List[Any]]:
        """Deliver a full round of outboxes and return the inboxes.

        This is the slot-to-slot §3.6 delivery the sequential engines
        route through (:func:`repro.core.rounds.route_messages`): unused
        in-slots hold ``fill`` so every vertex receives exactly
        ``degree_bound`` messages.
        """

    # -- asynchronous path ----------------------------------------------------

    def open(self, graph: "DistributedGraph", fill: Any) -> None:
        """Bind to a graph for one execution — sync or async.

        Allocates per-(vertex, round) mailboxes and the expected-arrival
        counts the round barrier resolves against, and resets any per-run
        state a subclass keeps (round counters, fault accounting). Every
        engine calls this once at the start of each execution, so a bus
        instance reused across runs starts each run fresh; for the async
        path, call it before the first :meth:`send_round`.
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
        subshare aggregates — where the *values* are computed by the
        protocol simulation and only the *bytes* travel. The reference bus
        carries them instantly; :class:`SimulatedWanTransport` meters every
        link into its per-link accounting and awaits the slowest
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

    async def fault_delivery(
        self, src: int, dst: int, in_slot: int, round_index: int, description: str
    ) -> None:
        """Account one delivery that will never arrive (the chaos wrapper's
        drop path): the round barrier still resolves, and the victim's
        gather raises a :class:`TransportError` carrying ``description``.
        Buses whose mailboxes live on another thread/loop (the real-socket
        transport) override this to account the fault over there.
        """
        self._fault((dst, round_index), description)

    def close(self, error: Optional[BaseException] = None) -> None:
        """Release any resources the bus holds (sockets, loops, threads).

        The in-process buses hold none, so this is a no-op; engines call
        it in a ``finally`` for every bus they built themselves from a
        string spec, which is what lets ``transport="tcp"`` tear its mesh
        down (with ``error`` as the announced abort cause) even when the
        run fails.
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
            raise _duplicate_delivery_error(src, dst, in_slot, round_index)
        slots[in_slot] = payload
        self._resolve(key)

    def _fault(self, key: Tuple[int, int], description: str) -> None:
        """Account a delivery that will never arrive; resolves the barrier."""
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
    """The reference bus: zero delay, nothing metered, bit-identical.

    ``deliver_outboxes`` is exactly the historical dict shuffle; the async
    path delivers each payload untouched and inline (``send_round`` and
    ``convey_round`` are the protocol's reference bodies), so any engine
    scheduling over this transport reproduces the sequential inboxes
    verbatim.
    """

    name = "memory"

    def deliver_outboxes(self, graph, outboxes, fill):
        inboxes = {v: [fill] * graph.degree_bound for v in graph.vertex_ids}
        for src, out_slot, dst, in_slot in graph.routes():
            inboxes[dst][in_slot] = outboxes[src][out_slot]
        return inboxes


class SimulatedWanTransport(InMemoryTransport):
    """A WAN bus: per-link latency + bandwidth delays, metered traffic.

    Each directed link ``src -> dst`` gets a deterministic latency of
    ``latency_seconds * jitter_factor(src, dst)`` where the factor is
    drawn once per link from a :class:`DeterministicRNG` keyed by
    ``(seed, src, dst)`` — so delays are reproducible run-to-run and
    independent of delivery order. A message of ``message_bytes`` bytes
    additionally pays ``message_bytes / bandwidth_bytes`` serialization
    delay when a bandwidth is configured.

    ``realtime=True`` (the async engines' mode) actually awaits the delay
    so wall-clock reflects the schedule; ``realtime=False`` and the
    synchronous :meth:`deliver_outboxes` path only *account* the delay in
    :attr:`simulated_seconds`. Either way every delivery is recorded into
    :attr:`meter` (a :class:`~repro.simulation.netsim.TrafficMeter`), so
    bandwidth figures are straight protocol arithmetic.
    """

    name = "wan"

    def __init__(
        self,
        latency_seconds: float = 0.0,
        bandwidth_bytes: Optional[float] = None,
        jitter: float = 0.0,
        message_bytes: float = 8.0,
        meter: Optional[TrafficMeter] = None,
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
        self.meter = meter if meter is not None else TrafficMeter()
        self.seed = seed
        self.realtime = realtime
        #: Total accounted link-delay seconds (both sync and async paths).
        self.simulated_seconds = 0.0
        self._link_factors: Dict[Link, float] = {}

    @classmethod
    def from_config(
        cls,
        config: "DStressConfig",
        meter: Optional[TrafficMeter] = None,
        realtime: bool = True,
    ) -> "SimulatedWanTransport":
        """Build the WAN model a config describes (message size = one
        fixed-point word of the config's format)."""
        return cls(
            latency_seconds=config.wan_latency_seconds,
            bandwidth_bytes=config.wan_bandwidth_bytes,
            jitter=config.wan_jitter,
            message_bytes=config.fmt.total_bits / 8.0,
            meter=meter,
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
        self.meter.record_send(src, dst, self.message_bytes)
        return delay

    def deliver_outboxes(self, graph, outboxes, fill):
        for src, _out_slot, dst, _in_slot in graph.routes():
            self._account(src, dst)
        return super().deliver_outboxes(graph, outboxes, fill)

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
            self.meter.record_send(src, dst, num_bytes)
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
    real-socket ``TcpTransport`` injects the same chaos against a metered
    or genuinely networked mesh). On the async path, a dropped delivery
    never reaches the inner bus but *is* accounted at its round barrier
    (:meth:`Transport.fault_delivery`), so the victim's gather raises a
    :class:`TransportError` naming the link instead of hanging; a
    duplicated delivery goes through the inner bus twice, tripping the
    duplicate check. On the synchronous path (sequential engines, the
    sharded barrier) each :meth:`deliver_outboxes` call is one round —
    counted from the start of the execution, since every engine opens
    the bus per run — and the same faults raise at that round's
    delivery. Used by the fault-path tests and available for chaos-style
    batch runs over any engine.

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
        self._sync_round = 0

    def open(self, graph, fill):
        self.inner.open(graph, fill)
        self._sync_round = 0

    def close(self, error: Optional[BaseException] = None) -> None:
        self.inner.close(error)

    async def gather_round(self, vertex_id, round_index):
        return await self.inner.gather_round(vertex_id, round_index)

    def deliver_outboxes(self, graph, outboxes, fill):
        # delegate the actual slot routing to the inner bus (one copy of
        # the routing contract), then apply this round's faults on top
        round_index = self._sync_round
        self._sync_round += 1
        inboxes = self.inner.deliver_outboxes(graph, outboxes, fill)
        dropped: List[str] = []
        # a fault triple naming a non-edge is inert: only real routes match
        in_slots = (
            {(src, dst): in_slot for src, _out_slot, dst, in_slot in graph.routes()}
            if self.duplicate or self.drop
            else {}
        )
        for src, dst, fault_round in sorted(self.duplicate):
            if fault_round == round_index and (src, dst) in in_slots:
                raise _duplicate_delivery_error(src, dst, in_slots[src, dst], round_index)
        for src, dst, fault_round in sorted(self.drop):
            if fault_round == round_index and (src, dst) in in_slots:
                dropped.append(
                    f"delivery {src}->{dst} (in-slot {in_slots[src, dst]}) was dropped"
                )
        if dropped:
            raise TransportError(
                f"round {round_index}: cannot complete delivery: "
                + "; ".join(dropped)
            )
        return inboxes

    async def send_round(self, src, round_index, deliveries):
        # no real-edge guard needed here: engines only send along the
        # graph's actual edges, so a fault triple naming a non-edge never
        # matches a delivery — inert on this path exactly as on the sync one
        forwarded = []
        replays = []
        for dst, in_slot, payload in deliveries:
            link = (src, dst, round_index)
            if link in self.drop:
                await self.inner.fault_delivery(
                    src,
                    dst,
                    in_slot,
                    round_index,
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


def _tcp_from_env(config, meter):
    # lazy import: the in-process buses must not pay for (or depend on)
    # the socket subsystem; the spec only resolves when actually asked for
    from repro.net.transport import TcpTransport

    return TcpTransport.from_env(config, meter=meter)


#: String specs accepted anywhere a transport can be named.
_TRANSPORT_SPECS = {
    "memory": lambda config, meter: InMemoryTransport(),
    "wan": lambda config, meter: SimulatedWanTransport.from_config(config, meter=meter),
    "tcp": _tcp_from_env,
}
_TRANSPORT_ALIASES = {
    "in-memory": "memory",
    "inmemory": "memory",
    "simulated-wan": "wan",
    "wan-sim": "wan",
    "socket": "tcp",
    "sockets": "tcp",
}


def check_transport_spec(spec, optional: bool = False):
    """Validate an engine's ``transport`` constructor option and return it.

    One validation shared by every engine that accepts a transport, so
    the error message (and what counts as a valid spec) cannot drift
    between backends. String specs are resolved against the known names
    *here*, at engine construction — a typo'd name must abort a batch at
    resolve time, before budget is charged, not surface as a per-scenario
    error mid-run. ``optional=True`` additionally admits ``None`` ("use
    the engine's default bus").
    """
    if optional and spec is None:
        return spec
    if not isinstance(spec, (str, Transport)):
        raise ConfigurationError(
            "transport must be a Transport instance or a name "
            f"('memory' / 'wan' / 'tcp'), got {type(spec).__name__}"
        )
    if isinstance(spec, str):
        canonical = _TRANSPORT_ALIASES.get(spec, spec)
        if canonical not in _TRANSPORT_SPECS:
            raise ConfigurationError(
                f"unknown transport {spec!r}; known transports: "
                + ", ".join(sorted(_TRANSPORT_SPECS) + sorted(_TRANSPORT_ALIASES))
            )
    return spec


def innermost_transport(bus) -> "Transport":
    """Peel chaos (or future) wrappers off a bus: the transport that
    actually carries the bytes. Wrappers expose the wrapped bus as
    ``inner``; everything that introspects a bus's metering goes through
    here so a wrapped WAN or TCP bus reports exactly like a bare one.
    """
    while isinstance(getattr(bus, "inner", None), Transport):
        bus = bus.inner
    return bus


def wan_meter_snapshot(bus) -> Tuple[float, float]:
    """(simulated_seconds, metered bytes) of a bus before a run starts.

    Engines snapshot these counters so results report per-run deltas even
    when a caller shares one :class:`SimulatedWanTransport` instance (and
    therefore one cumulative meter) across several runs. Non-WAN buses
    snapshot as zeros.
    """
    bus = innermost_transport(bus)
    if isinstance(bus, SimulatedWanTransport):
        return bus.simulated_seconds, bus.meter.total_bytes_sent
    return 0.0, 0.0


def attach_wan_extras(result, bus, before: Tuple[float, float]) -> None:
    """Stamp a run result with the bus's WAN metering, as per-run deltas.

    ``result`` is any object with ``traffic`` and ``extras`` attributes
    (duck-typed so this module stays below :mod:`repro.api`): ``traffic``
    becomes the bus's live meter (cumulative if the caller shares the bus
    across runs), while ``extras["simulated_seconds"]`` and
    ``extras["wan_bytes"]`` are this run's deltas against the ``before``
    snapshot from :func:`wan_meter_snapshot`. No-op for non-WAN buses.
    """
    bus = innermost_transport(bus)
    if isinstance(bus, SimulatedWanTransport):
        result.traffic = bus.meter
        result.extras["simulated_seconds"] = bus.simulated_seconds - before[0]
        result.extras["wan_bytes"] = bus.meter.total_bytes_sent - before[1]


def attach_wire_extras(result, bus) -> None:
    """Stamp real-socket wire accounting onto a run result.

    Duck-typed like :func:`attach_wan_extras` (any bus exposing a
    ``wire_stats()`` mapping — the real-socket ``TcpTransport``, possibly
    under a chaos wrapper), so this module never imports the socket
    subsystem. No-op for in-process buses.
    """
    stats_fn = getattr(innermost_transport(bus), "wire_stats", None)
    if not callable(stats_fn):
        return
    stats = stats_fn()
    for key in ("frames_sent", "frames_received", "bytes_sent", "bytes_received"):
        result.extras[f"wire_{key}"] = float(stats[key])
    result.extras["wire_party_id"] = float(stats["party_id"])


def transport_from_spec(
    spec,
    config: "DStressConfig",
    meter: Optional[TrafficMeter] = None,
) -> Transport:
    """Resolve a transport spec: an instance passes through, a string
    (``"memory"`` / ``"wan"`` and aliases) builds one from the config.

    Validation (including the unknown-name error) lives solely in
    :func:`check_transport_spec`, so construction-time and resolve-time
    paths can never report different known-transport lists.
    """
    spec = check_transport_spec(spec)
    if isinstance(spec, Transport):
        return spec
    return _TRANSPORT_SPECS[_TRANSPORT_ALIASES.get(spec, spec)](config, meter)
