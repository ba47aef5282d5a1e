"""The round scheduler: the §3.6 execution skeleton, engine-independent.

Every DStress execution — float reference, clear circuit evaluation, the
secure protocol's simulation harness, and the sharded backend — walks the
same schedule: ``n`` computation+communication rounds (update every
vertex, route the out-slot messages to the matching in-slots, observe the
aggregate) followed by one final computation step. This module owns that
skeleton so backends only supply the three varying pieces:

* ``superstep`` — advance *all* vertices one computation step. The
  plaintext engines update vertices sequentially
  (:func:`sequential_superstep`); the sharded engine fans the same work
  across a process pool and merges at the barrier.
* ``route`` — deliver outboxes to inboxes. :func:`route_messages`
  implements the §3.6 slot-to-slot delivery for any payload type (floats
  or raw fixed-point words). Since the transport subsystem landed it is a
  thin wrapper over :meth:`~repro.core.transport.Transport.deliver_outboxes`;
  pass ``transport=`` to route a run over a metered/simulated bus instead
  of the default in-memory one.
* ``observe`` — record the designated aggregate after each round (the
  convergence trajectory).

:class:`RoundLoop` binds the three to one graph and one
:class:`Arithmetic` — the float reference or the clear fixed-point
circuits — and is the single place a clear run's state lives between
release windows, whichever driver (:func:`run_rounds`,
:func:`run_rounds_async`) advances it.

Determinism contract: :func:`run_rounds` calls ``superstep`` exactly
``iterations + 1`` times with identical inputs regardless of who computes
the superstep, so two backends whose supersteps are pointwise equal
produce bit-identical trajectories and final states.

:func:`run_rounds_async` is the same schedule reshaped for the async
engine: one pipeline per vertex over a :class:`~repro.core.transport.Transport`,
where a vertex starts its round ``r + 1`` computation as soon as *its own*
round-``r`` inbox is complete — overlapping computation of ready vertices
with in-flight deliveries of slow ones — while trajectories and final
states are still assembled in sorted-vertex order, so the result is
bit-identical to :func:`run_rounds` for pointwise-equal updates.

The secure protocol's rounds have their own body
(:meth:`SecureEngine._window <repro.core.secure_engine.SecureEngine._window>`,
a generator of :data:`WindowEvent`); :class:`SecureRoundScheduler` is the
driver that puts those events on a transport.
"""

from __future__ import annotations

import asyncio
import copy
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Generator,
    Generic,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.graph import DistributedGraph, VertexView
from repro.core.transport import InMemoryTransport, LinkLoad, Transport
from repro.exceptions import ConfigurationError
from repro.obs.trace import current_recorder, timed_phase
from repro.simulation.netsim import PhaseTimer

__all__ = [
    "run_rounds",
    "run_rounds_async",
    "route_messages",
    "sequential_superstep",
    "batched_superstep",
    "Arithmetic",
    "RoundLoop",
    "LinkBytes",
    "WindowEvent",
    "WindowEvents",
    "SecureRoundScheduler",
]

#: Default bus behind :func:`route_messages`: stateless for the synchronous
#: full-round path, so one shared instance serves every sequential engine.
_DEFAULT_TRANSPORT = InMemoryTransport()

#: Per-vertex state payload (float registers or raw fixed-point registers).
S = TypeVar("S")
#: Message payload (float or raw fixed-point word).
M = TypeVar("M")

#: states, inboxes -> new states, outboxes (all keyed by vertex id).
Superstep = Callable[[Dict[int, S], Dict[int, List[M]]], Tuple[Dict[int, S], Dict[int, List[M]]]]

#: Ordered directed link with a byte payload: the unit the transport
#: conveys for the secure path.
LinkBytes = Dict[Tuple[int, int], float]

#: What a secure window puts on the wire, in transcript order: one
#: ``(step, kind, link_bytes)`` per finished block batch, and ``None`` at
#: every §3.6 step boundary (the barrier marker).
WindowEvent = Optional[Tuple[int, str, LinkBytes]]
#: One secure window: a generator, so a failing driver can ``close()`` it.
WindowEvents = Generator[WindowEvent, None, None]


@dataclass(frozen=True)
class Arithmetic(Generic[S, M]):
    """The number representation a clear run computes in.

    The float reference and the clear evaluation of the MPC circuits walk
    one schedule over one graph; these five pieces are everything that
    differs between them, so every plaintext-family engine (plaintext,
    fixed, sharded, async, naive-mpc) takes its initial state, vertex
    update, aggregate and result decoding from the same value.
    """

    #: The encoded no-op message padding every unused in-slot.
    fill: M
    #: A vertex's state before the first computation step.
    initial: Callable[[VertexView], S]
    #: ``(vertex id, state, inbox) -> (new state, outbox)``.
    update: Callable[[int, S, List[M]], Tuple[S, List[M]]]
    #: The designated register summed over all vertices, in real units.
    observe: Callable[[Dict[int, S]], float]
    #: One vertex's state in real units.
    decode: Callable[[S], Dict[str, float]]


def run_rounds(
    superstep: Superstep,
    route: Callable[[Dict[int, List[M]]], Dict[int, List[M]]],
    observe: Callable[[Dict[int, S]], float],
    states: Dict[int, S],
    inboxes: Dict[int, List[M]],
    iterations: int,
    phases: Optional[PhaseTimer] = None,
    *,
    first_round: int = 0,
    resume_outboxes: Optional[Dict[int, List[M]]] = None,
) -> Tuple[Dict[int, S], List[float], Dict[int, List[M]]]:
    """Drive the §3.6 schedule; return (final states, trajectory, outboxes).

    ``iterations`` computation+communication rounds, then one final
    computation step — exactly the shape both plaintext modes always had,
    now shared by every backend. The final step's outgoing messages are
    returned (not routed): a one-shot run discards them, a windowed run
    hands them back as ``resume_outboxes`` to continue the very same
    schedule across release windows.

    Resumption contract: calling once with ``iterations=a+b`` is
    step-for-step identical to calling with ``iterations=a``, then again
    with ``iterations=b``, ``resume_outboxes=`` the first call's returned
    outboxes and ``first_round=a+1``. The resumed call first routes the
    pending outboxes (the communication half of computation step ``a``,
    spanned as round ``first_round - 1``), then runs ``b - 1`` full
    rounds and the final computation step — so supersteps see the same
    inputs in the same order and the trajectory/final states concatenate
    bit-identically.

    ``phases`` (optional) accumulates per-phase wall-clock through the
    shared :func:`~repro.obs.trace.timed_phase` path — the same recorder
    code path every engine uses, so ``RunResult.phases`` means the same
    thing everywhere. Telemetry reads only the injectable clock: it never
    touches the RNG or reorders work, so traced runs stay bit-identical.
    """
    if iterations < 0:
        raise ConfigurationError("iteration count cannot be negative")
    recorder = current_recorder()
    trajectory: List[float] = []
    round_index = first_round
    if resume_outboxes is not None:
        if iterations < 1:
            raise ConfigurationError(
                "a resumed window needs at least one computation step"
            )
        with recorder.span("round", round=round_index - 1):
            with timed_phase(phases, "communication"):
                inboxes = route(resume_outboxes)
        remaining = iterations - 1
    else:
        remaining = iterations
    for _ in range(remaining):
        with recorder.span("round", round=round_index):
            with timed_phase(phases, "computation"):
                states, outboxes = superstep(states, inboxes)
            with timed_phase(phases, "communication"):
                inboxes = route(outboxes)
        trajectory.append(observe(states))
        round_index += 1
    with recorder.span("round", round=round_index):
        with timed_phase(phases, "computation"):
            states, final_outboxes = superstep(states, inboxes)
    trajectory.append(observe(states))
    return states, trajectory, final_outboxes


def route_messages(
    graph: DistributedGraph,
    outboxes: Dict[int, List[M]],
    fill: M,
    transport: Optional[Transport] = None,
) -> Dict[int, List[M]]:
    """Deliver out-slot messages to the matching in-slots (§3.6).

    Unused in-slots hold ``fill`` (the encoded no-op message), so every
    vertex always receives exactly ``degree_bound`` messages and the
    communication pattern leaks nothing about the true degree.

    Delivery is transport-backed: ``transport=None`` routes over the
    shared zero-delay :class:`~repro.core.transport.InMemoryTransport`
    (exactly the historical dict shuffle); passing a
    :class:`~repro.core.transport.SimulatedWanTransport` meters the same
    round into its :class:`~repro.simulation.netsim.TrafficMeter` and
    accounts the link delays without changing a single payload.
    """
    bus = transport if transport is not None else _DEFAULT_TRANSPORT
    return bus.deliver_outboxes(graph, outboxes, fill)


def sequential_superstep(
    vertex_ids: List[int],
    update: Callable[[int, S, List[M]], Tuple[S, List[M]]],
) -> Superstep:
    """A superstep that updates vertices one by one, in id order.

    The id order fixes dict insertion order of the produced state map,
    which in turn fixes the float summation order of the observers — the
    property the sharded backend's merge step must (and does) preserve to
    stay bit-identical.
    """

    def superstep(states, inboxes):
        new_states: Dict[int, S] = {}
        outboxes: Dict[int, List[M]] = {}
        for vertex_id in vertex_ids:
            new_states[vertex_id], outboxes[vertex_id] = update(
                vertex_id, states[vertex_id], inboxes[vertex_id]
            )
        return new_states, outboxes

    return superstep


def batched_superstep(
    vertex_ids: List[int],
    update_many: Callable[[Sequence[S], Sequence[List[M]]], List[Tuple[S, List[M]]]],
) -> Superstep:
    """A superstep that hands all vertices, in id order, to one
    ``update_many(states, inboxes) -> [(new state, outbox)]`` call, entry
    for entry what the per-vertex ``update`` returns; the produced maps
    have :func:`sequential_superstep`'s insertion order."""

    def superstep(states, inboxes):
        updated = update_many(
            [states[vertex_id] for vertex_id in vertex_ids],
            [inboxes[vertex_id] for vertex_id in vertex_ids],
        )
        new_states = {vid: state for vid, (state, _) in zip(vertex_ids, updated)}
        outboxes = {vid: outbox for vid, (_, outbox) in zip(vertex_ids, updated)}
        return new_states, outboxes

    return superstep


class RoundLoop(Generic[S, M]):
    """A resumable handle over the §3.6 schedule for one graph and one
    :class:`Arithmetic`.

    Derives the initial states and no-op inboxes, then owns the (states,
    pending outboxes) pair between windows so a release policy can
    interleave aggregate/noise/release stages with the round schedule
    without the engine re-deriving resumption state. ``advance(n)`` runs
    ``n`` more computation steps through :func:`run_rounds` and returns
    the new trajectory entries; :meth:`advance_async` runs the same steps
    as :func:`run_rounds_async` pipelines over a transport. Span numbering
    continues exactly where the previous window stopped, so a windowed
    run's trace is the one-shot trace with extra release stages in between.

    ``superstep`` replaces the default one-by-one vertex update (the
    sharded engine fans it across a process pool, the ``fixed`` engine
    evaluates it as one circuit walk); ``transport`` is the
    bus :meth:`advance` routes over (``None``: the shared in-memory one).
    """

    def __init__(
        self,
        graph: DistributedGraph,
        arithmetic: Arithmetic[S, M],
        phases: Optional[PhaseTimer] = None,
        transport: Optional[Transport] = None,
        superstep: Optional[Superstep] = None,
    ) -> None:
        self.graph = graph
        self.arithmetic = arithmetic
        self.phases = phases
        self.transport = transport
        self.superstep: Superstep = (
            superstep
            if superstep is not None
            else sequential_superstep(graph.vertex_ids, arithmetic.update)
        )
        self.states: Dict[int, S] = {
            view.vertex_id: arithmetic.initial(view) for view in graph.vertices()
        }
        self.inboxes: Dict[int, List[M]] = {
            v: [arithmetic.fill] * graph.degree_bound for v in graph.vertex_ids
        }
        self.steps = 0
        self.pending: Optional[Dict[int, List[M]]] = None
        self.trajectory: List[float] = []

    def aggregate(self) -> float:
        """Current aggregate of the designated register."""
        return self.arithmetic.observe(self.states)

    def advance(self, rounds: int) -> List[float]:
        """Run ``rounds`` more computation steps; return their trajectory."""
        return self._commit(
            rounds,
            run_rounds(
                self.superstep,
                self._route,
                self.arithmetic.observe,
                self.states,
                self.inboxes,
                rounds,
                phases=self.phases,
                first_round=self._next_round(),
                resume_outboxes=self.pending,
            ),
        )

    async def advance_async(
        self,
        rounds: int,
        transport: Transport,
        max_tasks: Optional[int] = None,
        overlap: bool = True,
    ) -> List[float]:
        """:meth:`advance` as per-vertex pipelines over ``transport``."""
        return self._commit(
            rounds,
            await run_rounds_async(
                self.graph,
                self.arithmetic.update,
                self.arithmetic.observe,
                self.states,
                self.inboxes,
                rounds,
                transport,
                self.arithmetic.fill,
                max_tasks=max_tasks,
                overlap=overlap,
                phases=self.phases,
                first_round=self._next_round(),
                resume_outboxes=self.pending,
            ),
        )

    def _route(self, outboxes: Dict[int, List[M]]) -> Dict[int, List[M]]:
        return route_messages(
            self.graph, outboxes, self.arithmetic.fill, transport=self.transport
        )

    def _next_round(self) -> int:
        """Index of the next computation step: round numbering continues
        across windows (:func:`run_rounds`' resumption contract)."""
        return 0 if self.pending is None else self.steps + 1

    def _commit(
        self,
        rounds: int,
        outcome: Tuple[Dict[int, S], List[float], Dict[int, List[M]]],
    ) -> List[float]:
        self.states, trajectory, self.pending = outcome
        self.steps += rounds
        self.trajectory.extend(trajectory)
        return trajectory


async def run_rounds_async(
    graph: DistributedGraph,
    update: Callable[[int, S, List[M]], Tuple[S, List[M]]],
    observe: Callable[[Dict[int, S]], float],
    states: Dict[int, S],
    inboxes: Dict[int, List[M]],
    iterations: int,
    transport: Transport,
    fill: M,
    max_tasks: Optional[int] = None,
    overlap: bool = True,
    phases: Optional[PhaseTimer] = None,
    first_round: int = 0,
    resume_outboxes: Optional[Dict[int, List[M]]] = None,
) -> Tuple[Dict[int, S], List[float], Dict[int, List[M]]]:
    """The §3.6 schedule as per-vertex pipelines over a transport.

    Returns ``(final_states, trajectory, final_outboxes)`` with the same
    resumption contract as :func:`run_rounds`: pass the previous window's
    ``final_outboxes`` back as ``resume_outboxes`` (with ``first_round``
    set to the steps already taken plus one) to continue the schedule
    across release windows. The pending outboxes are routed synchronously
    through :meth:`~repro.core.transport.Transport.deliver_outboxes`
    before the per-vertex pipelines start — the §3.6 step boundary at a
    window edge is a full barrier anyway, so nothing is lost to overlap.

    Each vertex runs its own task: compute round ``r``, push the round's
    out-edge messages onto the bus in one
    :meth:`~repro.core.transport.Transport.send_round` call, then await
    its complete round-``r`` inbox
    (:meth:`~repro.core.transport.Transport.gather_round` — the round
    barrier) before computing round ``r + 1``. Nothing synchronizes
    *across* vertices between rounds, so a vertex whose neighbors already
    delivered computes ahead while slow links are still in flight — the
    communication/computation overlap the paper's WAN deployment assumes.
    The pipelines are the only Tasks this driver creates: a message is a
    call into the bus, which overlaps the links of one batch itself where
    they have a delay to wait.

    ``max_tasks`` bounds how many vertex pipelines may occupy the compute
    section at once: an :class:`asyncio.Semaphore` around the compute
    step, with an explicit suspension point inside so the gate genuinely
    contends (a synchronous-only critical section would always release
    before anyone else could attempt acquire, making the bound a no-op).
    Different ``max_tasks`` values therefore produce genuinely different
    task interleavings — and identical results, which is what the parity
    matrix asserts. The gate covers the compute section only; the message
    waits must stay concurrent or a one-task schedule would deadlock on
    its own barrier. ``overlap=False`` degrades to the fully
    sequential schedule — one ``send_round`` per edge, awaited one at a
    time in vertex-id order — which is the honest WAN baseline the async
    engine is measured against.

    Bit-identity argument: a vertex's round-``r`` inbox is complete if and
    only if it holds exactly the deliveries ``route_messages`` would have
    produced (transports never alter payloads or slots), so every
    ``update`` call sees the same ``(state, inbox)`` it sees under
    :func:`run_rounds`; per-round states are recorded per vertex and
    re-assembled in sorted-vertex order before ``observe`` runs, so float
    summation order matches the sequential engines exactly.
    """
    if iterations < 0:
        raise ConfigurationError("iteration count cannot be negative")
    if max_tasks is not None and max_tasks < 1:
        raise ConfigurationError("max_tasks must be at least 1")
    # Note on phase semantics under overlap: per-pipeline communication
    # waits run concurrently, so the summed "communication" seconds can
    # legitimately exceed wall-clock — that over-count *is* the overlap
    # the engine exists to exploit (documented in DESIGN.md).
    recorder = current_recorder()
    vertex_ids = graph.vertex_ids
    transport.open(graph, fill)
    if resume_outboxes is not None:
        if iterations < 1:
            raise ConfigurationError(
                "a resumed window needs at least one computation step"
            )
        # the communication half of the previous window's last computation
        # step: a full barrier sits at the window edge anyway, so routing
        # it synchronously loses no overlap
        with recorder.span("round", round=first_round - 1):
            with timed_phase(phases, "communication"):
                inboxes = transport.deliver_outboxes(graph, resume_outboxes, fill)
        full_rounds = iterations - 1
    else:
        full_rounds = iterations
    # the graph's routing table grouped by sender: senders resolve the
    # destination slot, the transport only moves payloads.
    routes: Dict[int, List[Tuple[int, int, int]]] = {vid: [] for vid in vertex_ids}
    for src, out_slot, dst, in_slot in graph.routes():
        routes[src].append((out_slot, dst, in_slot))

    def deliveries(vid: int, outbox: List[M]) -> List[Tuple[int, int, M]]:
        """``vid``'s round of ``(dst, in_slot, payload)``, out-slot order."""
        return [(dst, in_slot, outbox[out_slot]) for out_slot, dst, in_slot in routes[vid]]

    # round -> vertex -> state-after-that-computation-step. A round is
    # observed (in sorted-vertex order, preserving the reference float
    # summation order) as soon as every vertex has recorded it, and its
    # state map is freed — vertices record their rounds in order, so
    # rounds complete in order and retained state is bounded by how far
    # the fastest pipeline runs ahead of the slowest (O(vertices) when
    # progress is balanced; a source vertex with no in-edges can race
    # ahead and retain one entry per round it leads by).
    round_states: List[Dict[int, S]] = [{} for _ in range(full_rounds + 1)]
    num_vertices = len(vertex_ids)
    trajectory: List[float] = []
    final_outboxes: Dict[int, List[M]] = {}

    def record(round_index: int, vid: int, state: S) -> None:
        # snapshot, don't alias: observation is deferred until the whole
        # round completes, and an update that mutates its state dict in
        # place (instead of returning a fresh one) would otherwise leak a
        # fast vertex's future rounds into an earlier observation — the
        # sequential scheduler observes immediately, so async must see
        # the same values. A shallow copy covers the flat register maps
        # every engine uses.
        round_states[round_index][vid] = copy.copy(state)
        next_round = len(trajectory)
        while next_round <= full_rounds and len(round_states[next_round]) == num_vertices:
            per_round = round_states[next_round]
            trajectory.append(observe({v: per_round[v] for v in vertex_ids}))
            if next_round < full_rounds:  # the final round backs final_states
                round_states[next_round] = {}
            next_round += 1

    if overlap:
        gate = asyncio.Semaphore(max_tasks) if max_tasks is not None else None

        async def vertex_pipeline(vid: int) -> None:
            state = states[vid]
            inbox = inboxes[vid]
            for round_index in range(full_rounds):
                with recorder.span("round", round=first_round + round_index, vertex=vid):
                    if gate is not None:
                        async with gate:
                            # the yield makes the gate real: the holder
                            # suspends here, so other pipelines actually
                            # queue on acquire while this slot is occupied
                            await asyncio.sleep(0)
                            with timed_phase(phases, "computation"):
                                state, outbox = update(vid, state, inbox)
                    else:
                        with timed_phase(phases, "computation"):
                            state, outbox = update(vid, state, inbox)
                    record(round_index, vid, state)
                    with timed_phase(phases, "communication"):
                        if routes[vid]:
                            await transport.send_round(
                                vid, round_index, deliveries(vid, outbox)
                            )
                        inbox = await transport.gather_round(vid, round_index)
            with recorder.span("round", round=first_round + full_rounds, vertex=vid):
                with timed_phase(phases, "computation"):
                    state, final_outboxes[vid] = update(vid, state, inbox)
                record(full_rounds, vid, state)

        # first failure cancels the siblings: a transport fault (dropped
        # delivery, dead peer) raises in one pipeline while the others are
        # parked on their own barriers — on a real-socket bus each would
        # otherwise sit out its full I/O timeout before the error surfaces
        tasks = [asyncio.ensure_future(vertex_pipeline(vid)) for vid in vertex_ids]
        try:
            await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
    else:
        # Sequential reference schedule over the same bus: compute every
        # vertex, then send every edge as its own one-message round, one
        # at a time, then gather — no overlap anywhere, so wall-clock pays
        # the full sum of link delays.
        current = dict(states)
        current_inboxes = dict(inboxes)
        for round_index in range(full_rounds):
            with recorder.span("round", round=first_round + round_index):
                outboxes: Dict[int, List[M]] = {}
                with timed_phase(phases, "computation"):
                    for vid in vertex_ids:
                        current[vid], outboxes[vid] = update(
                            vid, current[vid], current_inboxes[vid]
                        )
                        record(round_index, vid, current[vid])
                with timed_phase(phases, "communication"):
                    for vid in vertex_ids:
                        for delivery in deliveries(vid, outboxes[vid]):
                            await transport.send_round(vid, round_index, [delivery])
                    for vid in vertex_ids:
                        current_inboxes[vid] = await transport.gather_round(
                            vid, round_index
                        )
        with recorder.span("round", round=first_round + full_rounds):
            with timed_phase(phases, "computation"):
                for vid in vertex_ids:
                    current[vid], final_outboxes[vid] = update(
                        vid, current[vid], current_inboxes[vid]
                    )
                    record(full_rounds, vid, current[vid])

    final_states = {vid: round_states[full_rounds][vid] for vid in vertex_ids}
    return final_states, trajectory, final_outboxes


class SecureRoundScheduler:
    """Overlap per-block crypto deliveries with the blocks still computing.

    The secure engine's rounds have a different shape from the plaintext
    ones: the expensive unit is not a vertex update but a *block batch* —
    the OT-extension bits a block's GMW evaluation puts on the wire, or a
    §3.5 transfer's aggregates. The values of those batches must be
    computed in the sequential engine's exact order (every fork of the
    :class:`~repro.crypto.rng.DeterministicRNG` consumes parent stream, so
    reordering crypto work would change the transcript and break
    bit-identity with ``engine="secure"``); what *can* overlap is the
    wire time. This scheduler is that overlap: :meth:`dispatch` hands a
    finished batch's per-link bytes to the bus as one
    :meth:`~repro.core.transport.Transport.convey_round` call in an
    asyncio task and returns to the caller immediately, so block ``b + 1``'s OT
    computation proceeds while block ``b``'s bytes are still in flight on
    a :class:`~repro.core.transport.SimulatedWanTransport`;
    :meth:`barrier` is the §3.6 step boundary — computation steps and
    communication steps never interleave.

    ``max_tasks`` bounds how many batch deliveries may be in flight at
    once (an :class:`asyncio.Semaphore` acquired inside the task, so
    dispatch itself never blocks the computing coroutine).
    ``overlap=False`` awaits every link of every batch one at a time —
    the honest sequential baseline, paying the full sum of link delays —
    which is what the tier-1 overlap ratio test in
    ``tests/test_async_overlap.py`` measures the overlap against.
    """

    def __init__(
        self,
        transport: Transport,
        max_tasks: Optional[int] = None,
        overlap: bool = True,
    ) -> None:
        if max_tasks is not None and max_tasks < 1:
            raise ConfigurationError("max_tasks must be at least 1")
        self.transport = transport
        self.overlap = bool(overlap)
        self._gate = asyncio.Semaphore(max_tasks) if max_tasks is not None else None
        #: This step's delivery tasks, finished or not: a batch that has
        #: already failed must still be in here for :meth:`barrier` to raise.
        self._pending: List[asyncio.Task] = []

    async def _deliver(self, links: List[LinkLoad], round_index: int, kind: str) -> None:
        if self._gate is None:
            await self.transport.convey_round(round_index, kind, links)
        else:
            async with self._gate:
                await self.transport.convey_round(round_index, kind, links)

    async def dispatch(
        self, link_bytes: LinkBytes, round_index: int, kind: str = "crypto"
    ) -> None:
        """Put one block batch on the wire.

        Overlapping mode schedules the batch as one ``convey_round`` task
        and yields once (so the task actually enters its link waits before
        the caller resumes computing); sequential mode awaits every link
        as its own one-link call, in sorted order.
        """
        links = [(src, dst, num_bytes) for (src, dst), num_bytes in sorted(link_bytes.items())]
        if not links:
            return
        if not self.overlap:
            for link in links:
                await self.transport.convey_round(round_index, kind, [link])
            return
        self._pending.append(asyncio.ensure_future(self._deliver(links, round_index, kind)))
        # let the fresh task reach its first await so its link delays are
        # genuinely in flight while the caller's next block computes
        await asyncio.sleep(0)

    async def run(self, events: WindowEvents) -> None:
        """Drive one secure window over the bus.

        ``events`` is :meth:`SecureEngine._window
        <repro.core.secure_engine.SecureEngine._window>` — the same body
        ``engine="secure"`` drains with a bare ``for`` loop. The generator
        does the crypto (in transcript order, between two ``next`` calls);
        this loop only decides what happens to the bytes it yields.
        """
        try:
            for event in events:
                if event is None:
                    await self.barrier()
                else:
                    step, kind, link_bytes = event
                    await self.dispatch(link_bytes, step, kind=kind)
        except BaseException:
            # close the window's open round/phase spans, then consume the
            # in-flight deliveries: unwinding past them would leak their
            # tasks (and log any sibling faults as never-retrieved) over
            # the real traceback
            events.close()
            await self.drain()
            raise

    async def barrier(self) -> None:
        """Await all in-flight deliveries (the §3.6 step boundary).

        Propagates the first delivery failure — a faulted convey raises
        here, at the step that depended on it, instead of hanging. Every
        task is awaited even on failure (``return_exceptions=True``), so
        sibling faults are consumed rather than logged as unretrieved.
        """
        pending, self._pending = self._pending, []
        if not pending:
            return
        outcomes = await asyncio.gather(*pending, return_exceptions=True)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome

    async def drain(self) -> None:
        """Consume every in-flight delivery, suppressing their failures.

        The cleanup path for a driver already unwinding another error:
        abandoned tasks would otherwise surface as "exception was never
        retrieved" noise over the real traceback.
        """
        pending, self._pending = self._pending, []
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
