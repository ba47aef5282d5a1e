"""The round scheduler: the §3.6 execution skeleton, engine-independent.

Every DStress execution — float reference, clear circuit evaluation and
the secure protocol's simulation harness — walks the same schedule:
``n`` computation+communication rounds (update every vertex, route the
out-slot messages to the matching in-slots, observe the aggregate)
followed by one final computation step. This module owns that
skeleton so backends only supply the three varying pieces:

* ``superstep`` — advance *all* vertices one computation step. The
  float engine takes one numpy step over every vertex's registers at
  once (:class:`ColumnLoop`, ``VertexProgram.float_update_many``); the
  ``fixed`` engine walks the update circuit once, a lane per vertex
  (:func:`batched_superstep`).
* ``route`` — deliver outboxes to inboxes. :func:`route_messages`
  implements the §3.6 slot-to-slot delivery for any payload type (floats
  or raw fixed-point words), in-process: values never travel on a bus.
* ``observe`` — record the designated aggregate after each round (the
  convergence trajectory).

:class:`RoundLoop` binds the three to one graph and one
:class:`Arithmetic` — the float reference or the clear fixed-point
circuits — and is the single place a clear run's state lives between
release windows. :class:`ColumnLoop` is the float loop: the same handle
over a register matrix.

The schedule is written once, as a generator of wire events
(:meth:`RoundLoop.window`, :data:`WindowEvents`): ``None`` at every step
boundary, and before the boundary of each routed communication step
``(round, "round", link_bytes)`` — one word per routed link. The secure
protocol's window (:class:`~repro.core.secure_engine.SecureRun`) yields
the same shape. A window is consumed one of two ways: drained in process
(:meth:`RoundLoop.advance` and the memory bus), or a
:class:`RoundScheduler` conveys every event over a
:class:`~repro.core.transport.Transport`
(:meth:`~repro.core.transport.Transport.drive`, under every engine given
another bus). The consumer only decides where the bytes go, so it cannot
change a value.

Determinism contract: a fresh window of ``n`` steps calls ``superstep``
exactly ``n + 1`` times with identical inputs regardless of who computes
the superstep, so two backends whose supersteps are pointwise equal
produce bit-identical trajectories and final states.
"""

from __future__ import annotations

import asyncio
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, compress
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
from repro.core.transport import LinkLoad, Transport
from repro.exceptions import ConfigurationError
from repro.obs.trace import current_recorder, timed_phase
from repro.simulation.netsim import PhaseTimer

try:  # optional: the float loop's column form
    import numpy as np
except ImportError:  # pragma: no cover - container always ships numpy
    np = None  # type: ignore[assignment]

__all__ = [
    "route_messages",
    "sequential_superstep",
    "batched_superstep",
    "Arithmetic",
    "RoundLoop",
    "ColumnLoop",
    "LinkBytes",
    "WindowEvent",
    "WindowEvents",
    "RoundScheduler",
]

#: Per-vertex state payload (float registers or raw fixed-point registers).
S = TypeVar("S")
#: Message payload (float or raw fixed-point word).
M = TypeVar("M")

#: states, inboxes -> new states, outboxes (maps keyed by vertex id; a
#: :class:`ColumnLoop`'s register matrix and slot-by-vertex arrays).
Superstep = Callable[[Dict[int, S], Dict[int, List[M]]], Tuple[Dict[int, S], Dict[int, List[M]]]]

#: Ordered directed link with a byte payload: the unit a bus conveys.
LinkBytes = Mapping[Tuple[int, int], float]

#: What a window puts on the wire, in transcript order: one ``(step, kind,
#: link_bytes)`` per finished batch (a clear communication step, a secure
#: block batch), and ``None`` at every §3.6 step boundary (the barrier
#: marker).
WindowEvent = Optional[Tuple[int, str, LinkBytes]]
#: One window: a generator, so a consumer that fails can ``close()`` it.
WindowEvents = Generator[WindowEvent, None, None]


@dataclass(frozen=True)
class Arithmetic(Generic[S, M]):
    """The number representation a clear run computes in.

    The float reference and the clear evaluation of the MPC circuits walk
    one schedule over one graph; these pieces are everything that differs
    between them, so both clear engines (plaintext, fixed) take their
    initial state, vertex update, aggregate and result decoding from the
    same value.
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
    #: What one message costs on a link: a fixed-point word of the
    #: program's format, whatever the arithmetic computes in (the figure
    #: :func:`~repro.simulation.netsim.meter_from_rounds` books).
    word_bytes: float


def _round_events(
    superstep: Superstep,
    route: Callable[[Dict[int, List[M]]], Dict[int, List[M]]],
    observe: Callable[[Dict[int, S]], float],
    states: Dict[int, S],
    inboxes: Dict[int, List[M]],
    iterations: int,
    phases: Optional[PhaseTimer],
    first_round: int,
    resume_outboxes: Optional[Dict[int, List[M]]],
    link_bytes: LinkBytes,
) -> Generator[WindowEvent, None, Tuple[Dict[int, S], List[float], Dict[int, List[M]]]]:
    """The one body of the clear schedule (:meth:`RoundLoop.window`'s
    contract) as wire events: ``None`` at every step boundary, and each
    communication step's ``link_bytes`` before its own; returns the final
    states, the trajectory and the final step's unrouted outboxes."""
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
            inboxes = yield from _communicate(
                route, resume_outboxes, phases, round_index - 1, link_bytes
            )
        remaining = iterations - 1
    else:
        remaining = iterations
    for _ in range(remaining):
        with recorder.span("round", round=round_index):
            with timed_phase(phases, "computation"):
                states, outboxes = superstep(states, inboxes)
            yield None
            inboxes = yield from _communicate(
                route, outboxes, phases, round_index, link_bytes
            )
        trajectory.append(observe(states))
        round_index += 1
    with recorder.span("round", round=round_index):
        with timed_phase(phases, "computation"):
            states, final_outboxes = superstep(states, inboxes)
        yield None
    trajectory.append(observe(states))
    return states, trajectory, final_outboxes


def _communicate(route, outboxes, phases, round_index, link_bytes):
    """One communication step: route in process, then put the step's
    bytes on the wire as bus round ``round_index`` and close it with its
    barrier (timed as communication, whoever carries the bytes)."""
    with timed_phase(phases, "communication"):
        inboxes = route(outboxes)
        yield round_index, "round", link_bytes
        yield None
    return inboxes


def route_messages(
    graph: DistributedGraph,
    outboxes: Dict[int, List[M]],
    fill: M,
) -> Dict[int, List[M]]:
    """Deliver out-slot messages to the matching in-slots (§3.6).

    Unused in-slots hold ``fill`` (the encoded no-op message), so every
    vertex always receives exactly ``degree_bound`` messages and the
    communication pattern leaks nothing about the true degree.
    """
    inboxes = {vid: [fill] * graph.degree_bound for vid in graph.vertex_ids}
    for src, out_slot, dst, in_slot in graph.routes():
        inboxes[dst][in_slot] = outboxes[src][out_slot]
    return inboxes


def sequential_superstep(
    vertex_ids: List[int],
    update: Callable[[int, S, List[M]], Tuple[S, List[M]]],
) -> Superstep:
    """A superstep that updates vertices one by one, in id order: the
    per-vertex float loop's step (a program without
    ``float_update_many``, a host without numpy).

    The id order fixes dict insertion order of the produced state map,
    which in turn fixes the float summation order of the observers.
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
    without the engine re-deriving resumption state. :meth:`window` is
    ``n`` more computation steps of ``superstep`` as a generator of wire
    events; :meth:`advance` drains it in process and returns the new
    trajectory entries. Span numbering continues exactly where the
    previous window stopped, so a windowed run's trace is the one-shot
    trace with extra release stages in between.

    States and messages are per-vertex maps here; the schedule routes
    them with :func:`route_messages`.
    """

    def __init__(
        self,
        graph: DistributedGraph,
        arithmetic: Arithmetic[S, M],
        superstep: Superstep,
        phases: Optional[PhaseTimer] = None,
    ) -> None:
        self.graph = graph
        self.arithmetic = arithmetic
        self.phases = phases
        self.superstep = superstep
        self.states, self.inboxes = self._start(
            {view.vertex_id: arithmetic.initial(view) for view in graph.vertices()}
        )
        self.steps = 0
        self.pending = None
        self.trajectory: List[float] = []
        #: what every communication step puts on the wire
        self.link_bytes: LinkBytes = _RoutedBytes(graph, arithmetic.word_bytes)

    def rows(self) -> Dict[int, S]:
        """Every vertex's current state, by id in id order."""
        return self.states

    def aggregate(self) -> float:
        """Current aggregate of the designated register."""
        return self._observe(self.states)

    def window(self, rounds: int) -> WindowEvents:
        """Run ``rounds`` more computation steps, yielding ``None`` at
        every step boundary and, before a communication step's boundary,
        its wire event ``(round, "round", link_bytes)``.

        The first window runs ``rounds`` computation+communication steps,
        then one final computation step whose outgoing messages stay
        pending (not routed). Resumption contract: one window of ``a + b``
        steps is step-for-step identical to a window of ``a`` then one of
        ``b``. The resumed window first routes the pending outboxes (the
        communication half of step ``a``, bus round ``a``), then runs
        ``b - 1`` full steps and the final computation step, so
        supersteps see the same inputs in the same order and the
        trajectory and final states concatenate bit-identically.
        Computation step ``s`` communicates as bus round ``s`` on every
        window.

        ``phases`` accumulates per-phase wall-clock through the shared
        :func:`~repro.obs.trace.timed_phase` path. Telemetry reads only the
        injectable clock: it never touches the RNG or reorders work, so
        traced runs stay bit-identical."""
        self.states, trajectory, self.pending = yield from _round_events(
            self.superstep,
            self._route,
            self._observe,
            self.states,
            self.inboxes,
            rounds,
            self.phases,
            self._next_round(),
            self.pending,
            self.link_bytes,
        )
        self.steps += rounds
        self.trajectory.extend(trajectory)

    def advance(self, rounds: int) -> List[float]:
        """Run ``rounds`` more computation steps in process; return their
        trajectory."""
        start = len(self.trajectory)
        for _event in self.window(rounds):
            pass
        return self.trajectory[start:]

    def _start(self, rows: Dict[int, S]):
        """The initial (states, inboxes) in this loop's form."""
        fill, degree_bound = self.arithmetic.fill, self.graph.degree_bound
        return rows, {vid: [fill] * degree_bound for vid in rows}

    def _route(self, outboxes: Dict[int, List[M]]) -> Dict[int, List[M]]:
        return route_messages(self.graph, outboxes, self.arithmetic.fill)

    def _observe(self, states: Dict[int, S]) -> float:
        return self.arithmetic.observe(states)

    def _next_round(self) -> int:
        """Index of the next computation step: round numbering continues
        across windows (:meth:`window`'s resumption contract)."""
        return 0 if self.pending is None else self.steps + 1


class _RoutedBytes(Mapping):
    """``num_bytes`` on every routed link of ``graph``, in ``(src, dst)``
    order: what one clear communication step puts on the wire. Built on
    first read, so a run drained in process never builds it."""

    def __init__(self, graph: DistributedGraph, num_bytes: float) -> None:
        self._graph = graph
        self._num_bytes = num_bytes
        self._links: Optional[Dict[Tuple[int, int], float]] = None

    def _table(self) -> Dict[Tuple[int, int], float]:
        if self._links is None:
            links = sorted((src, dst) for src, _, dst, _ in self._graph.routes())
            self._links = dict.fromkeys(links, self._num_bytes)
        return self._links

    def __getitem__(self, link):
        return self._table()[link]

    def __iter__(self):
        return iter(self._table())

    def __len__(self) -> int:
        return len(self._table())

    def items(self):
        return self._table().items()


class ColumnLoop(RoundLoop[Dict[str, float], float]):
    """The float :class:`RoundLoop`, in column form.

    Between rounds the state is one ``R x V`` float64 register matrix —
    ``states[j]`` is register ``registers[j]`` of every vertex, in id
    order — and messages are ``D x V`` arrays, one row per slot.
    ``superstep`` takes and returns them whole
    (``VertexProgram.float_update_many``); a round routes by one
    precomputed gather over :meth:`DistributedGraph.routes
    <repro.core.graph.DistributedGraph.routes>`, the no-op message in
    every unused in-slot; the aggregate is the builtin ``sum`` of the
    aggregate register in vertex order, as the per-vertex observer sums
    it. Per-vertex dicts are rebuilt only by :meth:`rows`, each in its
    vertex's ``initial`` key order.
    """

    def __init__(
        self,
        graph: DistributedGraph,
        arithmetic: Arithmetic[Dict[str, float], float],
        superstep: Superstep,
        registers: Sequence[str],
        aggregate_register: str,
        phases: Optional[PhaseTimer] = None,
    ) -> None:
        self.registers = tuple(registers)
        self._column = self.registers.index(aggregate_register)
        super().__init__(graph, arithmetic, superstep, phases)

    def _start(self, rows):
        registers = self.registers
        width = len(registers)
        values = chain.from_iterable(map(state.__getitem__, registers) for state in rows.values())
        matrix = np.fromiter(values, float, len(rows) * width).reshape(len(rows), width).T
        # rows() refills each vertex's initial dict, keeping its key order,
        # its extra registers and every value whose bits a step left alone
        self._templates = list(rows.values())
        self._initial = matrix.copy()
        self._ids = list(rows)
        num_vertices, degree_bound = len(rows), self.graph.degree_bound
        cells = num_vertices * degree_bound
        # in-slot t of vertex i is cell t * V + i; it reads its out-slot's
        # cell, an unused one the padding cell past the outboxes
        position = {vid: i for i, vid in enumerate(self._ids)}
        gather = [cells] * cells
        for src, out_slot, dst, in_slot in self.graph.routes():
            gather[in_slot * num_vertices + position[dst]] = (
                out_slot * num_vertices + position[src]
            )
        self._gather = np.array(gather, dtype=np.intp)
        self._padded = np.empty(cells + 1)
        self._padded[cells] = self.arithmetic.fill
        inboxes = np.empty((degree_bound, num_vertices))
        inboxes.fill(self.arithmetic.fill)
        return matrix, inboxes

    def rows(self) -> Dict[int, Dict[str, float]]:
        registers, states, initial = self.registers, self.states, self._initial
        # as under float_update's dict copy, a register whose bits no step
        # moved keeps its initial object (an int cash stays an int)
        moved = states.view(np.int64) != initial.view(np.int64)
        rows = {}
        for vid, template, values, changed in zip(
            self._ids, self._templates, states.T.tolist(), moved.T.tolist()
        ):
            rows[vid] = state = template.copy()
            state.update(compress(zip(registers, values), changed))
        return rows

    def _route(self, outboxes: "np.ndarray") -> "np.ndarray":
        padded = self._padded
        padded[:-1] = outboxes.reshape(-1)
        return padded[self._gather].reshape(outboxes.shape)

    def _observe(self, states: "np.ndarray") -> float:
        return sum(states[self._column].tolist())


class RoundScheduler:
    """Put one window's wire events on a bus, overlapping each batch's
    wire time with the computation that follows it.

    The values a window carries are computed in process, in transcript
    order, by the window generator itself (a clear
    :meth:`RoundLoop.window` or a secure
    :class:`~repro.core.secure_engine.SecureRun` window: every fork of the
    :class:`~repro.crypto.rng.DeterministicRNG` consumes parent stream, so
    reordering that work would change the transcript); what *can* overlap
    is the wire time. :meth:`dispatch` hands a finished batch's per-link
    bytes — a clear communication step's words, a secure block's
    OT-extension bits, a §3.5 transfer's masked words — to the bus as one
    :meth:`~repro.core.transport.Transport.convey_round` call in an
    asyncio task and returns to the caller immediately, so block
    ``b + 1``'s OT computation proceeds while block ``b``'s bytes are
    still in flight on a :class:`~repro.core.transport.SimulatedWanTransport`;
    :meth:`barrier` is the §3.6 step boundary — computation steps and
    communication steps never interleave.

    ``max_tasks`` bounds how many batch deliveries may be in flight at
    once (an :class:`asyncio.Semaphore` acquired inside the task, so
    dispatch itself never blocks the computing coroutine).
    """

    def __init__(self, transport: Transport, max_tasks: int) -> None:
        if max_tasks < 1:
            raise ConfigurationError("max_tasks must be at least 1")
        self.transport = transport
        self._gate = asyncio.Semaphore(max_tasks)
        #: This step's delivery tasks, finished or not: a batch that has
        #: already failed must still be in here for :meth:`barrier` to raise.
        self._pending: List[asyncio.Task] = []

    async def _deliver(self, links: List[LinkLoad], round_index: int, kind: str) -> None:
        async with self._gate:
            await self.transport.convey_round(round_index, kind, links)

    async def dispatch(
        self, link_bytes: LinkBytes, round_index: int, kind: str
    ) -> None:
        """Put one batch on the wire: one ``convey_round`` task over
        its links in sorted order, then one yield, so the task actually
        enters its link waits before the caller resumes computing.
        """
        links = [(src, dst, num_bytes) for (src, dst), num_bytes in sorted(link_bytes.items())]
        if not links:
            return
        self._pending.append(asyncio.ensure_future(self._deliver(links, round_index, kind)))
        # let the fresh task reach its first await so its link delays are
        # genuinely in flight while the caller's next block computes
        await asyncio.sleep(0)

    async def run(self, events: WindowEvents) -> None:
        """Drive one window over the bus.

        ``events`` is the same window body an in-process engine drains
        with a bare ``for`` loop. The generator computes (in transcript
        order, between two ``next`` calls); this loop only decides what
        happens to the bytes it yields.
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
