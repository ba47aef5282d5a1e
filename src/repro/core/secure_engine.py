"""The DStress secure execution engine (§3.3–§3.6).

Runs a vertex program over a distributed graph such that no coalition of
at most ``k`` nodes learns anything beyond the differentially-private
output:

1. **Setup** — once per deployment (:func:`repro.core.setup.deployment_for`):
   the trusted party assigns blocks and issues block certificates. Per
   run, each node forwards certificates to its in-neighbors.
2. **Initialization** — every node XOR-shares its vertex's initial state
   (and ``D`` no-op inbox slots) among its block.
3. **Computation steps** — each block evaluates the program's update
   circuit under GMW; inputs and outputs stay shared.
4. **Communication steps** — each outgoing message's shares move along the
   edge through the §3.5 transfer protocol (subshares, exponential
   ElGamal, even geometric noise), landing as fresh shares at the
   receiving block.
5. **Aggregation + noising** — contribution registers are re-shared to
   the aggregation tree; the root block samples two-sided geometric noise
   inside MPC (Dwork-style bit sampler) and reveals only the noised sum.

All network traffic is metered per node *and per directed link*; timings
are recorded per phase. The engine is a faithful simulation: every byte it
reports corresponds to a protocol message of the real deployment.

One window body, two drivers. :meth:`SecureEngine._window` is a plain
generator that performs every crypto operation of a round window itself,
in one fixed order (every :meth:`~repro.crypto.rng.DeterministicRNG.fork`
consumes parent stream, so the order of crypto work *is* the transcript —
reordering it would change every share), and yields what each finished
block batch — a GMW evaluation's OT-extension bits, a transfer's
aggregates — puts on the wire. ``engine="secure"`` drains it with a
``for`` loop; ``secure-async`` feeds the same events to a
:class:`~repro.core.rounds.SecureRoundScheduler` that conveys the bytes
over a :class:`~repro.core.transport.Transport` while later blocks are
still computing. Released outputs are bit-identical between the two by
construction — there is no second copy of the loop to drift; only
wall-clock and the bus's own metering move.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.core.aggregation import AggregationPlan, plan_groups, reshare_word
from repro.core.config import DStressConfig
from repro.core.graph import DistributedGraph
from repro.core.program import NO_OP_MESSAGE, VertexProgram, compiled_update_circuit
from repro.core.rounds import LinkBytes, WindowEvents
from repro.core.setup import (
    AGGREGATION_BLOCK_ID,
    BlockAssignment,
    Deployment,
    deployment_for,
)
from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.ot import SimulatedObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError
from repro.mpc.circuit import Circuit
from repro.mpc.cost import Bill, bill_for
from repro.mpc.gmw import GMWEngine, GMWResult, PoolBuilder
from repro.mpc.noise_circuit import geometric_bits_seed_width
from repro.mpc.plan import noised_sum_bits_circuit, partial_sum_circuit
from repro.obs.metrics import absorb_gmw
from repro.obs.trace import current_recorder, timed_phase
from repro.sharing.xor import reconstruct_value, share_value
from repro.simulation.netsim import PhaseTimer, TrafficMeter
from repro.transfer.protocol import MessageTransferProtocol

__all__ = ["SecureEngine", "check_backend", "compile_secure_plans", "run_bill"]


def check_backend(backend: str, owner: str) -> str:
    """The one rule for which GMW gate evaluators exist (``owner`` names
    the rejecting engine in the error)."""
    if backend not in ("scalar", "bitsliced"):
        raise ConfigurationError(
            f"{owner} has no backend {backend!r}; choose 'scalar' or 'bitsliced'"
        )
    return backend


def _record_link(
    meter: TrafficMeter, link_bytes: LinkBytes, src: int, dst: int, num_bytes: float
) -> None:
    """Meter one directed send and accumulate it into a batch's link map."""
    meter.record_send(src, dst, num_bytes)
    key = (src, dst)
    link_bytes[key] = link_bytes.get(key, 0.0) + num_bytes


def _meter_transfer(ctx: "_RunContext", u: int, v: int) -> LinkBytes:
    """Meter one transfer at the run bill's per-role lines; returns its
    bytes per link for the transport dispatch."""
    meter, blocks, bill = ctx.meter, ctx.assignment.blocks, ctx.bill
    traffic = bill.transfer_bytes
    link_bytes: LinkBytes = {}
    for member in blocks[u]:
        if member != u:
            _record_link(meter, link_bytes, member, u, traffic.sender_member_bytes)
    if u != v:
        _record_link(meter, link_bytes, u, v, traffic.node_u_sent_bytes)
    for member in blocks[v]:
        if member != v:
            _record_link(meter, link_bytes, v, member, traffic.receiver_member_bytes)
    for member in blocks[u]:
        meter.node(member).exponentiations += bill.sender_exps
    meter.node(u).exponentiations += bill.u_exps
    meter.node(v).exponentiations += bill.v_exps
    for member in blocks[v]:
        meter.node(member).exponentiations += bill.receiver_exps
    return link_bytes


def _aggregation_plan(
    graph: DistributedGraph, config: DStressConfig, bits: int
) -> AggregationPlan:
    return AggregationPlan(
        groups=plan_groups(graph.vertex_ids, config.aggregation_fanout),
        value_bits=bits,
    )


def _root_circuit(
    program: VertexProgram,
    config: DStressConfig,
    num_inputs: int,
    width: int,
    epsilon: Optional[float],
) -> Tuple[Circuit, int]:
    """The root block's noised-sum circuit for one release at ``epsilon``
    (``None``: the config's one-shot budget) and its seed-bus width."""
    magnitude_bits = config.noise_magnitude_bits_for(program.sensitivity, epsilon)
    circuit = noised_sum_bits_circuit(
        num_inputs=num_inputs,
        value_bits=width,
        alpha=config.noise_alpha_for(program.sensitivity, epsilon),
        magnitude_bits=magnitude_bits,
        precision_bits=config.noise_precision_bits,
    )
    return circuit, geometric_bits_seed_width(magnitude_bits, config.noise_precision_bits)


def compile_secure_plans(
    program: VertexProgram,
    config: DStressConfig,
    graph: DistributedGraph,
    epsilons: Sequence[Optional[float]] = (None,),
) -> None:
    """Build, into the process-wide tables, what a lifecycle run of
    ``program`` on ``graph`` reads and no run changes: the §3.4 deployment
    under the config's seed, and every circuit the run evaluates — the
    update circuit at the graph's degree bound, the aggregation tree's
    partial sums and one noised-sum root per release epsilon.

    The batch layer and the cluster harness call this before they fork,
    so workers and parties inherit one deployment and compiled plans
    instead of each building their own; the walk below mirrors
    :meth:`SecureEngine._begin_run` and
    :meth:`SecureEngine._aggregation_tree`, which then hit the tables.
    """
    bits = program.fmt.total_bits
    deployment_for(
        config.group,
        DeterministicRNG(config.seed),
        graph.vertex_ids,
        graph.degree_bound,
        config.collusion_bound,
        bits,
    )
    compiled_update_circuit(program, graph.degree_bound)
    plan = _aggregation_plan(graph, config, bits)
    root_inputs = graph.num_vertices
    if plan.is_hierarchical:
        for size in sorted({len(group) for group in plan.groups}):
            partial_sum_circuit(size, bits, plan.group_sum_bits)
        root_inputs = len(plan.groups)
    for epsilon in epsilons:
        _root_circuit(program, config, root_inputs, plan.root_input_bits, epsilon)


def run_bill(
    program: VertexProgram,
    config: DStressConfig,
    graph: DistributedGraph,
    iterations: int,
    vertex_bound: Optional[Dict[int, int]] = None,
) -> Bill:
    """The bill of ``iterations`` rounds: ``iterations + 1`` computation
    steps of every vertex's update circuit at its §3.7 bound (default: the
    degree bound), and ``iterations`` communication steps of one transfer
    per edge, or per inbox slot under ``pad_transfers``."""
    if vertex_bound is None:
        vertex_bound = {v: graph.degree_bound for v in graph.vertex_ids}
    stats = {b: compiled_update_circuit(program, b).stats() for b in set(vertex_bound.values())}
    per_step = sum(vertex_bound.values()) if config.pad_transfers else graph.num_edges
    return bill_for(
        [stats[vertex_bound[v]] for v in graph.vertex_ids],
        config.block_size,
        steps=iterations + 1,
        transfers=iterations * per_step,
        message_bits=program.fmt.total_bits,
        element_bytes=config.group.element_size_bytes,
        ot_bytes=SimulatedObliviousTransfer(config.group).and_gate_bytes(),
    )


@dataclass
class _RunContext:
    """Mutable state of one execution.

    Built once by :meth:`SecureEngine._begin_run` and walked window by
    window through :meth:`SecureEngine._window`, whichever driver
    consumes the window's events.
    """

    graph: DistributedGraph
    iterations: int
    deployment: Deployment
    vertex_bound: Dict[int, int]
    circuits: Dict[int, Circuit]
    circuit_and_gates: int
    gmw: GMWEngine
    bill: Bill
    state_shares: Dict[int, Dict[str, List[int]]]
    inbox_shares: Dict[int, List[List[int]]]
    outbox_shares: Dict[int, List[List[int]]] = field(default_factory=dict)
    meter: TrafficMeter = field(default_factory=TrafficMeter)
    phases: PhaseTimer = field(default_factory=PhaseTimer)
    rng: DeterministicRNG = field(default_factory=DeterministicRNG)
    trajectory: List[float] = field(default_factory=list)
    total_ots: int = 0
    transfer_count: int = 0
    #: Computation steps executed so far. Lets a windowed run resume the
    #: §3.6 schedule exactly where the previous window stopped (the round
    #: span numbering continues, so the transcript order is unchanged).
    steps: int = 0

    @property
    def assignment(self) -> BlockAssignment:
        return self.deployment.assignment

    def block_inputs(self, v: int) -> Dict[str, List[int]]:
        """Vertex ``v``'s update-circuit inputs: its state registers plus
        one ``msg_in_<slot>`` bus per inbox slot, all as block shares."""
        shared_inputs = dict(self.state_shares[v])
        for slot, shares in enumerate(self.inbox_shares[v]):
            shared_inputs[f"msg_in_{slot}"] = shares
        return shared_inputs


class SecureEngine:
    """The full DStress protocol's window body and aggregation, driven
    stage by stage by the ``secure`` and ``secure-async`` lifecycle cores
    (:class:`repro.api.engines._SecureCore`).

    Every GMW evaluation is a lane batch with an offline/online phase
    split (:meth:`GMWEngine.evaluate_batch
    <repro.mpc.gmw.GMWEngine.evaluate_batch>`). ``backend`` only picks the
    lanes: ``"scalar"`` (default) one Python int per wire, stdlib only;
    ``"bitsliced"`` numpy uint64 words (:mod:`repro.mpc.bitslice`). Both
    produce bit-identical released outputs, shares, and metered traffic —
    the parity matrix asserts it — so the choice is purely a throughput
    knob.
    """

    def __init__(
        self,
        program: VertexProgram,
        config: DStressConfig,
        backend: str = "scalar",
    ) -> None:
        self.backend = check_backend(backend, "SecureEngine")
        self.program = program
        self.config = config
        if program.fmt.total_bits != self.config.fmt.total_bits:
            raise ConfigurationError("program and config fixed-point formats disagree")
        self.elgamal = ExponentialElGamal(
            self.config.group, dlog_half_width=self.config.dlog_half_width
        )
        self.transfer = MessageTransferProtocol(
            self.elgamal,
            message_bits=self.config.fmt.total_bits,
            noise_alpha=self.config.edge_noise_alpha,
        )

    # ------------------------------------------------------------- window --

    def _window(self, ctx: _RunContext, rounds: int, first: bool) -> WindowEvents:
        """Advance the §3.6 schedule by ``rounds`` computation steps.

        The one window body. It performs the crypto itself, in transcript
        order, and yields what goes on the wire: ``(step, kind,
        link_bytes)`` after each finished block batch, ``None`` at each
        step boundary. The consumer only decides what happens to those
        bytes — nothing (drain the generator) or a dispatch over the bus
        (:meth:`SecureRoundScheduler.run
        <repro.core.rounds.SecureRoundScheduler.run>`) — so it cannot
        change a share.

        A fresh window runs ``rounds`` full (computation + communication)
        steps plus the final computation step. A resumed window first runs
        the communication step the previous window's final computation
        left pending, so the windowed schedule's crypto order — and hence
        the transcript — is bit-identical to one uninterrupted run of the
        same total length. Round span numbering continues across windows.
        """
        recorder = current_recorder()
        base = ctx.steps
        if not first:
            if rounds < 1:
                raise ConfigurationError(
                    "a resumed window needs at least one computation step"
                )
            with recorder.span("round", round=base - 1):
                yield from self._communication_step(ctx, base - 1)
        final = base + (rounds if first else rounds - 1)
        for step in range(base, final + 1):
            with recorder.span("round", round=step):
                with timed_phase(ctx.phases, "computation"):
                    for batch in self._computation_blocks(ctx):
                        yield step, "ot", batch
                    yield None
                ctx.trajectory.append(
                    self._simulated_aggregate(ctx.graph, ctx.state_shares)
                )
                if step < final:  # the final computation step (§3.6) routes nothing
                    yield from self._communication_step(ctx, step)
        ctx.steps = final + 1

    def _communication_step(self, ctx: _RunContext, step: int) -> WindowEvents:
        """One communication step's transfer batches, then its barrier."""
        with timed_phase(ctx.phases, "communication"):
            for batch in self._communication_transfers(ctx):
                yield step, "transfer", batch
            yield None

    # --------------------------------------------------------- run phases --

    def _begin_run(
        self,
        graph: DistributedGraph,
        iterations: int,
        buckets: Optional[Sequence[int]] = None,
        phases: Optional[PhaseTimer] = None,
    ) -> _RunContext:
        """Setup + initialization (§3.4, §3.6 init): everything before the
        first computation step.

        ``buckets`` are the §3.7 degree buckets (:meth:`_assign_buckets`).
        ``phases`` lets a lifecycle driver share one timer between its
        stage timings and the engine's fine-grained phases; direct callers
        get a fresh one.
        """
        config = self.config
        program = self.program
        fmt = program.fmt
        bits = fmt.total_bits
        word_bytes = (bits + 7) / 8.0
        rng = DeterministicRNG(config.seed)
        meter = TrafficMeter()
        phases = phases if phases is not None else PhaseTimer()
        vertex_bound = self._assign_buckets(graph, buckets)

        # ---------------------------------------------------------- setup --
        with timed_phase(phases, "setup"):
            deployment = deployment_for(
                config.group,
                rng,
                graph.vertex_ids,
                graph.degree_bound,
                config.collusion_bound,
                bits,
            )
            self._setup_blocks(graph, meter, bits)

        # --------------------------------------------------------- init --
        with timed_phase(phases, "initialization"):
            state_shares, inbox_shares = self._share_initial_state(
                graph, config, program, vertex_bound, deployment.assignment, rng,
                meter, word_bytes,
            )

        circuits = {
            bound: compiled_update_circuit(program, bound)
            for bound in sorted(set(vertex_bound.values()))
        }
        lanes: Type[GMWEngine] = GMWEngine
        if self.backend == "bitsliced":
            # Imported lazily: numpy is an optional dependency and the
            # default int lanes must keep working without it.
            from repro.mpc.bitslice import BitslicedGMWEngine

            lanes = BitslicedGMWEngine
        gmw = lanes(config.block_size, ot=SimulatedObliviousTransfer(config.group))
        bill = run_bill(program, config, graph, iterations, vertex_bound)
        current_recorder().event(  # on the run span, before any of it is paid
            "bill", and_gates=bill.and_gates, rounds=bill.and_rounds, ots=bill.ots,
            transfers=bill.transfers, exponentiations=bill.exponentiations,
        )
        return _RunContext(
            graph=graph,
            iterations=iterations,
            deployment=deployment,
            vertex_bound=vertex_bound,
            circuits=circuits,
            circuit_and_gates=circuits[max(circuits)].stats().and_gates,
            gmw=gmw,
            bill=bill,
            state_shares=state_shares,
            inbox_shares=inbox_shares,
            meter=meter,
            phases=phases,
            rng=rng,
        )

    def _setup_blocks(self, graph: DistributedGraph, meter: TrafficMeter, bits: int) -> None:
        """The per-run part of §3.4: each node forwards certificate ``slot``
        of its own block to the in-neighbor on that slot. Leftover slots
        stay with the owner (padded self-transfers encrypt under them)."""
        cert_bytes = self.config.block_size * bits * self.elgamal.group.element_size_bytes
        for view in graph.vertices():
            for neighbor in view.in_neighbors:
                meter.record_send(view.vertex_id, neighbor, cert_bytes)

    def _share_initial_state(
        self,
        graph: DistributedGraph,
        config: DStressConfig,
        program: VertexProgram,
        vertex_bound: Dict[int, int],
        assignment: BlockAssignment,
        rng: DeterministicRNG,
        meter: TrafficMeter,
        word_bytes: float,
    ) -> Tuple[Dict[int, Dict[str, List[int]]], Dict[int, List[List[int]]]]:
        """§3.6 init: XOR-share every vertex's state and no-op inbox slots."""
        fmt = program.fmt
        bits = fmt.total_bits
        block_size = config.block_size
        state_shares: Dict[int, Dict[str, List[int]]] = {}
        inbox_shares: Dict[int, List[List[int]]] = {}
        raw_no_op = fmt.encode(NO_OP_MESSAGE)
        for view in graph.vertices():
            v = view.vertex_id
            bound = vertex_bound[v]
            initial = program.initial_state(view, bound)
            raw = program.encode_state(initial)
            shares: Dict[str, List[int]] = {}
            for reg in program.state_registers(bound):
                shares[reg] = share_value(fmt.to_unsigned(raw[reg]), bits, block_size, rng)
                self._meter_share_distribution(meter, v, assignment.blocks[v], word_bytes)
            state_shares[v] = shares
            inbox_shares[v] = []
            for _ in range(bound):
                inbox_shares[v].append(
                    share_value(fmt.to_unsigned(raw_no_op), bits, block_size, rng)
                )
                self._meter_share_distribution(meter, v, assignment.blocks[v], word_bytes)
        return state_shares, inbox_shares

    # ------------------------------------------------------------ phases --

    def _simulated_aggregate(self, graph: DistributedGraph, state_shares) -> float:
        """Reconstruct the pre-noise aggregate (simulation-only diagnostic).

        The harness — not any protocol participant — XORs the shares back
        together so results can expose a convergence trajectory comparable
        to the clear engines'.
        """
        fmt = self.program.fmt
        register = self.program.aggregate_register
        raw = 0
        for v in graph.vertex_ids:
            raw += fmt.from_unsigned(
                reconstruct_value(state_shares[v][register], fmt.total_bits)
            )
        return fmt.decode(raw)

    def _assign_buckets(
        self, graph: DistributedGraph, buckets: Optional[Sequence[int]]
    ) -> Dict[int, int]:
        """Map each vertex to its degree bound (§3.7 buckets).

        Without buckets every vertex pads to the global degree bound.
        With buckets (e.g. ``[10, 100]``), each vertex gets the smallest
        bucket that holds its actual degree; the largest bucket must cover
        the graph's maximum degree so any degree is placeable. This
        reveals each vertex's bucket — roughly its size class, which the
        paper accepts — in exchange for much cheaper MPC steps at
        low-degree vertices.
        """
        if buckets is None:
            return {v: graph.degree_bound for v in graph.vertex_ids}
        bounds = sorted(set(buckets))
        if not bounds or bounds[-1] < graph.max_degree():
            raise ConfigurationError(
                "largest bucket must cover the graph's maximum degree"
            )
        if bounds[0] < 1:
            raise ConfigurationError("bucket bounds must be positive")
        assignment = {}
        for view in graph.vertices():
            degree = max(view.in_degree, view.out_degree, 1)
            assignment[view.vertex_id] = next(b for b in bounds if b >= degree)
        return assignment

    def _meter_share_distribution(
        self, meter: TrafficMeter, src: int, members: List[int], word_bytes: float
    ) -> None:
        for member in members:
            if member != src:
                meter.record_send(src, member, word_bytes)

    def _computation_blocks(self, ctx: _RunContext) -> Iterator[LinkBytes]:
        """One §3.6 computation step, block by block.

        Evaluates every vertex block's update circuit under GMW
        (:meth:`_evaluate_blocks`), then, in vertex order — the transcript
        order — commits each block's new state and outbox shares and
        yields its OT batch as per-link bytes *after* metering it: one
        link batch per vertex, whichever backend ran, so a driver can
        dispatch block ``b``'s delivery before it asks for block ``b + 1``.
        """
        meter = ctx.meter
        for v, result in self._evaluate_blocks(ctx):
            bound = ctx.vertex_bound[v]
            registers = self.program.state_registers(bound)
            ctx.state_shares[v] = {reg: result.output_shares[reg] for reg in registers}
            ctx.outbox_shares[v] = [
                result.output_shares[f"msg_out_{slot}"] for slot in range(bound)
            ]
            members = ctx.assignment.blocks[v]
            link_bytes = self._meter_gmw(meter, members, result)
            for rank, member in enumerate(members):
                meter.node(member).ot_transfers += result.traffic.sender_ots(rank)
            ctx.total_ots += result.traffic.ot_count
            yield link_bytes

    def _evaluate_blocks(self, ctx: _RunContext) -> Iterator[Tuple[int, GMWResult]]:
        """The step's block evaluations: offline, online, then emit.

        **Offline** walks the vertices in vertex order — the transcript
        order — drawing each block's per-gate randomness from ``ctx.rng``
        exactly as a per-gate ``gmw.evaluate`` call would (same forks, same
        bytes), accumulating lane pools per circuit bound. **Online**
        evaluates each bound's vertices as lanes of one RNG-free batch
        (int lanes or numpy words, by backend). Results are emitted vertex
        by vertex, so state updates, traffic accumulation order, and the
        per-link batches handed to the window's consumer follow the
        transcript.
        """
        gmw = ctx.gmw
        vertex_ids = ctx.graph.vertex_ids

        with timed_phase(ctx.phases, "gmw-offline"):
            builders: Dict[int, PoolBuilder] = {}
            batch_inputs: Dict[int, List[Dict[str, List[int]]]] = {}
            batch_vertices: Dict[int, List[int]] = {}
            for v in vertex_ids:
                bound = ctx.vertex_bound[v]
                builder = builders.get(bound)
                if builder is None:
                    builder = builders[bound] = gmw.pool_builder(ctx.circuits[bound])
                    batch_inputs[bound] = []
                    batch_vertices[bound] = []
                builder.add_instance(ctx.rng)
                batch_inputs[bound].append(ctx.block_inputs(v))
                batch_vertices[bound].append(v)

        with timed_phase(ctx.phases, "gmw-online"):
            results: Dict[int, GMWResult] = {}
            for bound, builder in builders.items():
                batch = gmw.evaluate_batch(
                    ctx.circuits[bound], batch_inputs[bound], pools=builder.build()
                )
                results.update(zip(batch_vertices[bound], batch))

        for v in vertex_ids:
            yield v, results[v]

    def _communication_transfers(self, ctx: _RunContext) -> Iterator[LinkBytes]:
        """One §3.6 communication step, transfer by transfer.

        Executes the §3.5 protocol for each directed edge (in vertex/slot
        order — again the transcript order) and yields each transfer's
        wire bytes at link granularity. Local no-op padding (the cheap
        non-``pad_transfers`` mode) stays inside the generator: it moves
        share words between block members but is not an edge transfer.
        """
        config = self.config
        fmt = self.program.fmt
        graph = ctx.graph
        deployment = ctx.deployment
        routes: Dict[int, List[Tuple[int, int, int, int]]] = {
            vid: [] for vid in graph.vertex_ids
        }
        for route in graph.routes():
            routes[route[0]].append(route)
        for view in graph.vertices():
            for u, out_slot, v, in_slot in routes[view.vertex_id]:
                # the certificate v forwarded to u at setup: B_v's keys
                # under the neighbor key of the slot u occupies at v
                result = self.transfer.execute(
                    ctx.outbox_shares[u][out_slot],
                    deployment.certificates[v][in_slot],
                    deployment.neighbor_keys[v][in_slot],
                    [deployment.member_keys[m] for m in ctx.assignment.blocks[v]],
                    ctx.rng,
                )
                ctx.inbox_shares[v][in_slot] = result.receiver_shares
                ctx.transfer_count += 1
                yield _meter_transfer(ctx, u, v)
            if config.pad_transfers:
                yield from self._padded_self_transfers(ctx, view)
            else:
                # Unused inbox slots revert to fresh no-op shares from the
                # owner (cheap local padding; see DESIGN.md).
                raw_no_op = fmt.to_unsigned(fmt.encode(NO_OP_MESSAGE))
                for slot in range(view.in_degree, ctx.vertex_bound[view.vertex_id]):
                    ctx.inbox_shares[view.vertex_id][slot] = share_value(
                        raw_no_op, fmt.total_bits, config.block_size, ctx.rng
                    )
                    self._meter_share_distribution(
                        ctx.meter,
                        view.vertex_id,
                        ctx.assignment.blocks[view.vertex_id],
                        (fmt.total_bits + 7) / 8.0,
                    )

    def _padded_self_transfers(self, ctx: _RunContext, view) -> Iterator[LinkBytes]:
        """Run full no-op transfers on unused slots (degree hiding), each
        under the leftover certificate the owner kept for that slot."""
        config = self.config
        fmt = self.program.fmt
        deployment = ctx.deployment
        v = view.vertex_id
        receiver_keys = [deployment.member_keys[m] for m in ctx.assignment.blocks[v]]
        for slot in range(view.in_degree, ctx.vertex_bound[v]):
            shares = share_value(
                fmt.to_unsigned(fmt.encode(NO_OP_MESSAGE)),
                fmt.total_bits,
                config.block_size,
                ctx.rng,
            )
            result = self.transfer.execute(
                shares,
                deployment.certificates[v][slot],
                deployment.neighbor_keys[v][slot],
                receiver_keys,
                ctx.rng,
            )
            ctx.inbox_shares[v][slot] = result.receiver_shares
            ctx.transfer_count += 1
            yield _meter_transfer(ctx, v, v)

    # -------------------------------------------------------- aggregation --

    def _aggregation_tree(
        self, ctx: _RunContext
    ) -> Tuple[List[List[int]], int, int, int]:
        """Re-share contribution registers up the aggregation tree.

        Returns the root block's input shares, their bit width, the tree
        depth, and the simulation-only pre-noise aggregate (raw LSBs).
        """
        graph = ctx.graph
        gmw = ctx.gmw
        state_shares = ctx.state_shares
        assignment = ctx.assignment
        meter = ctx.meter
        rng = ctx.rng
        config = self.config
        program = self.program
        fmt = program.fmt
        bits = fmt.total_bits

        plan = _aggregation_plan(graph, config, bits)
        root_members = assignment.blocks[AGGREGATION_BLOCK_ID]

        def reshare_to(
            share_words: List[int], width: int, src_members: List[int], dst_members: List[int]
        ) -> List[int]:
            fresh = reshare_word(share_words, width, len(dst_members), rng)
            for src in src_members:
                for dst in dst_members:
                    if src != dst:
                        meter.record_send(src, dst, (width + 7) / 8.0)
            return fresh

        register = program.aggregate_register
        pre_noise_raw = 0
        for v in graph.vertex_ids:
            pre_noise_raw += fmt.from_unsigned(
                reconstruct_value(state_shares[v][register], bits)
            )

        if plan.is_hierarchical:
            group_width = plan.group_sum_bits
            group_sum_shares: List[List[int]] = []
            for group in plan.groups:
                # The group's aggregation block: reuse the first member's
                # block (already a uniformly random k+1 subset).
                group_block = assignment.blocks[group[0]]
                circuit = partial_sum_circuit(len(group), bits, group_width)
                shared_inputs = {}
                for index, v in enumerate(group):
                    shared_inputs[f"state_{index}"] = reshare_to(
                        state_shares[v][register], bits, assignment.blocks[v], group_block
                    )
                (result,) = gmw.evaluate_batch(circuit, [shared_inputs], rng)
                self._meter_gmw(meter, group_block, result)
                group_sum_shares.append(
                    reshare_to(
                        result.output_shares["partial_sum"],
                        group_width,
                        group_block,
                        root_members,
                    )
                )
            root_inputs = group_sum_shares
            root_width = group_width
            levels = 2
        else:
            root_inputs = [
                reshare_to(state_shares[v][register], bits, assignment.blocks[v], root_members)
                for v in graph.vertex_ids
            ]
            root_width = bits
            levels = 1
        return root_inputs, root_width, levels, pre_noise_raw

    def _noise_and_reveal(
        self,
        ctx: _RunContext,
        root_inputs: List[List[int]],
        root_width: int,
        epsilon: Optional[float] = None,
    ) -> int:
        """Root-block noised sum: in-MPC geometric sampler, then reveal."""
        gmw = ctx.gmw
        meter = ctx.meter
        rng = ctx.rng
        config = self.config
        program = self.program
        root_members = ctx.assignment.blocks[AGGREGATION_BLOCK_ID]

        root_circuit, seed_width = _root_circuit(
            program, config, len(root_inputs), root_width, epsilon
        )
        shared_inputs = {f"state_{i}": shares for i, shares in enumerate(root_inputs)}
        # Every root member contributes its own uniform word as its share of
        # the seed; XOR of the shares is the seed, so one honest member
        # suffices for uniformity (§3.6 "combine the random shares").
        shared_inputs["seed"] = [rng.fork(f"seed-{m}").randbits(seed_width) for m in root_members]
        (result,) = gmw.evaluate_batch(root_circuit, [shared_inputs], rng)
        self._meter_gmw(meter, root_members, result)

        noised_raw = result.reveal("noised_sum", signed=True)
        # Revealing the output: every root member publishes its share.
        out_width = result.bus_widths["noised_sum"]
        for member in root_members:
            for other in root_members:
                if member != other:
                    meter.record_send(member, other, (out_width + 7) / 8.0)
        return noised_raw

    def _meter_gmw(self, meter: TrafficMeter, members: List[int], result) -> LinkBytes:
        """Attribute a GMW evaluation's wire traffic to the member nodes.

        Uses the engine's per-ordered-pair accounting
        (:attr:`~repro.mpc.gmw.GMWTraffic.pair_bits`), so every OT-extension
        byte lands on a directed *link* between two real block members —
        node totals are unchanged (the pair map sums to the per-party
        totals by construction) but link-level hot spots become visible
        and the secure-async driver can dispatch the returned map.
        """
        link_bytes: LinkBytes = {}
        for (i, j), pair_bytes in result.traffic.pair_bytes().items():
            _record_link(meter, link_bytes, members[i], members[j], pair_bytes)
        for member in members:
            meter.node(member).gmw_evaluations += 1
        recorder = current_recorder()
        if recorder.enabled:
            # pair indices are block-local; attribute the bits to the real
            # member node ids so the series lines up with the per-link meter
            absorb_gmw(
                recorder.metrics,
                {
                    (members[i], members[j]): bits
                    for (i, j), bits in result.traffic.pair_bits.items()
                },
            )
        return link_bytes
