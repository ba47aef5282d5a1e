"""The DStress secure execution engine (§3.3–§3.6).

Runs a vertex program over a distributed graph such that no coalition of
at most ``k`` nodes learns anything beyond the differentially-private
output:

1. **Setup** — once per deployment (:func:`repro.core.setup.deployment_for`):
   the trusted party assigns blocks and issues block certificates. Per
   run, each node forwards certificates to its in-neighbors, and every
   transferring edge slot agrees one element per sender–receiver pair,
   hashed into a pad stream for every step of the run
   (:func:`repro.transfer.pads.agree_pads`).
2. **Initialization** — every node XOR-shares its vertex's initial state
   (and ``D`` no-op inbox slots) among its block.
3. **Computation steps** — each block evaluates the program's update
   circuit under GMW; inputs and outputs stay shared.
4. **Communication steps** — each outgoing message's shares move along the
   edge as subshares under the step's words of the agreed pad streams
   (:class:`repro.transfer.pads.PadTransfer`), landing as fresh shares at
   the receiving block; each slot's traffic is replayed from a send plan
   fixed at setup.
5. **Aggregation + noising** — contribution registers are re-shared to
   the aggregation tree; the root block samples two-sided geometric noise
   inside MPC (Dwork-style bit sampler) and reveals only the noised sum.

All network traffic is metered per node *and per directed link*; timings
are recorded per phase. The engine is a faithful simulation: every byte it
reports corresponds to a protocol message of the real deployment.

One run, one object: :class:`SecureRun` is the lifecycle core whose
stages are the protocol's and whose attributes are the run's state. Its
window body is a plain generator that performs every crypto operation of
a round window itself, in one fixed order (only the deployment reads
the run's one sequential stream; every share, subshare, ephemeral, noise
seed and GMW evaluation reads a stream derived for the party that draws
it, by step, vertex, group or member, once per use, split in a canonical
order that no loop order moves),
and yields what each finished
block batch — a GMW evaluation's OT-extension bits, a transfer's
masked words — puts on the wire. ``engine="secure"`` hands the window to
its bus (:meth:`~repro.core.transport.Transport.drive`): the memory bus
drains it in place, every other bus conveys the bytes through a
:class:`~repro.core.rounds.RoundScheduler` while later blocks are still
computing. Released outputs are bit-identical on every bus by
construction — there is one window body and the bus sees only bytes;
only wall-clock and the bus's own metering move.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Type

from repro.core.aggregation import AggregationPlan, plan_groups, reshare_words
from repro.core.config import DStressConfig
from repro.core.graph import DistributedGraph
from repro.core.lifecycle import LifecycleCore, RunState
from repro.core.program import NO_OP_MESSAGE, VertexProgram, compiled_update_circuit
from repro.core.rounds import LinkBytes, WindowEvents
from repro.core.setup import (
    AGGREGATION_BLOCK_ID,
    BlockAssignment,
    Deployment,
    deployment_for,
)
from repro.crypto.ot import SimulatedObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError
from repro.mpc.circuit import Circuit
from repro.mpc.cost import Bill, TransferLines, bill_for
from repro.mpc.gmw import GMWEngine, GMWResult, LanePools
from repro.mpc.noise_circuit import geometric_bits_seed_width
from repro.mpc.plan import noised_sum_bits_circuit, partial_sum_circuit
from repro.obs.clock import now as clock_now
from repro.obs.metrics import absorb_gmw
from repro.obs.trace import current_recorder, timed_phase
from repro.sharing.xor import reconstruct_value, share_words
from repro.simulation.netsim import PhaseTimer, SendPlan, TrafficMeter
from repro.transfer.pads import PadTransfer, SlotPads, agree_pads

__all__ = ["SecureRun", "check_backend", "compile_secure_plans", "run_bill"]


def check_backend(backend: str, owner: str) -> str:
    """The one rule for which GMW gate evaluators exist, checked where an
    engine is built (``owner`` names the rejecting engine in the error)."""
    if backend not in ("scalar", "bitsliced"):
        raise ConfigurationError(
            f"{owner} has no backend {backend!r}; choose 'scalar' or 'bitsliced'"
        )
    return backend


def _fan(sources: Sequence[Sequence[int]], targets: Sequence[int], num_bytes: float) -> SendPlan:
    """``num_bytes`` from every member of each source block to every other
    member of ``targets``: one send per link, its bytes summed."""
    counts: Dict[int, int] = {}
    for block in sources:
        for src in block:
            counts[src] = counts.get(src, 0) + 1
    # a count times a multiple of 1/8 is the exact float the per-word sum was
    return SendPlan(
        (src, dst, count * num_bytes)
        for src, count in counts.items()
        for dst in targets
        if src != dst
    )


#: One transferring edge slot: ``(u, out_slot, v, in_slot)``; ``out_slot``
#: is ``None`` for a padded self-transfer, which carries a no-op.
Slot = Tuple[int, Optional[int], int, int]
#: A receiving slot ``(v, in_slot)``: what a slot's pads and splits are
#: filed under, and the canonical order a drawing party splits one read in.
SlotKey = Tuple[int, int]


def _transfer_sends(
    blocks: Mapping[int, Sequence[int]], lines: TransferLines, u: int, v: int
) -> SendPlan:
    """One transfer's (or key agreement's) sends from ``B_u`` to ``B_v`` at
    a bill's per-role lines: the senders to ``u``, ``u`` to ``v``, ``v``
    to the receivers. A pad transfer's plan is all its metering; a key
    agreement also books its exponentiations."""
    return SendPlan(
        [(member, u, lines.sender_bytes) for member in blocks[u] if member != u]
        + ([(u, v, lines.u_bytes)] if u != v else [])
        + [(v, member, lines.receiver_bytes) for member in blocks[v] if member != v]
    )


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


def _release_circuits(
    program: VertexProgram,
    config: DStressConfig,
    graph: DistributedGraph,
    epsilon: Optional[float],
) -> List[Circuit]:
    """What one release evaluates, each circuit once, in order: the
    aggregation tree's partial sum per group (hierarchical plans only),
    then the root block's noised sum at ``epsilon``."""
    bits = program.fmt.total_bits
    plan = _aggregation_plan(graph, config, bits)
    circuits: List[Circuit] = []
    root_inputs = graph.num_vertices
    if plan.is_hierarchical:
        circuits = [
            partial_sum_circuit(len(group), bits, plan.group_sum_bits) for group in plan.groups
        ]
        root_inputs = len(plan.groups)
    circuits.append(_root_circuit(program, config, root_inputs, plan.root_input_bits, epsilon)[0])
    return circuits


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
    :meth:`SecureRun.setup` and :meth:`SecureRun.aggregate`, which then
    hit the tables.
    """
    deployment_for(
        config.group,
        DeterministicRNG(config.seed),
        graph.vertex_ids,
        graph.degree_bound,
        config.collusion_bound,
    )
    compiled_update_circuit(program, graph.degree_bound)
    for epsilon in epsilons:
        _release_circuits(program, config, graph, epsilon)


def run_bill(
    program: VertexProgram,
    config: DStressConfig,
    graph: DistributedGraph,
    iterations: int,
    vertex_bound: Optional[Dict[int, int]] = None,
    epsilons: Sequence[Optional[float]] = (None,),
) -> Bill:
    """The bill of ``iterations`` rounds: ``iterations + 1`` computation
    steps of every vertex's update circuit at its §3.7 bound (default: the
    degree bound), one key agreement at setup per transferring slot — each
    edge, or each inbox slot under ``pad_transfers`` — and ``iterations``
    communication steps of one transfer per such slot. Its ``mask_bytes``
    also count one release per entry of ``epsilons`` (``None``: the
    config's one-shot budget), aggregation tree and noised sum."""
    if vertex_bound is None:
        vertex_bound = {v: graph.degree_bound for v in graph.vertex_ids}
    stats = {b: compiled_update_circuit(program, b).stats() for b in set(vertex_bound.values())}
    per_step = sum(vertex_bound.values()) if config.pad_transfers else graph.num_edges
    return bill_for(
        [stats[vertex_bound[v]] for v in graph.vertex_ids],
        config.block_size,
        steps=iterations + 1,
        transfers=iterations * per_step,
        key_agreements=per_step,
        message_bits=program.fmt.total_bits,
        element_bytes=config.group.element_size_bytes,
        ot_bytes=SimulatedObliviousTransfer(config.group).and_gate_bytes(),
        releases=[
            circuit.stats()
            for epsilon in epsilons
            for circuit in _release_circuits(program, config, graph, epsilon)
        ],
    )


class SecureRun(LifecycleCore):
    """One run of the full DStress protocol, as the lifecycle's stages.

    :func:`~repro.core.lifecycle.run_lifecycle` calls :meth:`setup` once,
    then :meth:`run_window`, :meth:`aggregate` and :meth:`noise` once per
    release window, then :meth:`finalize`. The attributes are the run's
    state: what setup agreed (``deployment``, ``pads``, ``slots``),
    the live shares (``state_shares``, ``inbox_shares``,
    ``outbox_shares``), the evaluator and its bill (``gmw``, ``bill``),
    and what the run recorded (``meter``, ``phases``, ``rng``,
    ``trajectory``, ``total_ots``, ``transfer_count``). Between windows
    they are the resumption payload: window ``j + 1`` continues the §3.6
    schedule where window ``j`` stopped.

    ``engine`` is the registry engine whose options the run reads; its
    ``backend`` (checked where the engine is built, :func:`check_backend`)
    only picks the GMW lanes: ``"scalar"`` one Python int per wire,
    stdlib only; ``"bitsliced"`` numpy uint64 words
    (:mod:`repro.mpc.bitslice`). Both produce bit-identical released
    outputs, shares, and metered traffic — the parity matrix asserts it.
    Its ``buckets`` are the §3.7 degree buckets (:meth:`_assign_buckets`).
    """

    deployment: Deployment
    vertex_bound: Dict[int, int]
    circuits: Dict[int, Circuit]
    circuit_and_gates: int
    gmw: GMWEngine
    bill: Bill
    #: each vertex, in transcript order, with the slots it transfers on
    slots: List[Tuple[Any, List[Slot]]]
    #: what every communication step repeats, fixed at setup
    #: (:meth:`_plan_transfers`): each vertex in transcript order with its
    #: slots' send plans, then its local no-op reverts' (``None`` under
    #: ``pad_transfers``)
    transfer_plans: List[Tuple[int, List[Tuple[SlotKey, SendPlan]], Optional[SendPlan]]]
    #: each sending block member's slots ``(v, in_slot, rank, u, out_slot)``
    #: in ``(v, in_slot)`` order, ``rank`` its position in ``B_u``
    sender_slots: Dict[int, List[Tuple[int, int, int, int, Optional[int]]]]
    #: each owner's no-op inbox slots (padded sends or local reverts)
    no_op_slots: Dict[int, List[int]]
    #: the pad streams agreed at setup, by receiving slot
    pads: Dict[SlotKey, SlotPads]
    state_shares: Dict[int, Dict[str, List[int]]]
    inbox_shares: Dict[int, List[List[int]]]
    meter: TrafficMeter
    phases: PhaseTimer
    rng: DeterministicRNG
    #: what :meth:`aggregate` hands :meth:`noise`: the root block's input
    #: shares, their bit width, and the pre-noise aggregate (raw LSBs)
    root_inputs: List[List[int]]
    root_width: int
    pre_noise_raw: int

    def __init__(
        self,
        engine: Any,
        program: VertexProgram,
        graph: DistributedGraph,
        config: DStressConfig,
    ) -> None:
        if program.fmt.total_bits != config.fmt.total_bits:
            raise ConfigurationError("program and config fixed-point formats disagree")
        self.engine = engine
        self.program = program
        self.graph = graph
        self.config = config
        self.transfer = PadTransfer(config.fmt.total_bits)
        self.outbox_shares: Dict[int, List[List[int]]] = {}
        self.trajectory: List[float] = []
        self.total_ots = 0
        self.transfer_count = 0
        #: Computation steps executed so far. Lets a windowed run resume the
        #: §3.6 schedule exactly where the previous window stopped (the round
        #: span numbering continues, so the transcript order is unchanged).
        self.steps = 0
        #: aggregation-tree depth of the last :meth:`aggregate`
        self.levels = 0

    @property
    def assignment(self) -> BlockAssignment:
        return self.deployment.assignment

    # ------------------------------------------------------------- stages --

    def setup(self, state: RunState) -> None:
        """Setup + initialization (§3.4, §3.6 init): everything before the
        first computation step, timed into the lifecycle's timer."""
        config = self.config
        program = self.program
        graph = self.graph
        self.rng = rng = DeterministicRNG(config.seed)
        self.meter = TrafficMeter()
        self.phases = state.phases
        self.vertex_bound = self._assign_buckets()
        self.bill = bill = run_bill(
            program, config, graph, sum(state.windows), self.vertex_bound,
            self.engine.release_policy.epsilon_schedule(config),
        )
        current_recorder().event(  # on the run span, before any of it is paid
            "bill", and_gates=bill.and_gates, rounds=bill.and_rounds, ots=bill.ots,
            transfers=bill.transfers, exponentiations=bill.exponentiations,
            mask_bytes=bill.mask_bytes,
        )
        self.slots = list(self._transfer_slots())

        # ---------------------------------------------------------- setup --
        with timed_phase(self.phases, "setup"):
            self.deployment = deployment_for(
                config.group,
                rng,
                graph.vertex_ids,
                graph.degree_bound,
                config.collusion_bound,
            )
            self._setup_blocks()
            self._plan_transfers()
            self.pads = self._agree_pads(sum(state.windows))

        # --------------------------------------------------------- init --
        with timed_phase(self.phases, "initialization"):
            self._share_initial_state()

        self.circuits = {
            bound: compiled_update_circuit(program, bound)
            for bound in sorted(set(self.vertex_bound.values()))
        }
        self.circuit_and_gates = self.circuits[max(self.circuits)].stats().and_gates
        lanes: Type[GMWEngine] = GMWEngine
        if self.engine.backend == "bitsliced":
            # Imported lazily: numpy is an optional dependency and the
            # default int lanes must keep working without it.
            from repro.mpc.bitslice import BitslicedGMWEngine

            lanes = BitslicedGMWEngine
        self.gmw = lanes(config.block_size, ot=SimulatedObliviousTransfer(config.group))

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        self.drive(self._window(rounds, first))
        state.trajectory = list(self.trajectory)

    def aggregate(self, state: RunState) -> float:
        """Re-share contribution registers up the aggregation tree and
        return the simulation-only pre-noise aggregate.

        The tree consumes shared randomness, so it runs once per window;
        the root block's inputs wait in ``root_inputs`` for :meth:`noise`.
        Group ``g``'s partial sum reads ``rng.derive("gmw-aggregate",
        window, g)``. A holder splits every word it re-shares into group
        ``g`` from one read of ``rng.derive("reshare", window, g, holder)``
        (a flat tree is group 0), and group ``g``'s sum on to the root
        from ``("reshare", window, "root", g, holder)``.
        """
        graph = self.graph
        state_shares = self.state_shares
        assignment = self.assignment
        meter = self.meter
        rng = self.rng
        bits = self.program.fmt.total_bits
        register = self.program.aggregate_register

        with timed_phase(self.phases, "aggregation"):
            plan = _aggregation_plan(graph, self.config, bits)
            root_members = assignment.blocks[AGGREGATION_BLOCK_ID]

            def reshare_to(
                words: List[Any], width: int, targets: List[int], *labels: Any
            ) -> List[List[int]]:
                meter.replay(_fan([holders for holders, _ in words], targets, (width + 7) / 8.0))
                return reshare_words(words, width, len(targets), rng, ("reshare", *labels))

            self.pre_noise_raw = self._raw_aggregate()

            if plan.is_hierarchical:
                group_width = plan.group_sum_bits
                group_sums: List[List[int]] = []
                for index, group in enumerate(plan.groups):
                    # The group's aggregation block: reuse the first member's
                    # block (already a uniformly random k+1 subset).
                    group_block = assignment.blocks[group[0]]
                    circuit = partial_sum_circuit(len(group), bits, group_width)
                    fresh = reshare_to(
                        [(assignment.blocks[v], state_shares[v][register]) for v in group],
                        bits, group_block, state.window, index,
                    )
                    inputs = {f"state_{k}": shares for k, shares in enumerate(fresh)}
                    stream = rng.derive("gmw-aggregate", state.window, index)
                    (result,) = self._online(circuit, [inputs], self._pools(circuit, [stream]))
                    self._meter_gmw(group_block, result)
                    group_sums += reshare_to(
                        [(group_block, result.output_shares["partial_sum"])],
                        group_width, root_members, state.window, "root", index,
                    )
                self.root_inputs = group_sums
                self.root_width = group_width
                self.levels = 2
            else:
                self.root_inputs = reshare_to(
                    [(assignment.blocks[v], state_shares[v][register]) for v in graph.vertex_ids],
                    bits, root_members, state.window, 0,
                )
                self.root_width = bits
                self.levels = 1
        return self.pre_noise_raw * self.program.fmt.resolution

    def noise(self, state, pre_noise, epsilon, end):
        """Root-block noised sum at ``epsilon`` (``None``: the config's
        one-shot budget): in-MPC geometric sampler, then reveal. Root
        member ``m`` draws its seed share from ``rng.derive("noise-seed",
        window, m)``; the evaluation reads ``rng.derive("gmw-noise",
        window)``."""
        meter = self.meter
        rng = self.rng
        root_members = self.assignment.blocks[AGGREGATION_BLOCK_ID]

        with timed_phase(self.phases, "aggregation"):
            root_circuit, seed_width = _root_circuit(
                self.program, self.config, len(self.root_inputs), self.root_width, epsilon
            )
            shared_inputs = {f"state_{i}": shares for i, shares in enumerate(self.root_inputs)}
            # Every root member contributes its own uniform word as its share of
            # the seed; XOR of the shares is the seed, so one honest member
            # suffices for uniformity (§3.6 "combine the random shares").
            shared_inputs["seed"] = [
                rng.derive("noise-seed", state.window, m).randbits(seed_width)
                for m in root_members
            ]
            pools = self._pools(root_circuit, [rng.derive("gmw-noise", state.window)])
            (result,) = self._online(root_circuit, [shared_inputs], pools)
            self._meter_gmw(root_members, result)

            noised_raw = result.reveal("noised_sum", signed=True)
            # Revealing the output: every root member publishes its share.
            out_width = result.bus_widths["noised_sum"]
            meter.replay(_fan([root_members], root_members, (out_width + 7) / 8.0))
        return noised_raw * self.program.fmt.resolution, noised_raw - self.pre_noise_raw

    def finalize(self, state: RunState, started: float) -> Any:
        # a secure run always releases, so the lifecycle stamps the released
        # fields (aggregate / pre-noise / noise / epsilon) from its records
        from repro.api.result import RunResult

        return RunResult(
            engine=self.engine.name,
            program=self.program.name,
            aggregate=state.releases[-1].value,
            trajectory=list(self.trajectory),
            iterations=state.rounds_done,
            wall_seconds=clock_now() - started,
            traffic=self.meter,
            phases=self.phases,
            extras={
                "transfer_count": float(self.transfer_count),
                "gmw_ot_count": float(self.total_ots),
                "aggregation_levels": float(self.levels),
            },
        )

    # ------------------------------------------------------------- window --

    def _window(self, rounds: int, first: bool) -> WindowEvents:
        """Advance the §3.6 schedule by ``rounds`` computation steps.

        The one window body. It performs the crypto itself, in transcript
        order, and yields what goes on the wire: ``(step, kind,
        link_bytes)`` after each finished block batch, ``None`` at each
        step boundary. The bus only decides what happens to those bytes
        — nothing (drain the generator) or a dispatch
        (:meth:`Transport.drive <repro.core.transport.Transport.drive>`)
        — so it cannot change a share.

        A fresh window runs ``rounds`` full (computation + communication)
        steps plus the final computation step. A resumed window first runs
        the communication step the previous window's final computation
        left pending, so the windowed schedule's crypto order — and hence
        the transcript — is bit-identical to one uninterrupted run of the
        same total length. Round span numbering continues across windows.
        """
        recorder = current_recorder()
        base = self.steps
        if not first:
            if rounds < 1:
                raise ConfigurationError(
                    "a resumed window needs at least one computation step"
                )
            with recorder.span("round", round=base - 1):
                yield from self._communication_step(base - 1)
        final = base + (rounds if first else rounds - 1)
        fmt = self.program.fmt
        for step in range(base, final + 1):
            with recorder.span("round", round=step):
                with timed_phase(self.phases, "computation"):
                    for batch in self._computation_blocks(step):
                        yield step, "ot", batch
                    yield None
                self.trajectory.append(fmt.decode(self._raw_aggregate()))
                if step < final:  # the final computation step (§3.6) routes nothing
                    yield from self._communication_step(step)
        self.steps = final + 1

    def _communication_step(self, step: int) -> WindowEvents:
        """One communication step's transfer batches, then its barrier."""
        with timed_phase(self.phases, "communication"):
            for batch in self._communication_transfers(step):
                yield step, "transfer", batch
            yield None

    # -------------------------------------------------------------- setup --

    def _setup_blocks(self) -> None:
        """The per-run part of §3.4: each node forwards certificate ``slot``
        of its own block to the in-neighbor on that slot. Leftover slots
        stay with the owner (padded self-transfers agree keys under them)."""
        cert_bytes = self.config.block_size * self.config.group.element_size_bytes
        for view in self.graph.vertices():
            for neighbor in view.in_neighbors:
                self.meter.record_send(view.vertex_id, neighbor, cert_bytes)

    def _transfer_slots(self) -> Iterator[Tuple[Any, List[Slot]]]:
        """Each vertex, in vertex order, with the slots it sends on: one per
        out-edge, in route order, then under ``pad_transfers`` one no-op
        self-transfer per unused inbox slot (degree hiding)."""
        graph = self.graph
        routes: Dict[int, List[Slot]] = {vid: [] for vid in graph.vertex_ids}
        for route in graph.routes():
            routes[route[0]].append(route)
        for view in graph.vertices():
            slots = routes[view.vertex_id]
            if self.config.pad_transfers:
                v = view.vertex_id
                slots += [
                    (v, None, v, slot) for slot in range(view.in_degree, self.vertex_bound[v])
                ]
            yield view, slots

    def _plan_transfers(self) -> None:
        """Fix at setup what every communication step repeats: each slot's
        transfer sends at the bill's pad lines, each vertex's local no-op
        revert fan, the slots each sending block member splits for, and
        each owner's no-op slots."""
        blocks = self.assignment.blocks
        lines = self.bill.pad
        revert_bytes = (self.program.fmt.total_bits + 7) / 8.0
        self.transfer_plans, self.sender_slots, self.no_op_slots = [], {}, {}
        for view, sends in self.slots:
            owner = view.vertex_id
            unused = list(range(view.in_degree, self.vertex_bound[owner]))
            if unused:
                self.no_op_slots[owner] = unused
            plans = []
            for u, out_slot, v, in_slot in sends:
                plans.append(((v, in_slot), _transfer_sends(blocks, lines, u, v)))
                for rank, x in enumerate(blocks[u]):
                    self.sender_slots.setdefault(x, []).append((v, in_slot, rank, u, out_slot))
            revert = None
            if not self.config.pad_transfers:
                revert = _fan([[owner]] * len(unused), blocks[owner], revert_bytes)
            self.transfer_plans.append((owner, plans, revert))
        for owned in self.sender_slots.values():
            owned.sort()

    def _agree_pads(self, steps: int) -> Dict[SlotKey, SlotPads]:
        """The transfer's per-run setup: one key agreement per transferring
        slot, under the certificate ``v`` forwarded to ``u`` for it —
        ``B_v``'s keys under the neighbor key of the slot ``u`` occupies at
        ``v`` — hashed into pad streams for the run's ``steps``
        communication steps. Sender member ``x`` draws the ephemerals of
        all its slots from one stream, ``rng.derive("agree", x)``, in
        ``(v, in_slot)`` order."""
        deployment = self.deployment
        blocks = deployment.assignment.blocks
        group = self.config.group
        size = self.config.block_size
        ephemerals: Dict[SlotKey, List[int]] = {}
        for x, owned in self.sender_slots.items():
            stream = self.rng.derive("agree", x)
            for v, in_slot, rank, _u, _out_slot in owned:
                ephemerals.setdefault((v, in_slot), [0] * size)[rank] = group.random_scalar(stream)
        secrets = {
            v: [deployment.member_keys[m].secrets[0] for m in blocks[v]] for v in blocks
        }
        bits = self.program.fmt.total_bits
        lines = self.bill.agreement
        meter = self.meter
        pads: Dict[SlotKey, SlotPads] = {}
        for _view, sends in self.slots:
            for u, _out_slot, v, in_slot in sends:
                pads[v, in_slot] = agree_pads(
                    group,
                    deployment.certificates[v][in_slot],
                    deployment.neighbor_keys[v][in_slot],
                    secrets[v],
                    ephemerals[v, in_slot],
                    steps,
                    bits,
                )
                meter.replay(_transfer_sends(blocks, lines, u, v))
                for member in blocks[u]:
                    meter.node(member).exponentiations += lines.sender_exps
                meter.node(u).exponentiations += lines.u_exps
                meter.node(v).exponentiations += lines.v_exps
                for member in blocks[v]:
                    meter.node(member).exponentiations += lines.receiver_exps
        return pads

    def _share_initial_state(self) -> None:
        """§3.6 init: XOR-share every vertex's state and no-op inbox slots.
        Vertex ``v`` splits all of its words from one read of
        ``rng.derive("init", v)``."""
        program = self.program
        fmt = program.fmt
        bits = fmt.total_bits
        blocks = self.assignment.blocks
        self.state_shares = {}
        self.inbox_shares = {}
        raw_no_op = fmt.to_unsigned(fmt.encode(NO_OP_MESSAGE))
        for view, _sends in self.slots:
            v = view.vertex_id
            bound = self.vertex_bound[v]
            raw = program.encode_state(program.initial_state(view, bound))
            registers = program.state_registers(bound)
            values = [fmt.to_unsigned(raw[reg]) for reg in registers] + [raw_no_op] * bound
            shares = share_words(values, bits, self.config.block_size, self.rng.derive("init", v))
            self.state_shares[v] = dict(zip(registers, shares))
            self.inbox_shares[v] = shares[len(registers) :]
            self.meter.replay(_fan([[v]] * len(values), blocks[v], (bits + 7) / 8.0))

    def _assign_buckets(self) -> Dict[int, int]:
        """Map each vertex to its degree bound (§3.7 buckets).

        Without buckets every vertex pads to the global degree bound.
        With buckets (e.g. ``[10, 100]``), each vertex gets the smallest
        bucket that holds its actual degree; the largest bucket must cover
        the graph's maximum degree so any degree is placeable. This
        reveals each vertex's bucket — roughly its size class, which the
        paper accepts — in exchange for much cheaper MPC steps at
        low-degree vertices.
        """
        graph = self.graph
        if self.engine.buckets is None:
            return {v: graph.degree_bound for v in graph.vertex_ids}
        bounds = sorted(set(self.engine.buckets))
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

    # ------------------------------------------------------------- phases --

    def _raw_aggregate(self) -> int:
        """The pre-noise aggregate in raw LSBs (simulation-only).

        The harness — not any protocol participant — XORs the shares back
        together, for the convergence trajectory (comparable to the clear
        engines') and the released record's pre-noise value.
        """
        fmt = self.program.fmt
        register = self.program.aggregate_register
        raw = 0
        for v in self.graph.vertex_ids:
            raw += fmt.from_unsigned(
                reconstruct_value(self.state_shares[v][register], fmt.total_bits)
            )
        return raw

    def _computation_blocks(self, step: int) -> Iterator[LinkBytes]:
        """One §3.6 computation step, block by block.

        Evaluates every vertex block's update circuit under GMW
        (:meth:`_evaluate_blocks`), then, in vertex order — the transcript
        order — commits each block's new state and outbox shares and
        yields its OT batch as per-link bytes *after* metering it: one
        link batch per vertex, whichever backend ran, so a driver can
        dispatch block ``b``'s delivery before it asks for block ``b + 1``.
        """
        meter = self.meter
        for v, result in self._evaluate_blocks(step):
            bound = self.vertex_bound[v]
            registers = self.program.state_registers(bound)
            self.state_shares[v] = {reg: result.output_shares[reg] for reg in registers}
            self.outbox_shares[v] = [
                result.output_shares[f"msg_out_{slot}"] for slot in range(bound)
            ]
            members = self.assignment.blocks[v]
            link_bytes = self._meter_gmw(members, result)
            for rank, member in enumerate(members):
                meter.node(member).ot_transfers += result.traffic.sender_ots(rank)
            self.total_ots += result.traffic.ot_count
            yield link_bytes

    def _block_inputs(self, v: int) -> Dict[str, List[int]]:
        """Vertex ``v``'s update-circuit inputs: its state registers plus
        one ``msg_in_<slot>`` bus per inbox slot, all as block shares."""
        shared_inputs = dict(self.state_shares[v])
        for slot, shares in enumerate(self.inbox_shares[v]):
            shared_inputs[f"msg_in_{slot}"] = shares
        return shared_inputs

    def _evaluate_blocks(self, step: int) -> Iterator[Tuple[int, GMWResult]]:
        """The step's block evaluations: offline, online, then emit.

        **Offline** (:meth:`_offline_batches`) builds one lane pool per
        circuit bound from each vertex's derived stream. **Online**
        evaluates each bound's vertices as lanes of one RNG-free batch
        (int lanes or numpy words, by backend). Results are emitted vertex
        by vertex, so state updates, traffic accumulation order, and the
        per-link batches handed to the window's consumer follow the
        transcript.
        """
        vertex_ids = self.graph.vertex_ids
        with timed_phase(self.phases, "gmw-offline"):
            batches = self._offline_batches(step, vertex_ids)

        with timed_phase(self.phases, "gmw-online"):
            results: Dict[int, GMWResult] = {}
            for bound, (vertices, pools) in batches.items():
                inputs = [self._block_inputs(v) for v in vertices]
                results.update(zip(vertices, self._online(self.circuits[bound], inputs, pools)))

        for v in vertex_ids:
            yield v, results[v]

    def _offline_batches(
        self, step: int, vertices: Sequence[int]
    ) -> Dict[int, Tuple[List[int], LanePools]]:
        """Each circuit bound's vertices, in the order given, with their
        pool. Vertex ``v`` reads ``rng.derive("gmw", step, v)`` and
        nothing else, so the pools do not depend on the order."""
        by_bound: Dict[int, List[int]] = {}
        for v in vertices:
            by_bound.setdefault(self.vertex_bound[v], []).append(v)
        return {
            bound: (
                members,
                self._pools(
                    self.circuits[bound], [self.rng.derive("gmw", step, v) for v in members]
                ),
            )
            for bound, members in by_bound.items()
        }

    def _pools(self, circuit: Circuit, streams: Sequence[DeterministicRNG]) -> LanePools:
        """One GMW batch's offline phase, one instance per stream; a traced
        run counts its mask bytes (``gmw.mask_bytes``) and its seconds
        (``gmw.offline_s``)."""
        started = clock_now()
        builder = self.gmw.pool_builder(circuit)
        for stream in streams:
            builder.add_instance(stream)
        pools = builder.build()
        recorder = current_recorder()
        if recorder.enabled:
            recorder.metrics.inc("gmw.mask_bytes", builder.mask_bytes)
            recorder.metrics.observe("gmw.offline_s", clock_now() - started)
        return pools

    def _online(self, circuit: Circuit, inputs: List[Any], pools: LanePools) -> List[GMWResult]:
        """One GMW batch's online phase, observed as ``gmw.online_s`` when traced."""
        started = clock_now()
        results = self.gmw.evaluate_batch(circuit, inputs, pools=pools)
        recorder = current_recorder()
        if recorder.enabled:
            recorder.metrics.observe("gmw.online_s", clock_now() - started)
        return results

    def _communication_transfers(self, step: int) -> Iterator[LinkBytes]:
        """One §3.6 communication step, transfer by transfer.

        Moves each slot's shares on the pads agreed at setup and yields
        each transfer's wire bytes at link granularity, replayed from the
        slot's send plan. Every drawing party reads once per step: owner
        ``v`` shares all its no-ops (padded sends or local reverts) from
        ``rng.derive("no-op", step, v)``, in slot order, and sender member
        ``x`` splits its shares of every slot it sends on from
        ``rng.derive("transfer", step, x)``, in ``(v, in_slot)`` order, so
        the shares do not depend on the slot order. Local no-op padding
        (the cheap non-``pad_transfers`` mode) stays inside the generator:
        it moves share words between block members but is not an edge
        transfer.
        """
        fmt = self.program.fmt
        bits = fmt.total_bits
        size = self.config.block_size
        rng = self.rng
        raw_no_op = fmt.to_unsigned(fmt.encode(NO_OP_MESSAGE))
        outbox = self.outbox_shares
        no_ops: Dict[SlotKey, List[int]] = {}
        for owner, slots in self.no_op_slots.items():
            drawn = share_words([raw_no_op] * len(slots), bits, size, rng.derive("no-op", step, owner))
            no_ops.update(zip([(owner, slot) for slot in slots], drawn))
        splits: Dict[SlotKey, List[Any]] = {}
        for x, owned in self.sender_slots.items():
            # x's share of what each slot carries: a message, or a padded no-op
            words = [
                (no_ops[v, in_slot] if out_slot is None else outbox[u][out_slot])[rank]
                for v, in_slot, rank, u, out_slot in owned
            ]
            drawn = share_words(words, bits, size, rng.derive("transfer", step, x))
            for (v, in_slot, rank, _u, _out_slot), split in zip(owned, drawn):
                splits.setdefault((v, in_slot), [None] * size)[rank] = split
        for owner, plans, revert in self.transfer_plans:
            for key, plan in plans:
                v, in_slot = key
                self.inbox_shares[v][in_slot] = self.transfer.deliver(
                    splits[key], self.pads[key], step
                )
                self.transfer_count += 1
                yield self.meter.replay(plan)
            if revert is not None:
                # Unused inbox slots revert to fresh no-op shares from the
                # owner (cheap local padding; see DESIGN.md).
                for slot in self.no_op_slots.get(owner, ()):
                    self.inbox_shares[owner][slot] = no_ops[owner, slot]
                self.meter.replay(revert)

    def _meter_gmw(self, members: List[int], result: GMWResult) -> LinkBytes:
        """Attribute a GMW evaluation's wire traffic to the member nodes.

        Uses the engine's per-ordered-pair accounting
        (:attr:`~repro.mpc.gmw.GMWTraffic.pair_bits`), so every OT-extension
        byte lands on a directed *link* between two real block members —
        node totals are unchanged (the pair map sums to the per-party
        totals by construction) but link-level hot spots become visible
        and a bus can convey the returned map.
        """
        meter = self.meter
        link_bytes = meter.replay(
            SendPlan(
                (members[i], members[j], pair_bytes)
                for (i, j), pair_bytes in result.traffic.pair_bytes().items()
            )
        )
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
