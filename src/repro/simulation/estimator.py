"""Scalability estimator: the Figure 6 projection pipeline (§5.5).

Multiplies :class:`~repro.mpc.cost.Bill` lines by per-operation cost
constants to project end-to-end completion time and per-node traffic for
deployments far larger than the simulation can execute — exactly how the
paper reaches its N = 1750 / 4.8 hours / 750 MB estimates.

The bills are read off the real compiled circuits at the target degree
bound, so the projection and the executable engine price one set of
counts, derived in :mod:`repro.mpc.cost`; GMW is priced in the paper's
unit, ``PAPER_OTS_PER_AND_PAIR`` 1-out-of-2 OTs per AND gate and
counterpart, not per 1-out-of-4 OT of the engine. The assumptions mirror
§5.5: a conservative ``D``, block size ``k+1``, ``I`` iterations, a
two-level aggregation tree of fanout 100, and no overlap between the
blocks a node serves in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.aggregation import partial_sum_width
from repro.core.program import VertexProgram, compiled_update_circuit
from repro.mpc.circuit import Circuit
from repro.mpc.cost import Bill, bill_for
from repro.mpc.plan import noised_sum_bits_circuit, partial_sum_circuit
from repro.simulation.timing import PAPER_OTS_PER_AND_PAIR, CostConstants

__all__ = ["DeploymentEstimate", "ScalabilityEstimator"]


@dataclass(frozen=True)
class DeploymentEstimate:
    """Projected cost of one end-to-end run."""

    num_nodes: int
    degree_bound: int
    block_size: int
    iterations: int
    seconds_total: float
    seconds_init: float
    seconds_computation: float
    seconds_communication: float
    seconds_aggregation: float
    traffic_per_node_bytes: float

    @property
    def minutes_total(self) -> float:
        return self.seconds_total / 60.0

    @property
    def hours_total(self) -> float:
        return self.seconds_total / 3600.0

    @property
    def traffic_per_node_mb(self) -> float:
        return self.traffic_per_node_bytes / 1e6


class ScalabilityEstimator:
    """Projects Figure 6 curves for a given program and cost constants."""

    def __init__(
        self,
        program: VertexProgram,
        constants: CostConstants,
        collusion_bound: int = 19,
        element_bytes: int = 49,
        aggregation_fanout: int = 100,
        ot_bytes_per_and: float = 1.0,
    ) -> None:
        self.program = program
        self.constants = constants
        self.collusion_bound = collusion_bound
        self.element_bytes = element_bytes
        self.aggregation_fanout = aggregation_fanout
        #: Per-party wire bytes per AND gate per counterpart. The paper's
        #: GMW backend uses OT extension with bit-packing (§5.3 credits
        #: [41, 46] for the low traffic); back-solving its Figure 4 "EN
        #: step (D=100)" bar (~2.5 MB/node at block 20) against the EN
        #: update circuit's AND count gives ~1 byte. Our own executable
        #: backends are costed from their real message sizes instead.
        self.ot_bytes_per_and = ot_bytes_per_and

    @property
    def block_size(self) -> int:
        return self.collusion_bound + 1

    # -- bills -------------------------------------------------------------------

    def _bill(self, *circuits: Circuit, steps: int = 1, transfers: int = 0) -> Bill:
        """One block position's bill, off the process-wide compiled plans."""
        return bill_for(
            [circuit.stats() for circuit in circuits],
            self.block_size,
            steps=steps,
            transfers=transfers,
            message_bits=self.program.fmt.total_bits,
            element_bytes=self.element_bytes,
        )

    # -- per-phase projections -----------------------------------------------------

    def computation_step_seconds(self, degree_bound: int) -> float:
        """One block's update-circuit evaluation (Fig. 3 'EN/EGJ step'):
        the paper's ``2k`` OTs per AND gate (sender to the ``k`` others and
        receiver from them; the bill's ``ots_per_party`` is ``k`` per AND
        gate), each at ``seconds_per_ot``."""
        bill = self._bill(compiled_update_circuit(self.program, degree_bound))
        return PAPER_OTS_PER_AND_PAIR * bill.ots_per_party * self.constants.seconds_per_ot

    def transfer_seconds(self) -> float:
        """One §3.5 edge transfer (§5.2: linear in k, exponentiations
        dominate): the bill's critical path — a sender member, ``u``, ``v``
        and a receiver member. ``seconds_per_exp`` is calibrated on
        variable-base ``group.exp``, so it is an upper bound for the
        ``g``-table terms (noise, ``g^y``)."""
        return self._bill(transfers=1).critical_exps * self.constants.seconds_per_exp

    def init_seconds(self, degree_bound: int) -> float:
        registers = len(self.program.state_registers(degree_bound)) + degree_bound
        return registers * self.block_size * self.constants.seconds_per_share * 50

    def aggregation_seconds(self, num_nodes: int) -> float:
        """Two-level tree: parallel group sums, then the noised root."""
        bits = self.program.fmt.total_bits
        group_inputs = min(num_nodes, self.aggregation_fanout)
        group_bits = partial_sum_width(bits, group_inputs)
        group = partial_sum_circuit(group_inputs, bits, group_bits)
        root = noised_sum_bits_circuit(
            num_inputs=max(1, math.ceil(num_nodes / self.aggregation_fanout)),
            value_bits=group_bits,
            alpha=0.999,
            magnitude_bits=18,
            precision_bits=16,
        )
        bill = self._bill(group, root)
        return PAPER_OTS_PER_AND_PAIR * bill.ots_per_party * self.constants.seconds_per_ot

    # -- end-to-end ---------------------------------------------------------------------

    def estimate(self, num_nodes: int, degree_bound: int, iterations: int) -> DeploymentEstimate:
        """Project one deployment, mirroring the §5.5 arithmetic.

        A node serves in ``k+1`` blocks on average and cannot overlap them
        (the paper's conservative assumption), so per-iteration computation
        is ``(k+1) x`` one block's time. Communication: a node coordinates
        its own vertex's ``<= D`` incoming transfers and participates in
        its blocks' outgoing ones; transfers pipeline across edges, leaving
        ``D x`` the single-transfer time per iteration.
        """
        comp_step = self.computation_step_seconds(degree_bound) * self.block_size
        comm_step = self.transfer_seconds() * degree_bound
        init = self.init_seconds(degree_bound) * self.block_size
        agg = self.aggregation_seconds(num_nodes)
        total = init + iterations * (comp_step + comm_step) + agg

        traffic = self._traffic_per_node(num_nodes, degree_bound, iterations)
        return DeploymentEstimate(
            num_nodes=num_nodes,
            degree_bound=degree_bound,
            block_size=self.block_size,
            iterations=iterations,
            seconds_total=total,
            seconds_init=init,
            seconds_computation=iterations * comp_step,
            seconds_communication=iterations * comm_step,
            seconds_aggregation=agg,
            traffic_per_node_bytes=traffic,
        )

    def _traffic_per_node(self, num_nodes: int, degree_bound: int, iterations: int) -> float:
        """Average per-node traffic *generated* (bytes sent), as in §5.3.

        GMW: a node serves in ``k+1`` blocks on average; in each it sends
        ``ot_bytes_per_and`` per AND gate per counterpart (the bill's
        ``ots_per_party``).

        Transfers: ``D`` per iteration at the node's vertex, each the
        bill's sent bytes; with up to ``N * D`` edges per iteration the
        network-wide bytes divide evenly across nodes in expectation.
        """
        bill = self._bill(
            compiled_update_circuit(self.program, degree_bound),
            steps=iterations + 1,
            transfers=iterations * degree_bound,
        )
        gmw_total = bill.ots_per_party * self.ot_bytes_per_and * self.block_size
        return gmw_total + bill.transfers * bill.transfer_sent_bytes
