"""The Elliott-Golub-Jackson cross-holdings model [27] (§4.3, Figure 2b).

Banks own primitive assets and fractions of each other's equity. A bank's
valuation is

    value_i = base_i + sum_j insh[i][j] * value_j      (fixpoint iteration)

and when a valuation falls below a bank-specific threshold the bank is
*distressed* and its value drops by an additional penalty — the
discontinuity that makes EGJ contagion different from Eisenberg-Noe. The
fixpoint is not unique (it depends on iteration order and start; the paper
notes this is inherent to the model), but convergence is monotone from the
pre-shock valuation, so a bounded number of Jacobi rounds approximates the
reached fixpoint well.

The systemic-risk measure is the TDS relative to the failure thresholds:
``sum_i max(0, threshold_i - value_i)`` over distressed banks.

* :func:`egj_fixpoint` — the exact float solver (Jacobi iteration, same
  order as the vertex program so the two agree);
* :class:`ElliottGolubJacksonProgram` — Figure 2b in float and circuit
  form. Messages carry the sender's *discount* ``1 - value/origVal``; the
  no-op message 0 means "fully valued", which is why Figure 2b can use 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.graph import VertexView
from repro.core.program import VertexProgram
from repro.finance.network import FinancialNetwork
from repro.mpc.circuit import Circuit
from repro.mpc.fixedpoint import FixedPointFormat

__all__ = ["EGJResult", "egj_fixpoint", "egj_total_shortfall", "ElliottGolubJacksonProgram"]


@dataclass
class EGJResult:
    """Output of the exact EGJ solver."""

    values: Dict[int, float]
    distressed: List[int]
    iterations: int
    total_shortfall: float


def egj_fixpoint(network: FinancialNetwork, iterations: int) -> EGJResult:
    """Jacobi iteration of the EGJ valuation map for a fixed round count.

    Matches the vertex program's schedule exactly: every bank recomputes
    its value from the *previous* round's values, applies the penalty if
    distressed, and the loop runs ``iterations + 1`` computation rounds
    (DStress executes a final computation step after the last
    communication step, §3.6).
    """
    ids = network.bank_ids()
    banks = network.banks
    incoming: Dict[int, List[Tuple[int, float]]] = {b: [] for b in ids}
    for holding in network.holdings:
        incoming[holding.holder].append((holding.issuer, holding.fraction))

    values = {b: banks[b].orig_value for b in ids}
    for _ in range(iterations + 1):
        updated = {}
        for b in ids:
            value = banks[b].base_assets
            for issuer, fraction in incoming[b]:
                value += fraction * values[issuer]
            if value < banks[b].threshold:
                value -= banks[b].penalty
            updated[b] = value
        values = updated

    distressed = [b for b in ids if values[b] < banks[b].threshold]
    shortfall = sum(max(0.0, banks[b].threshold - values[b]) for b in ids)
    return EGJResult(
        values=values,
        distressed=distressed,
        iterations=iterations,
        total_shortfall=shortfall,
    )


def egj_total_shortfall(network: FinancialNetwork, iterations: int) -> float:
    """TDS under the EGJ model after a bounded fixpoint iteration."""
    return egj_fixpoint(network, iterations).total_shortfall


class ElliottGolubJacksonProgram(VertexProgram):
    """Figure 2b as a DStress vertex program.

    State registers (for degree bound D):

    ``value``       current valuation;
    ``base``        directly-held primitive assets (constant);
    ``orig_value``  pre-shock valuation (constant);
    ``threshold``   failure threshold (constant);
    ``penalty``     discontinuous drop on failure (constant);
    ``shortfall``   ``max(0, threshold - value)`` — the aggregate register;
    ``insh_t``      fraction of in-slot-t issuer held (constant);
    ``orig_t``      in-slot-t issuer's pre-shock value (constant).

    Messages carry the sender's discount ``1 - value/origVal``; receivers
    reconstruct the sender's contribution as
    ``insh * (1 - discount) * origVal``.
    """

    def __init__(self, fmt: FixedPointFormat | None = None, leverage_bound: float = 0.1) -> None:
        super().__init__(fmt)
        self.leverage_bound = leverage_bound

    @property
    def name(self) -> str:
        return "elliott-golub-jackson"

    @property
    def sensitivity(self) -> float:
        """``2/r`` per Hemenway-Khanna [39] (§4.4)."""
        return 2.0 / self.leverage_bound

    @property
    def aggregate_register(self) -> str:
        return "shortfall"

    def state_registers(self, degree_bound: int) -> List[str]:
        registers = ["value", "base", "orig_value", "threshold", "penalty", "shortfall"]
        registers += self.slot_names("insh", degree_bound)
        registers += self.slot_names("orig", degree_bound)
        return registers

    # -- INIT (Figure 2b) ------------------------------------------------------

    def initial_state(self, vertex: VertexView, degree_bound: int) -> Dict[str, float]:
        state: Dict[str, float] = {
            "value": vertex.data.get("orig_value", 0.0),
            "base": vertex.data.get("base", 0.0),
            "orig_value": vertex.data.get("orig_value", 0.0),
            "threshold": vertex.data.get("threshold", 0.0),
            "penalty": vertex.data.get("penalty", 0.0),
            "shortfall": 0.0,
        }
        data = vertex.data
        names = self.slot_names
        for insh, orig, in_insh, in_orig in zip(
            names("insh", degree_bound),
            names("orig", degree_bound),
            names("in_insh", degree_bound),
            names("in_orig_issuer", degree_bound),
        ):
            state[insh] = data.get(in_insh, 0.0)
            state[orig] = data.get(in_orig, 0.0)
        return state

    # -- UPDATE + COMMUNICATE (float form) --------------------------------------------

    def float_update(
        self,
        state: Dict[str, float],
        messages: List[float],
        degree_bound: int,
    ) -> Tuple[Dict[str, float], List[float]]:
        value = state["base"]
        names = self.slot_names
        for insh, orig, message in zip(
            names("insh", degree_bound), names("orig", degree_bound), messages
        ):
            value += state[insh] * (1.0 - message) * state[orig]
        if value < state["threshold"]:
            value -= state["penalty"]

        new_state = dict(state)
        new_state["value"] = value
        new_state["shortfall"] = max(0.0, state["threshold"] - value)

        orig = state["orig_value"]
        discount = 1.0 - (value / orig) if orig > 0.0 else 0.0
        return new_state, [discount] * degree_bound

    # -- UPDATE + COMMUNICATE (circuit form) ----------------------------------------------

    def build_update_circuit(self, degree_bound: int) -> Circuit:
        import math

        builder = self.new_builder()
        fmt = self.fmt

        builder.fx_input("value")  # recomputed each round; input kept for shape
        base = builder.fx_input("base")
        orig_value = builder.fx_input("orig_value")
        threshold = builder.fx_input("threshold")
        penalty = builder.fx_input("penalty")
        builder.fx_input("shortfall")
        insh = [builder.fx_input(f"insh_{t}") for t in range(degree_bound)]
        orig = [builder.fx_input(f"orig_{t}") for t in range(degree_bound)]
        messages = [builder.fx_input(f"msg_in_{t}") for t in range(degree_bound)]

        one = builder.fx_const(1.0)
        zero = builder.fx_const(0.0)

        # value = base + sum_t insh_t * (1 - msg_t) * orig_t, accumulated wide.
        wide = fmt.total_bits + max(1, math.ceil(math.log2(degree_bound + 1)) + 1)
        acc = builder.sign_extend(base, wide)
        for t in range(degree_bound):
            recovered = builder.fx_mul(builder.fx_sub(one, messages[t]), orig[t])
            term = builder.fx_mul(insh[t], recovered)
            acc = builder.add(acc, builder.sign_extend(term, wide), width=wide)
        value_pre = self._saturate(builder, acc, wide)

        distressed = builder.lt_signed(value_pre, threshold)
        value_post = builder.mux(
            distressed, builder.fx_sub(value_pre, penalty), value_pre
        )
        shortfall = builder.relu(builder.fx_sub(threshold, value_post))

        # discount = orig_value > 0 ? 1 - value/orig_value : 0
        ratio = builder.fx_div(value_post, orig_value)
        discount = builder.fx_sub(one, ratio)
        discount = builder.mux(builder.is_zero(orig_value), zero, discount)

        builder.output_bus("value", value_post)
        builder.output_bus("base", base)
        builder.output_bus("orig_value", orig_value)
        builder.output_bus("threshold", threshold)
        builder.output_bus("penalty", penalty)
        builder.output_bus("shortfall", shortfall)
        for t in range(degree_bound):
            builder.output_bus(f"insh_{t}", insh[t])
            builder.output_bus(f"orig_{t}", orig[t])
            builder.output_bus(f"msg_out_{t}", discount)
        return builder.circuit

    def _saturate(self, builder, wide_bus, wide_width: int):
        fmt = self.fmt
        max_bus = builder.const_bus(fmt.max_raw, wide_width)
        min_pattern = fmt.to_unsigned(fmt.min_raw) | (
            ((1 << (wide_width - fmt.total_bits)) - 1) << fmt.total_bits
        )
        min_bus = builder.const_bus(min_pattern, wide_width)
        over = builder.lt_signed(max_bus, wide_bus)
        under = builder.lt_signed(wide_bus, min_bus)
        clamped = builder.mux(over, max_bus, wide_bus)
        clamped = builder.mux(under, min_bus, clamped)
        return builder.truncate(clamped, fmt.total_bits)
