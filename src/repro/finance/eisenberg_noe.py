"""The Eisenberg-Noe clearing model [25] (§4.2, Figure 2a).

Banks hold debt contracts against each other. Given liquid reserves ``e_i``
and obligations ``p_bar_i = sum_j debts[i][j]``, the *clearing vector*
``p*`` is the fixed point of

    p_i = min(p_bar_i,  max(0,  e_i + sum_j Pi_ji * p_j))

where ``Pi_ji`` is the fraction of ``j``'s obligations owed to ``i``.
Eisenberg and Noe prove the maximal fixed point is reached by iterating
from ``p = p_bar`` (the "fictitious default algorithm") in at most ``n``
rounds. The systemic-risk measure is the total dollar shortfall
``TDS = sum_i (p_bar_i - p*_i)``.

Two implementations live here:

* :func:`clearing_vector` / :func:`total_dollar_shortfall` — the exact
  float solver (the all-seeing-regulator oracle);
* :class:`EisenbergNoeProgram` — the DStress vertex program of Figure 2a,
  in both float and Boolean-circuit form. Its per-round messages carry the
  sender's *unpaid* amount per contract, and each bank's ``shortfall``
  register tracks ``totalDebt * (1 - prorate)`` so the aggregation step is
  a plain noised sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.graph import VertexView
from repro.core.program import VertexProgram
from repro.exceptions import ConvergenceError
from repro.finance.network import FinancialNetwork
from repro.mpc.circuit import Circuit
from repro.mpc.fixedpoint import FixedPointFormat

__all__ = ["ClearingResult", "clearing_vector", "total_dollar_shortfall", "EisenbergNoeProgram"]


@dataclass
class ClearingResult:
    """Output of the exact Eisenberg-Noe solver."""

    payments: Dict[int, float]
    obligations: Dict[int, float]
    defaulters: List[int]
    iterations: int

    @property
    def total_shortfall(self) -> float:
        return sum(
            self.obligations[b] - self.payments[b] for b in self.obligations
        )


def clearing_vector(
    network: FinancialNetwork,
    max_iterations: int | None = None,
    tolerance: float = 1e-9,
) -> ClearingResult:
    """Exact clearing vector by fictitious-default (Jacobi) iteration.

    Starts from full payment and iterates the clearing map. Eisenberg-Noe
    bound the number of *default-set changes* by ``n``, but between
    changes the linear payment iteration converges geometrically at a
    rate that cyclic networks can push arbitrarily close to 1, so the
    numeric tail down to ``tolerance`` needs real headroom beyond ``n``
    (a generated 8-bank network has hit 27 where ``2n + 10 = 26``). The
    default cap is ``20n + 100`` — each iteration is O(edges), so the
    generosity costs microseconds and spares a spurious
    :class:`~repro.exceptions.ConvergenceError`.
    """
    ids = network.bank_ids()
    obligations = {b: network.total_obligations(b) for b in ids}
    cash = {b: network.banks[b].cash for b in ids}
    incoming: Dict[int, List[Tuple[int, float]]] = {b: [] for b in ids}
    for debt in network.debts:
        incoming[debt.creditor].append((debt.debtor, debt.amount))

    if max_iterations is None:
        max_iterations = 20 * len(ids) + 100

    payments = dict(obligations)  # start from full payment
    for iteration in range(1, max_iterations + 1):
        updated = {}
        for b in ids:
            received = sum(
                amount * _pay_fraction(payments[d], obligations[d])
                for d, amount in incoming[b]
            )
            resources = cash[b] + received
            updated[b] = min(obligations[b], max(0.0, resources))
        delta = max(abs(updated[b] - payments[b]) for b in ids) if ids else 0.0
        payments = updated
        if delta <= tolerance:
            break
    else:
        raise ConvergenceError("clearing iteration did not converge")

    defaulters = [b for b in ids if payments[b] < obligations[b] - tolerance]
    return ClearingResult(
        payments=payments,
        obligations=obligations,
        defaulters=defaulters,
        iterations=iteration,
    )


def _pay_fraction(payment: float, obligation: float) -> float:
    if obligation <= 0.0:
        return 1.0
    return payment / obligation


def total_dollar_shortfall(network: FinancialNetwork) -> float:
    """TDS of the exact clearing solution (§4.1)."""
    return clearing_vector(network).total_shortfall


class EisenbergNoeProgram(VertexProgram):
    """Figure 2a as a DStress vertex program.

    State registers (for degree bound D):

    ``prorate``      fraction of obligations the bank can pay, starts at 1;
    ``cash``         liquid reserves (constant);
    ``total_debt``   sum of outgoing debts (constant);
    ``shortfall``    ``total_debt * (1 - prorate)`` — the aggregate register;
    ``debt_t``       obligation on out-slot ``t`` (constant);
    ``credit_t``     claim on in-slot ``t`` (constant).

    Messages carry the sender's *unpaid* amount per contract, so the no-op
    message 0 coincides with "pays in full" — exactly why Figure 2a can use
    0 as its no-op.
    """

    def __init__(self, fmt: FixedPointFormat | None = None, leverage_bound: float = 0.1) -> None:
        super().__init__(fmt)
        self.leverage_bound = leverage_bound

    @property
    def name(self) -> str:
        return "eisenberg-noe"

    @property
    def sensitivity(self) -> float:
        """``1/r`` per the Hemenway-Khanna argument (§4.4)."""
        return 1.0 / self.leverage_bound

    @property
    def aggregate_register(self) -> str:
        return "shortfall"

    def state_registers(self, degree_bound: int) -> List[str]:
        registers = ["prorate", "cash", "total_debt", "shortfall"]
        registers += self.slot_names("debt", degree_bound)
        registers += self.slot_names("credit", degree_bound)
        return registers

    # -- INIT (Figure 2a) --------------------------------------------------------

    def initial_state(self, vertex: VertexView, degree_bound: int) -> Dict[str, float]:
        state: Dict[str, float] = {
            "prorate": 1.0,
            "cash": vertex.data.get("cash", 0.0),
            "shortfall": 0.0,
        }
        data = vertex.data
        names = self.slot_names
        total_debt = 0.0
        for debt_name, credit_name, out_debt, in_debt in zip(
            names("debt", degree_bound),
            names("credit", degree_bound),
            names("out_debt", degree_bound),
            names("in_debt", degree_bound),
        ):
            debt = data.get(out_debt, 0.0)
            state[debt_name] = debt
            state[credit_name] = data.get(in_debt, 0.0)
            total_debt += debt
        state["total_debt"] = total_debt
        return state

    # -- UPDATE + COMMUNICATE (float form) -------------------------------------------

    def float_update(
        self,
        state: Dict[str, float],
        messages: List[float],
        degree_bound: int,
    ) -> Tuple[Dict[str, float], List[float]]:
        liquid = state["cash"]
        for credit, message in zip(self.slot_names("credit", degree_bound), messages):
            liquid += state[credit] - message
        total_debt = state["total_debt"]

        prorate = state["prorate"]
        if liquid < total_debt and total_debt > 0.0:
            prorate = min(1.0, max(0.0, liquid / total_debt))

        new_state = dict(state)
        new_state["prorate"] = prorate
        unpaid = 1.0 - prorate
        new_state["shortfall"] = total_debt * unpaid
        out = [state[debt] * unpaid for debt in self.slot_names("debt", degree_bound)]
        return new_state, out

    # -- UPDATE + COMMUNICATE (circuit form) ---------------------------------------------

    def build_update_circuit(self, degree_bound: int) -> Circuit:
        builder = self.new_builder()
        fmt = self.fmt

        prorate = builder.fx_input("prorate")
        cash = builder.fx_input("cash")
        total_debt = builder.fx_input("total_debt")
        builder.fx_input("shortfall")  # replaced each round; input kept for shape
        debts = [builder.fx_input(f"debt_{t}") for t in range(degree_bound)]
        credits = [builder.fx_input(f"credit_{t}") for t in range(degree_bound)]
        messages = [builder.fx_input(f"msg_in_{t}") for t in range(degree_bound)]

        # liquid = cash + sum_t (credit_t - msg_t), accumulated wide enough
        # that D-term sums cannot wrap, then saturated into the format.
        import math

        wide = fmt.total_bits + max(1, math.ceil(math.log2(degree_bound + 1)) + 1)
        acc = builder.sign_extend(cash, wide)
        for t in range(degree_bound):
            term = builder.sub(
                builder.sign_extend(credits[t], wide),
                builder.sign_extend(messages[t], wide),
                width=wide,
            )
            acc = builder.add(acc, term, width=wide)
        liquid = self._saturate(builder, acc, wide)

        # prorate' = (liquid < totalDebt) ? clamp(liquid / totalDebt) : prorate
        zero = builder.fx_const(0.0)
        one = builder.fx_const(1.0)
        liquid_pos = builder.mux(builder.is_negative(liquid), zero, liquid)
        quotient = builder.fx_div(liquid_pos, total_debt)
        # clamp quotient into [0, 1] (guards fixed-point division artifacts)
        quotient = builder.mux(builder.lt_signed(one, quotient), one, quotient)
        quotient = builder.mux(builder.is_negative(quotient), zero, quotient)
        under = builder.lt_signed(liquid, total_debt)
        debt_zero = builder.is_zero(total_debt)
        candidate = builder.mux(debt_zero, prorate, quotient)
        prorate_new = builder.mux(under, candidate, prorate)

        one_minus = builder.fx_sub(one, prorate_new)
        shortfall = builder.fx_mul(total_debt, one_minus)

        builder.output_bus("prorate", prorate_new)
        builder.output_bus("cash", cash)
        builder.output_bus("total_debt", total_debt)
        builder.output_bus("shortfall", shortfall)
        for t in range(degree_bound):
            builder.output_bus(f"debt_{t}", debts[t])
            builder.output_bus(f"credit_{t}", credits[t])
            builder.output_bus(f"msg_out_{t}", builder.fx_mul(debts[t], one_minus))
        return builder.circuit

    def _saturate(self, builder, wide_bus, wide_width: int):
        """Saturate a wide accumulator into the fixed-point format."""
        fmt = self.fmt
        max_bus = builder.const_bus(fmt.max_raw, wide_width)
        min_bus = builder.const_bus(fmt.to_unsigned(fmt.min_raw) | (
            ((1 << (wide_width - fmt.total_bits)) - 1) << fmt.total_bits
        ), wide_width)
        over = builder.lt_signed(max_bus, wide_bus)
        under = builder.lt_signed(wide_bus, min_bus)
        clamped = builder.mux(over, max_bus, wide_bus)
        clamped = builder.mux(under, min_bus, clamped)
        return builder.truncate(clamped, fmt.total_bits)
