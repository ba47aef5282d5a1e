"""The financial network data model (§2.1, §4).

A :class:`FinancialNetwork` holds the union of what all participants know:
banks with balance-sheet attributes, debt contracts (Eisenberg-Noe) and
equity cross-holdings (Elliott-Golub-Jackson). The conversion methods
produce the :class:`~repro.core.graph.DistributedGraph` views that the
DStress engines execute over — in a real deployment each bank would only
ever construct its own :class:`~repro.core.graph.VertexView`.

Monetary amounts are in units of the dollar-DP granularity ``T`` (the
paper's ``T = $1B``), which keeps fixed-point encodings well-scaled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.core.graph import DistributedGraph
from repro.exceptions import ConfigurationError

__all__ = ["Bank", "DebtContract", "CrossHolding", "FinancialNetwork"]


@dataclass
class Bank:
    """One financial institution's private balance-sheet attributes.

    Attributes
    ----------
    bank_id:
        Participant identifier.
    cash:
        Liquid reserves (Eisenberg-Noe ``cash[i]``).
    base_assets:
        Value of directly-held primitive assets (EGJ ``base[i]``).
    orig_value:
        Pre-shock valuation (EGJ ``origVal[i]``).
    threshold:
        Failure threshold (EGJ ``threshold[i]``).
    penalty:
        Discontinuous value drop on failure (EGJ ``penalty[i]``).
    """

    bank_id: int
    cash: float = 0.0
    base_assets: float = 0.0
    orig_value: float = 0.0
    threshold: float = 0.0
    penalty: float = 0.0


#: The balance-sheet attributes of a :class:`Bank` that engines compute on.
_BALANCE_SHEET = ("cash", "base_assets", "orig_value", "threshold", "penalty")


def _check_finite(what: str, value: float) -> None:
    """Refuse NaN and ±inf: no engine has a meaning for them (the clear
    ones would release nonsense, the fixed-point ones cannot encode them)."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite, got {value!r}")


@dataclass(frozen=True)
class DebtContract:
    """``debtor`` owes ``creditor`` the (netted) amount ``amount``."""

    debtor: int
    creditor: int
    amount: float

    def __post_init__(self) -> None:
        _check_finite("debt amount", self.amount)
        if self.amount < 0:
            raise ConfigurationError("debt amounts must be non-negative")


@dataclass(frozen=True)
class CrossHolding:
    """``holder`` owns fraction ``fraction`` of ``issuer``'s equity."""

    holder: int
    issuer: int
    fraction: float

    def __post_init__(self) -> None:
        _check_finite("holding fraction", self.fraction)
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError("holding fractions must lie in [0, 1]")


class FinancialNetwork:
    """Banks plus their interbank contracts."""

    def __init__(self) -> None:
        self.banks: Dict[int, Bank] = {}
        self.debts: List[DebtContract] = []
        self.holdings: List[CrossHolding] = []

    # -- construction -----------------------------------------------------------

    def add_bank(self, bank: Bank) -> Bank:
        if bank.bank_id in self.banks:
            raise ConfigurationError(f"duplicate bank {bank.bank_id}")
        for name in _BALANCE_SHEET:
            _check_finite(f"bank {bank.bank_id} {name}", getattr(bank, name))
        self.banks[bank.bank_id] = bank
        return bank

    def add_debt(self, debtor: int, creditor: int, amount: float) -> None:
        self._check_pair(debtor, creditor)
        self.debts.append(DebtContract(debtor, creditor, amount))

    def add_holding(self, holder: int, issuer: int, fraction: float) -> None:
        self._check_pair(holder, issuer)
        self.holdings.append(CrossHolding(holder, issuer, fraction))

    def _check_pair(self, a: int, b: int) -> None:
        if a not in self.banks or b not in self.banks:
            raise ConfigurationError("both endpoints must be registered banks")
        if a == b:
            raise ConfigurationError("contracts with oneself are not allowed")

    def copy(self) -> "FinancialNetwork":
        """An independent copy: new :class:`Bank` records and new contract
        lists. The contracts themselves are frozen, so they are shared."""
        other = FinancialNetwork()
        other.banks = {bank_id: replace(bank) for bank_id, bank in self.banks.items()}
        other.debts = list(self.debts)
        other.holdings = list(self.holdings)
        return other

    # -- aggregates ------------------------------------------------------------

    @property
    def num_banks(self) -> int:
        return len(self.banks)

    def bank_ids(self) -> List[int]:
        return sorted(self.banks)

    def total_obligations(self, bank_id: int) -> float:
        """EN ``totalDebt[i]``: everything ``bank_id`` owes."""
        return sum(d.amount for d in self.debts if d.debtor == bank_id)

    def total_credits(self, bank_id: int) -> float:
        """Everything owed *to* ``bank_id``."""
        return sum(d.amount for d in self.debts if d.creditor == bank_id)

    def max_debt_degree(self) -> int:
        """Largest in/out degree of the debt graph."""
        out: Dict[int, int] = {}
        inc: Dict[int, int] = {}
        for debt in self.debts:
            out[debt.debtor] = out.get(debt.debtor, 0) + 1
            inc[debt.creditor] = inc.get(debt.creditor, 0) + 1
        return max(list(out.values()) + list(inc.values()) + [0])

    def max_holding_degree(self) -> int:
        """Largest in/out degree of the cross-holding graph."""
        out: Dict[int, int] = {}
        inc: Dict[int, int] = {}
        for holding in self.holdings:
            out[holding.issuer] = out.get(holding.issuer, 0) + 1
            inc[holding.holder] = inc.get(holding.holder, 0) + 1
        return max(list(out.values()) + list(inc.values()) + [0])

    # -- session API -----------------------------------------------------------

    def stress_test(self) -> "StressTest":
        """Open a :class:`~repro.api.session.StressTest` session over this
        network: ``net.stress_test().program("en").engine("secure").run()``."""
        from repro.api.session import StressTest

        return StressTest(self)

    # -- DStress graph views ---------------------------------------------------------

    def to_en_graph(self, degree_bound: Optional[int] = None) -> DistributedGraph:
        """Debt graph for Eisenberg-Noe: edge debtor -> creditor carries the
        netted obligation; shortfall messages flow along it."""
        if degree_bound is None:
            degree_bound = max(1, self.max_debt_degree())
        graph = DistributedGraph(degree_bound)
        for bank_id in self.bank_ids():
            bank = self.banks[bank_id]
            graph.add_vertex(bank_id, cash=bank.cash)
        for debt in self.debts:
            graph.add_edge(debt.debtor, debt.creditor, debt=debt.amount)
        return graph

    def to_egj_graph(self, degree_bound: Optional[int] = None) -> DistributedGraph:
        """Cross-holding graph for EGJ: edge issuer -> holder carries the
        held fraction and the issuer's pre-shock value; discount messages
        flow along it."""
        if degree_bound is None:
            degree_bound = max(1, self.max_holding_degree())
        graph = DistributedGraph(degree_bound)
        for bank_id in self.bank_ids():
            bank = self.banks[bank_id]
            graph.add_vertex(
                bank_id,
                base=bank.base_assets,
                orig_value=bank.orig_value,
                threshold=bank.threshold,
                penalty=bank.penalty,
            )
        for holding in self.holdings:
            issuer_value = self.banks[holding.issuer].orig_value
            graph.add_edge(
                holding.issuer,
                holding.holder,
                insh=holding.fraction,
                orig_issuer=issuer_value,
            )
        return graph
