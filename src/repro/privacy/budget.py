"""Privacy-budget accounting with sequential composition.

The paper maintains a privacy budget ``eps_max = ln 2`` that is replenished
yearly (§4.5) and drawn down by query releases (the paper's ElGamal
transfer also leaks edge privacy, Appendix B; the pad transfer every run
takes releases no sum, so there is nothing to book). :class:`PrivacyAccountant`
tracks the draw-downs, refuses charges that would exceed the budget, and
models the replenishment schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.exceptions import PrivacyBudgetExceeded, SensitivityError

__all__ = [
    "BudgetCharge",
    "LedgerEntry",
    "LedgerReconciliation",
    "PrivacyAccountant",
    "DEFAULT_EPSILON_MAX",
    "whole_releases",
]

#: The paper's choice: an adversary's confidence in any fact about the
#: input may at most double, so ``e^eps = 2``.
DEFAULT_EPSILON_MAX = math.log(2.0)


def whole_releases(epsilon_max: float, epsilon_per_query: float) -> int:
    """Largest number of ``epsilon_per_query``-sized releases that fit in
    ``epsilon_max``.

    Plain ``int()`` truncation misreads binary float division:
    ``0.6 / 0.2`` is ``2.999...96``, which must count as 3 releases, not
    2. Instead of trusting the quotient, the floor is bumped by one
    exactly when that extra release would still *fit* under
    :meth:`PrivacyAccountant.can_afford`'s absolute ``1e-12`` slack,
    after reserving headroom for the left-to-right summation drift that
    :attr:`PrivacyAccountant.spent` accumulates over ``count`` charges —
    so the count this function reports is chargeable by construction: a
    budget genuinely short of N releases (``epsilon_max = 0.6 - 1e-10``
    against 0.2-sized queries, or ``10 - 2e-12`` against 2.0-sized ones)
    answers N-1, never an N whose last charge would raise — and neither
    does a million-release schedule whose cumulative rounding exceeds
    the slack — while the paper's ``ln 2 / 0.23 = 3.01…`` still answers
    3.
    """
    if epsilon_per_query <= 0:
        raise SensitivityError("epsilon per query must be positive")
    if epsilon_max < 0:
        raise SensitivityError("epsilon_max cannot be negative")

    def _fits(n: int) -> bool:
        # worst-case |naive-sum(n terms of q) - n*q| grows ~ n * ulp(n*q);
        # 2e-16 over-covers the 1.1e-16 unit roundoff with margin
        drift = n * n * epsilon_per_query * 2e-16
        return n * epsilon_per_query + drift <= epsilon_max + 1e-12

    # the fit check governs in both directions: the floor is bumped when
    # one more release fits, and walked down when the floor itself does
    # not (an exact binary quotient like 1.0/1e-6 floors to a count whose
    # accumulated charges would overshoot the slack). _fits is monotone
    # in n, so the walk-down is a binary search — a tiny per-query
    # epsilon (count ~ 1e12) answers in ~40 probes, never a linear scan
    count = math.floor(epsilon_max / epsilon_per_query)
    if _fits(count + 1):
        return int(count + 1)
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return int(lo)


@dataclass(frozen=True)
class BudgetCharge:
    """One recorded draw against the budget."""

    label: str
    epsilon: float
    period: int


@dataclass(frozen=True)
class LedgerEntry:
    """One immutable line of the audit ledger: every budget mutation —
    charge, refund, replenish — in the order it happened.

    Unlike :attr:`PrivacyAccountant.charges` (the *live* books, which a
    refund edits in place), the ledger is append-only: a refunded charge
    stays visible together with the refund that undid it, which is what
    makes after-the-fact budget audits possible. ``fingerprint`` carries
    the scenario fingerprint for charges issued by the batch layer, and
    a refund's ``charge_seq`` names the ledger line it undoes.
    """

    seq: int
    kind: str  # "charge" | "refund" | "replenish"
    label: str
    epsilon: float
    period: int
    fingerprint: Optional[str] = None
    charge_seq: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "label": self.label,
            "epsilon": self.epsilon,
            "period": self.period,
            "fingerprint": self.fingerprint,
            "charge_seq": self.charge_seq,
        }


@dataclass
class LedgerReconciliation:
    """Result of replaying the ledger against the live books.

    The invariant (documented in DESIGN.md "Observability"): replaying
    charges minus refunds in ledger order reproduces
    :attr:`PrivacyAccountant.spent` *exactly* — bit-for-bit, not within a
    tolerance — because refunds remove the earliest matching charge on
    both sides, so the surviving charges are summed in the same order.
    """

    ok: bool
    ledger_spent: float
    accounted_spent: float
    outstanding: int
    issues: List[str] = field(default_factory=list)


@dataclass
class PrivacyAccountant:
    """Sequential-composition accountant with periodic replenishment.

    Sequential composition: the total privacy loss of consecutive releases
    is the sum of their epsilons, so the accountant simply sums charges
    within the current period. ``replenish`` starts a new period (the
    paper replenishes once per year because banks publicly disclose
    aggregate positions annually).
    """

    epsilon_max: float = DEFAULT_EPSILON_MAX
    charges: List[BudgetCharge] = field(default_factory=list)
    period: int = 0
    #: Append-only audit trail of every charge/refund/replenish, in
    #: order. ``charges`` above is the *live* state (refunds edit it);
    #: the ledger never forgets — see :meth:`reconcile`.
    ledger: List[LedgerEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.epsilon_max <= 0:
            raise SensitivityError("epsilon_max must be positive")

    @property
    def spent(self) -> float:
        """Total epsilon consumed in the current period."""
        return sum(c.epsilon for c in self.charges if c.period == self.period)

    @property
    def remaining(self) -> float:
        return self.epsilon_max - self.spent

    def can_afford(self, epsilon: float) -> bool:
        return epsilon <= self.remaining + 1e-12

    def charge(
        self, epsilon: float, label: str = "query", fingerprint: Optional[str] = None
    ) -> BudgetCharge:
        """Record a draw of ``epsilon``; raise if the budget would overrun.

        ``fingerprint`` (optional) ties the ledger line to a scenario
        fingerprint so audits can answer "which run spent this".
        """
        if epsilon < 0:
            raise SensitivityError("cannot charge a negative epsilon")
        if not self.can_afford(epsilon):
            raise PrivacyBudgetExceeded(
                f"charge of {epsilon:.4g} exceeds remaining budget "
                f"{self.remaining:.4g} (of {self.epsilon_max:.4g})"
            )
        charge = BudgetCharge(label=label, epsilon=epsilon, period=self.period)
        self.charges.append(charge)
        self.ledger.append(
            LedgerEntry(
                seq=len(self.ledger),
                kind="charge",
                label=label,
                epsilon=epsilon,
                period=self.period,
                fingerprint=fingerprint,
            )
        )
        return charge

    def refund(self, charge: BudgetCharge) -> None:
        """Remove a recorded charge whose release never happened.

        Sound only when the noised output covered by ``charge`` was never
        computed and published — e.g. a pre-charged streaming batch
        abandoned before the scenario ran (releasing nothing consumes no
        privacy). Raises if the charge is not on the books (already
        refunded, or recorded by a different accountant).
        """
        try:
            self.charges.remove(charge)
        except ValueError:
            raise SensitivityError(
                f"cannot refund unknown charge {charge.label!r} "
                f"(epsilon {charge.epsilon:.4g}); was it already refunded?"
            ) from None
        # Mirror ``list.remove``'s first-equal-match on the ledger: the
        # refund points at the earliest charge line with the same
        # (label, epsilon, period) that no prior refund already undid, so
        # replaying the ledger edits the same slot the live books did.
        undone = {e.charge_seq for e in self.ledger if e.kind == "refund"}
        target = next(
            (
                e
                for e in self.ledger
                if e.kind == "charge"
                and e.seq not in undone
                and (e.label, e.epsilon, e.period)
                == (charge.label, charge.epsilon, charge.period)
            ),
            None,
        )
        self.ledger.append(
            LedgerEntry(
                seq=len(self.ledger),
                kind="refund",
                label=charge.label,
                epsilon=charge.epsilon,
                period=charge.period,
                fingerprint=target.fingerprint if target is not None else None,
                charge_seq=target.seq if target is not None else None,
            )
        )

    def replenish(self) -> None:
        """Start a new budget period (e.g. a new disclosure year)."""
        self.period += 1
        self.ledger.append(
            LedgerEntry(
                seq=len(self.ledger),
                kind="replenish",
                label="replenish",
                epsilon=0.0,
                period=self.period,
            )
        )

    def reconcile(self) -> LedgerReconciliation:
        """Replay the ledger and check it reproduces the live books exactly.

        Returns a :class:`LedgerReconciliation`; ``ok`` is True iff every
        refund points at a real outstanding charge and the surviving
        charges match :attr:`charges` one-for-one in order — which makes
        the replayed spend equal :attr:`spent` bit-for-bit (identical
        summands, identical order).
        """
        issues: List[str] = []
        outstanding: List[LedgerEntry] = []
        for entry in self.ledger:
            if entry.kind == "charge":
                outstanding.append(entry)
            elif entry.kind == "refund":
                if entry.charge_seq is None:
                    issues.append(
                        f"ledger seq {entry.seq}: refund of {entry.label!r} "
                        "matches no outstanding charge"
                    )
                    continue
                match = next(
                    (e for e in outstanding if e.seq == entry.charge_seq), None
                )
                if match is None:
                    issues.append(
                        f"ledger seq {entry.seq}: refund points at charge "
                        f"seq {entry.charge_seq} which is not outstanding"
                    )
                    continue
                outstanding.remove(match)
        live = [(c.label, c.epsilon, c.period) for c in self.charges]
        replayed = [(e.label, e.epsilon, e.period) for e in outstanding]
        if live != replayed:
            issues.append(
                f"ledger replay yields {len(replayed)} outstanding charge(s) "
                f"but the live books hold {len(live)}"
            )
        ledger_spent = sum(
            e.epsilon for e in outstanding if e.period == self.period
        )
        accounted = self.spent
        if not issues and ledger_spent != accounted:
            issues.append(
                f"ledger spend {ledger_spent!r} != accounted spend {accounted!r}"
            )
        return LedgerReconciliation(
            ok=not issues,
            ledger_spent=ledger_spent,
            accounted_spent=accounted,
            outstanding=len(outstanding),
            issues=issues,
        )

    def queries_per_period(self, epsilon_per_query: float) -> int:
        """How many identical releases fit in one period — the paper's
        '(ln 2)/0.23 = 3 runs per year' computation. Tolerant of float
        division dust: an ``epsilon_max`` that is an exact multiple of
        the per-query epsilon counts every release (see
        :func:`whole_releases`)."""
        return whole_releases(self.epsilon_max, epsilon_per_query)
