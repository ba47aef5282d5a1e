"""Shared pre-charge admission control for releasing runs.

Three layers used to hand-roll the same notarize -> charge -> refund
dance against the :class:`~repro.privacy.budget.PrivacyAccountant`: the
engine lifecycle, ``run_batch``, and ``StressTestService._submit``. Each copy risked drifting on
the rules — what a releasing run costs, how a multi-window schedule is
itemized in the audit ledger, and which charges are refunded when a run
dies halfway. This module is now the single authority:

* :func:`release_schedule` — the itemized ``(label, epsilon)`` entries a
  run will charge: one entry for a one-shot release, one per window for
  continual release (suffixed ``-w1``, ``-w2``, ... so ledger replay
  shows the window structure).
* :func:`release_epsilon` — the total, used by admission gates and the
  scenario notary to price a run before anything executes.
* :func:`precharge` — charge the whole schedule atomically (all entries
  or none), returning a :class:`Precharge` whose ``refund()`` gives back
  exactly the entries whose windows never released.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.exceptions import PrivacyBudgetExceeded
from repro.privacy.budget import BudgetCharge, PrivacyAccountant

__all__ = ["Precharge", "precharge", "release_schedule", "release_epsilon"]


def release_schedule(
    engine: Any, config: Any, label: str
) -> List[Tuple[str, float]]:
    """The itemized charges executing ``engine`` once will incur.

    Non-releasing runs cost nothing. A single release charges under
    ``label`` itself; a windowed schedule suffixes the window ordinal so
    the audit ledger's replay exposes the release structure.
    """
    if not getattr(engine, "releases_output", False):
        return []
    policy = getattr(engine, "release_policy", None)
    if policy is None:
        # engines outside the lifecycle (custom test doubles) release
        # once at the config's full output epsilon
        return [(label, config.output_epsilon)]
    epsilons = policy.epsilon_schedule(config)
    if len(epsilons) == 1:
        return [(label, epsilons[0])]
    return [(f"{label}-w{i + 1}", eps) for i, eps in enumerate(epsilons)]


def release_epsilon(engine: Any, config: Any) -> float:
    """Total budget one execution of ``engine`` will charge."""
    return sum(eps for _, eps in release_schedule(engine, config, "release"))


@dataclass
class Precharge:
    """The live charges of one admitted run.

    ``confirm()`` marks the next window as released (its charge is now
    spent for good); ``refund()`` gives back every unconfirmed charge.
    A caller that never confirms — the batch/service layers, which treat
    the whole run as one release — refunds everything on failure.
    """

    accountant: PrivacyAccountant
    charges: List[BudgetCharge] = field(default_factory=list)
    released: int = 0

    @property
    def epsilon(self) -> float:
        """Total epsilon across all charged entries."""
        return sum(charge.epsilon for charge in self.charges)

    def confirm(self, count: int = 1) -> None:
        """Mark the next ``count`` windows' charges as irrevocably spent."""
        self.released = min(len(self.charges), self.released + count)

    def refund(self) -> None:
        """Give back every charge whose window never released."""
        pending, self.charges = self.charges[self.released:], self.charges[: self.released]
        for charge in reversed(pending):
            self.accountant.refund(charge)


def precharge(
    accountant: Optional[PrivacyAccountant],
    schedule: List[Tuple[str, float]],
    fingerprint: Optional[str] = None,
) -> Optional[Precharge]:
    """Charge a release schedule atomically, before anything executes.

    Returns ``None`` when there is nothing to charge (no accountant, or a
    non-releasing schedule). If a later entry of a multi-window schedule
    is refused, the earlier entries are rolled back before the
    :class:`~repro.exceptions.PrivacyBudgetExceeded` propagates — the
    ledger never retains a half-admitted run.
    """
    if accountant is None or not schedule:
        return None
    admitted = Precharge(accountant)
    try:
        for label, epsilon in schedule:
            admitted.charges.append(
                accountant.charge(epsilon, label=label, fingerprint=fingerprint)
            )
    except PrivacyBudgetExceeded:
        admitted.refund()
        raise
    return admitted
