"""Shock scenarios for stress tests (§2.1, Appendix C).

A stress test fixes a hypothetical event and asks what happens to the
network if it occurs. Mechanically a shock reduces the liquid reserves
(Eisenberg-Noe) and primitive-asset values (EGJ) of the exposed banks;
contagion then propagates through the contract graph.

Appendix C exercises two canonical scenarios on a core-periphery network:
a *peripheral* shock that the core absorbs, and a *core* shock that
cascades. Both are provided here as parameterized constructors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.exceptions import ConfigurationError
from repro.finance.network import FinancialNetwork

__all__ = ["Shock", "apply_shock", "uniform_shock"]


@dataclass(frozen=True)
class Shock:
    """An adverse event hitting a set of banks.

    ``severity`` is the fraction of the targeted banks' asset values wiped
    out (1.0 = total loss of the shocked component).
    """

    targets: tuple
    severity: float
    label: str = "shock"

    def __post_init__(self) -> None:
        if not 0.0 <= self.severity <= 1.0:
            raise ConfigurationError("shock severity must lie in [0, 1]")
        if not self.targets:
            raise ConfigurationError("a shock must target at least one bank")
        if len(set(self.targets)) != len(self.targets):
            # each target is scaled once per mention: a repeat would
            # compound the severity on that bank
            raise ConfigurationError("a shock must not target a bank twice")


def apply_shock(network: FinancialNetwork, shock: Shock) -> FinancialNetwork:
    """Return a copy of the network (:meth:`FinancialNetwork.copy`) with
    the shock applied; the input is left untouched.

    Liquid reserves and base assets of the targets are scaled by
    ``1 - severity``; contracts, thresholds and pre-shock valuations are
    untouched (the point of the stress test is to compare the shocked
    balance sheets against the pre-shock obligations).
    """
    shocked = network.copy()
    for bank_id in shock.targets:
        if bank_id not in shocked.banks:
            raise ConfigurationError(f"shock targets unknown bank {bank_id}")
        bank = shocked.banks[bank_id]
        bank.cash *= 1.0 - shock.severity
        bank.base_assets *= 1.0 - shock.severity
    return shocked


def uniform_shock(targets: Iterable[int], severity: float, label: str = "shock") -> Shock:
    """Convenience constructor from any iterable of bank ids."""
    return Shock(targets=tuple(targets), severity=severity, label=label)
