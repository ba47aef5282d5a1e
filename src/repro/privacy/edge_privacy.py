"""Edge-privacy accounting for the transfer protocol (Appendix B).

The final message transfer protocol leaks a noised *sum* of bit shares for
every bit transferred over an edge. Appendix B treats each such sum as a
query ``Q_(i,j)`` on the graph with sensitivity ``Delta = k + 1`` (every
honest-but-curious sender contributes a bit in {0, 1}) released through the
geometric mechanism. This module implements that accounting:

* the mechanism's per-transfer epsilon,
* the decryption failure probability ``P_fail`` from the bounded dlog
  table (the noised sum rides in an ElGamal exponent),
* the largest usable noise parameter ``alpha_max`` for a target failure
  budget, and
* the per-iteration and per-year draw on the privacy budget, reproducing
  the paper's concrete example (k+1 = 20, L = 16, N = 1750, D = 100,
  I = 11, R = 3, Y = 10 -> 0.0014 per iteration, 0.0469 per year).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import SensitivityError

__all__ = [
    "transfer_sensitivity",
    "mechanism_alpha",
    "failure_probability",
    "alpha_max_for_failure_budget",
    "total_transfers",
    "per_iteration_epsilon",
    "dlog_table_entries",
    "EdgePrivacyAnalysis",
]


def transfer_sensitivity(collusion_bound: int) -> int:
    """``Delta = k + 1``: the sum of ``k+1`` bit shares moves by at most
    the block size when the underlying edge changes."""
    if collusion_bound < 1:
        raise SensitivityError("collusion bound must be at least 1")
    return collusion_bound + 1


def mechanism_alpha(epsilon: float, sensitivity: int) -> float:
    """Noise parameter for the released sums: ``alpha_mech = alpha^{2/Delta}``
    with ``alpha = e^-eps`` — i.e. ``exp(-2 eps / Delta)``.

    The protocol adds ``2 * Geo(alpha^{2/Delta})``, and the factor-2 noise
    granularity cancels the factor-2 in the exponent, giving a ratio bound
    of ``alpha^{|..|/Delta}`` and hence eps-DP per transfer (Appendix B).
    """
    if epsilon <= 0:
        raise SensitivityError("epsilon must be positive")
    return math.exp(-2.0 * epsilon / sensitivity)


def failure_probability(alpha_param: float, table_entries: int) -> float:
    """``P_fail``: the geometric draw escapes the dlog window (Appendix B).

    The lookup table spans ``[-N_l/2, N_l/2]``; the paper's closed form is
    ``(2 alpha^{N_l/2} + alpha - 1) / (1 + alpha)`` (clamped to [0, 1] —
    the geometric-series approximation can dip below zero for alpha
    near 1).
    """
    if not 0.0 < alpha_param < 1.0:
        raise SensitivityError("alpha must lie in (0, 1)")
    if table_entries < 2:
        raise SensitivityError("table must have at least 2 entries")
    half = table_entries / 2.0
    raw = (2.0 * alpha_param**half + alpha_param - 1.0) / (1.0 + alpha_param)
    return min(1.0, max(0.0, raw))


def alpha_max_for_failure_budget(table_entries: int, max_failure: float) -> float:
    """Largest noise parameter with ``P_fail <= max_failure`` (ineq. (1)).

    ``P_fail`` is increasing in alpha, so bisection on (0, 1) suffices.
    """
    if not 0.0 < max_failure < 1.0:
        raise SensitivityError("failure budget must lie in (0, 1)")
    lo, hi = 1e-12, 1.0 - 1e-15
    if failure_probability(lo, table_entries) > max_failure:
        raise SensitivityError("even negligible noise exceeds the failure budget")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if failure_probability(mid, table_entries) <= max_failure:
            lo = mid
        else:
            hi = mid
    return lo


def total_transfers(
    years: int,
    runs_per_year: int,
    iterations: int,
    num_nodes: int,
    degree_bound: int,
    message_bits: int,
    collusion_bound: int,
) -> int:
    """``N_q = Y * R * I * N * D * L * (k+1)^2`` (Appendix B)."""
    block = collusion_bound + 1
    return years * runs_per_year * iterations * num_nodes * degree_bound * message_bits * block * block


def per_iteration_epsilon(collusion_bound: int, message_bits: int, epsilon_per_transfer: float) -> float:
    """Budget drawn per iteration: ``k * (k+1) * L * eps``.

    An adversary controlling ``k`` of the ``k+1`` members of the receiving
    block observes ``k * (k+1) * L`` noised sums per iteration over the
    target edge.
    """
    k = collusion_bound
    return k * (k + 1) * message_bits * epsilon_per_transfer


def dlog_table_entries(ram_bytes: int, ciphertext_bits: int) -> int:
    """Entries that fit in a decryption lookup table of ``ram_bytes``."""
    if ciphertext_bits <= 0:
        raise SensitivityError("ciphertext size must be positive")
    return (ram_bytes * 8) // ciphertext_bits


@dataclass(frozen=True)
class EdgePrivacyAnalysis:
    """End-to-end Appendix B accounting for one deployment configuration."""

    collusion_bound: int = 19
    message_bits: int = 16
    num_nodes: int = 1750
    degree_bound: int = 100
    iterations: int = 11
    runs_per_year: int = 3
    years: int = 10
    table_entries: int = 230_000_000
    epsilon_per_transfer: float = 2.34e-7

    @property
    def sensitivity(self) -> int:
        return transfer_sensitivity(self.collusion_bound)

    @property
    def alpha(self) -> float:
        """``alpha = e^-eps`` for the per-transfer epsilon."""
        return math.exp(-self.epsilon_per_transfer)

    @property
    def transfers(self) -> int:
        return total_transfers(
            self.years,
            self.runs_per_year,
            self.iterations,
            self.num_nodes,
            self.degree_bound,
            self.message_bits,
            self.collusion_bound,
        )

    @property
    def failure_probability(self) -> float:
        return failure_probability(self.alpha, self.table_entries)

    @property
    def meets_failure_budget(self) -> bool:
        """Inequality (1): fail at most once in ``N_q`` transfers."""
        return self.failure_probability <= 1.0 / self.transfers

    @property
    def epsilon_per_iteration(self) -> float:
        return per_iteration_epsilon(
            self.collusion_bound, self.message_bits, self.epsilon_per_transfer
        )

    @property
    def epsilon_per_year(self) -> float:
        return self.epsilon_per_iteration * self.runs_per_year * self.iterations
