"""Closed-form cost accounting for GMW executions.

The scalability projections of Figure 6 are computed (in the paper and
here) from microbenchmark-calibrated per-operation costs multiplied by
operation *counts*. This module provides the counts; the calibrated time
constants live in :mod:`repro.simulation.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpc.circuit import Circuit

__all__ = ["GMWCost", "gmw_cost"]


@dataclass(frozen=True)
class GMWCost:
    """Operation counts for one GMW evaluation of one circuit."""

    parties: int
    and_gates: int
    xor_gates: int
    rounds: int
    total_ots: int
    ots_per_party: int
    #: bits each party puts on the wire (OT masks, or d/e openings in
    #: ``beaver`` mode)
    sent_bits_per_party: int
    #: trusted-dealer triples consumed (0 in ``ot`` mode) — what the
    #: bit-sliced offline phase provisions per circuit instance
    beaver_triples: int = 0

    @property
    def sent_bytes_per_party(self) -> float:
        return self.sent_bits_per_party / 8.0

    @property
    def total_bytes(self) -> float:
        return self.parties * self.sent_bytes_per_party


def gmw_cost(
    circuit: Circuit,
    parties: int,
    ot_sender_bytes: int,
    ot_receiver_bytes: int,
    mode: str = "ot",
) -> GMWCost:
    """Predict the cost of evaluating ``circuit`` with ``parties`` parties.

    In ``"ot"`` mode every AND gate runs one OT per ordered party pair, so
    each party acts ``(parties - 1)`` times as sender and ``(parties - 1)``
    times as receiver per AND gate: per-party traffic is linear in the
    block size while the total is quadratic — the two sides of Figures 3
    and 4. In ``"beaver"`` mode an AND gate instead consumes one dealer
    triple and each party broadcasts its two mask bits (``d``/``e``) to
    the other ``parties - 1``.

    The gate counts are read from the circuit's compiled plan when it has
    one (:meth:`~repro.mpc.circuit.Circuit.compile`; a circuit still under
    construction is walked), and are cross-checked against the transfers
    the scalar :class:`~repro.mpc.gmw.GMWEngine`'s OT backend records, one
    per call, in ``tests/test_mpc_gmw.py`` — the bit-sliced offline phase
    sizes its randomness pools from the same plan, so drift would surface
    as a hard :class:`~repro.exceptions.OfflinePoolExhaustedError`.
    """
    if mode not in ("ot", "beaver"):
        raise ValueError(f"unknown GMW mode {mode!r}")
    stats = circuit.stats()
    pairs = parties * (parties - 1)
    if mode == "ot":
        per_party_bits = stats.and_gates * (parties - 1) * 8 * (ot_sender_bytes + ot_receiver_bytes)
        total_ots = stats.and_gates * pairs
        ots_per_party = stats.and_gates * 2 * (parties - 1)
        triples = 0
    else:
        per_party_bits = stats.and_gates * 2 * (parties - 1)
        total_ots = 0
        ots_per_party = 0
        triples = stats.and_gates
    return GMWCost(
        parties=parties,
        and_gates=stats.and_gates,
        xor_gates=stats.xor_gates,
        rounds=stats.and_depth,
        total_ots=total_ots,
        ots_per_party=ots_per_party,
        sent_bits_per_party=per_party_bits,
        beaver_triples=triples,
    )
