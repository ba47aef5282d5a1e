"""The bill: what a DStress run costs in operations, derived once (§5.2, §5.3).

The only place the counts are derived: the GMW engines build their traffic
from a bill, the secure engine meters transfers at its run's bill, the
estimator multiplies bills by calibrated constants (Figure 6), and the
parity matrix holds every secure run's counters to its bill exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.mpc.circuit import CircuitStats

__all__ = ["Bill", "TransferLines", "bill_for", "mask_bytes"]


def mask_bytes(and_gates: int, parties: int, lanes: int = 1) -> int:
    """Bytes a GMW batch of ``lanes`` instances reads offline: one
    ``⌈and_gates / 8⌉``-byte mask column per block pair ``{i < j}`` and
    instance (:class:`~repro.mpc.gmw.PoolBuilder`)."""
    return lanes * parties * (parties - 1) // 2 * ((and_gates + 7) // 8)


@dataclass(frozen=True)
class TransferLines:
    """One transfer between blocks of ``parties`` = b members, per §5.3
    role: the exponentiations each role performs, and the bytes it sends
    along the route member of B_u → ``u`` → ``v`` → member of B_v."""

    parties: int
    #: each member of B_u to ``u``
    sender_bytes: int
    #: ``u`` to ``v``
    u_bytes: int
    #: ``v`` to each member of B_v
    receiver_bytes: int
    sender_exps: int = 0
    u_exps: int = 0
    v_exps: int = 0
    receiver_exps: int = 0

    @property
    def exponentiations(self) -> int:
        b = self.parties
        return b * self.sender_exps + self.u_exps + self.v_exps + b * self.receiver_exps

    @property
    def critical_exps(self) -> int:
        """The critical path: a sender, ``u``, ``v``, a receiver."""
        return self.sender_exps + self.u_exps + self.v_exps + self.receiver_exps

    @property
    def sent_bytes(self) -> int:
        """Bytes one transfer puts on the wire: the b senders, ``u``, ``v``."""
        b = self.parties
        return b * self.sender_bytes + self.u_bytes + b * self.receiver_bytes


@dataclass(frozen=True)
class Bill:
    """Operation counts of GMW computation steps and ``transfers`` §3.5
    transfers among blocks of ``parties`` = b = k + 1 members.

    GMW: every AND gate is one 1-out-of-4 OT per unordered party pair
    ``{i < j}``, ``i`` the sender; one round per AND layer.

    Transfers: the run agrees one key per sender–receiver pair on each of
    ``key_agreements`` edge slots at setup (:attr:`agreement`, 2b² + 2b
    exponentiations), then moves every step's subshares under XOR pads
    (:attr:`pad`: no exponentiation, ⌈L/8⌉ bytes per subshare).
    :attr:`elgamal` prices the paper's per-iteration ElGamal transfer,
    which the estimator projects with and no run executes.
    """

    parties: int
    #: AND gates and AND depth of the widest / deepest circuit in a step
    and_gates: int = 0
    and_rounds: int = 0
    #: 1-out-of-4 OTs over every step and block
    ots: int = 0
    #: wire bits of one block pair ``{i < j}`` in the widest circuit: what
    #: ``i`` sends ``j`` (the OT sender's link), then what ``j`` sends ``i``
    pair_bits: Tuple[int, int] = (0, 0)
    transfers: int = 0
    #: edge slots whose keys the run agrees at setup, one per transferring slot
    key_agreements: int = 0
    message_bits: int = 0
    element_bytes: int = 0
    #: mask bytes every GMW offline phase of the run reads: each step's
    #: blocks, then the circuits evaluated once per release (:func:`mask_bytes`)
    mask_bytes: int = 0

    @property
    def ots_per_party(self) -> int:
        """OTs a block position is in: one per AND gate per other member,
        as sender toward the later members and receiver from the earlier."""
        return 2 * self.ots // self.parties

    def sent_bits(self, party: int) -> int:
        """Bits block position ``party`` sends in one step of the widest
        circuit: the sender link to each later member, the receiver link
        to each earlier one."""
        down, up = self.pair_bits
        return (self.parties - 1 - party) * down + party * up

    def received_bits(self, party: int) -> int:
        """Bits block position ``party`` receives in one step of the widest
        circuit (what :meth:`sent_bits` counts, seen from the far end)."""
        down, up = self.pair_bits
        return party * down + (self.parties - 1 - party) * up

    @property
    def party_sent_bytes(self) -> float:
        """Bytes a block position sends in one step of the widest circuit,
        averaged over the block (every pair carries both directions)."""
        return sum(self.pair_bits) * (self.parties - 1) / 16

    # -- transfers, per role --

    @property
    def agreement(self) -> TransferLines:
        """One edge slot's key agreement at setup. Each member of B_u sends
        ``g^r`` and derives its b keys as ``pk'^r``; ``u`` forwards the b
        halves; ``v`` raises each to its neighbor key once and hands all b
        to every receiver, who raises them to its secret key."""
        b, e = self.parties, self.element_bytes
        return TransferLines(
            b, e, b * e, b * e, sender_exps=1 + b, v_exps=b, receiver_exps=b
        )

    @property
    def pad(self) -> TransferLines:
        """One step's transfer on agreed keys: every subshare is L bits
        under a pad, combined by XOR at ``u``; no exponentiation."""
        b, word = self.parties, (self.message_bits + 7) // 8
        return TransferLines(b, b * word, b * word, word)

    @property
    def elgamal(self) -> TransferLines:
        """The paper's transfer, paid in every iteration: each member of
        B_u sends ``g^y`` and ``L`` ``pk^y`` per receiver, ``u`` adds a
        ``g^noise`` offset per bit per aggregate, ``v`` adjusts each
        aggregate's ``c1``, each member of B_v takes ``L`` decryption
        masks; a subshare is ``L + 1`` group elements."""
        b, bits = self.parties, self.message_bits
        subshare = (bits + 1) * self.element_bytes
        return TransferLines(
            b, b * subshare, b * subshare, subshare,
            sender_exps=b * (bits + 1), u_exps=b * bits, v_exps=b, receiver_exps=bits,
        )

    @property
    def exponentiations(self) -> int:
        """The run's: its key agreements (a pad transfer exponentiates nothing)."""
        return self.key_agreements * self.agreement.exponentiations


def bill_for(
    stats: Iterable[CircuitStats],
    parties: int,
    *,
    steps: int = 1,
    transfers: int = 0,
    key_agreements: int = 0,
    message_bits: int = 0,
    element_bytes: int = 0,
    ot_bytes: Tuple[int, int] = (0, 0),
    releases: Iterable[CircuitStats] = (),
) -> Bill:
    """The bill of ``steps`` computation steps, each evaluating one circuit
    per entry of ``stats`` (one block each), plus ``transfers`` transfers
    on ``key_agreements`` edge slots.
    ``ot_bytes`` is what one AND gate's OT puts on the wire, sender then
    receiver (:meth:`~repro.crypto.ot.ObliviousTransfer.and_gate_bytes`).
    ``releases`` are the circuits evaluated once each outside the steps
    (the aggregation tree's partial sums, every release's noised sum):
    they add their offline reads to ``mask_bytes`` and nothing else."""
    stats = list(stats)
    ands = max((s.and_gates for s in stats), default=0)
    return Bill(
        parties,
        and_gates=ands,
        and_rounds=max((s.and_depth for s in stats), default=0),
        ots=steps * sum(s.and_gates for s in stats) * parties * (parties - 1) // 2,
        pair_bits=(8 * ands * ot_bytes[0], 8 * ands * ot_bytes[1]),
        transfers=transfers,
        key_agreements=key_agreements,
        message_bits=message_bits,
        element_bytes=element_bytes,
        mask_bytes=steps * sum(mask_bytes(s.and_gates, parties) for s in stats)
        + sum(mask_bytes(s.and_gates, parties) for s in releases),
    )
