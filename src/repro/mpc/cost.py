"""The bill: what a DStress run costs in operations, derived once (§5.2, §5.3).

The only place the counts are derived: the GMW engines build their traffic
from a bill, the secure engine meters transfers at its run's bill, the
estimator multiplies bills by calibrated constants (Figure 6), and the
parity matrix holds every secure run's counters to its bill exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Tuple

from repro.mpc.circuit import CircuitStats
from repro.transfer.protocol import TransferTraffic

__all__ = ["Bill", "bill_for"]


@dataclass(frozen=True)
class Bill:
    """Operation counts of GMW computation steps and ``transfers`` §3.5
    transfers among blocks of ``parties`` = b = k + 1 members.

    GMW: every AND gate is one 1-out-of-4 OT per unordered party pair
    ``{i < j}``, ``i`` the sender; one round per AND layer. A transfer of
    L = ``message_bits`` bits costs b²(L+1) + bL + b + bL exponentiations
    over the §5.3 roles below.
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
    message_bits: int = 0
    element_bytes: int = 0

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

    # -- one §3.5 transfer, per role --

    @property
    def sender_exps(self) -> int:
        """Each member of B_u: ``g^y`` and ``L`` ``pk^y`` per receiver."""
        return self.parties * (self.message_bits + 1)

    @property
    def u_exps(self) -> int:
        """Node ``u``: a ``g^noise`` offset per bit per aggregate."""
        return self.parties * self.message_bits

    @property
    def v_exps(self) -> int:
        """Node ``v``: one ``c1^r`` adjustment per aggregate."""
        return self.parties

    @property
    def receiver_exps(self) -> int:
        """Each member of B_v: ``L`` decryption masks."""
        return self.message_bits

    @property
    def critical_exps(self) -> int:
        """One transfer's critical path: a sender, ``u``, ``v``, a receiver."""
        return self.sender_exps + self.u_exps + self.v_exps + self.receiver_exps

    @property
    def exponentiations(self) -> int:
        b = self.parties
        per_transfer = b * self.sender_exps + self.u_exps + self.v_exps + b * self.receiver_exps
        return self.transfers * per_transfer

    @cached_property
    def transfer_bytes(self) -> TransferTraffic:
        """Wire bytes per §5.3 role of one transfer."""
        return TransferTraffic(self.element_bytes, self.parties, self.message_bits)

    @property
    def transfer_sent_bytes(self) -> int:
        """Bytes one transfer puts on the wire: the b senders, ``u``, ``v``."""
        t = self.transfer_bytes
        return self.parties * t.sender_member_bytes + t.node_u_sent_bytes + t.node_v_sent_bytes


def bill_for(
    stats: Iterable[CircuitStats],
    parties: int,
    *,
    steps: int = 1,
    transfers: int = 0,
    message_bits: int = 0,
    element_bytes: int = 0,
    ot_bytes: Tuple[int, int] = (0, 0),
) -> Bill:
    """The bill of ``steps`` computation steps, each evaluating one circuit
    per entry of ``stats`` (one block each), plus ``transfers`` transfers.
    ``ot_bytes`` is what one AND gate's OT puts on the wire, sender then
    receiver (:meth:`~repro.crypto.ot.ObliviousTransfer.and_gate_bytes`)."""
    stats = list(stats)
    ands = max((s.and_gates for s in stats), default=0)
    return Bill(
        parties,
        and_gates=ands,
        and_rounds=max((s.and_depth for s in stats), default=0),
        ots=steps * sum(s.and_gates for s in stats) * parties * (parties - 1) // 2,
        pair_bits=(8 * ands * ot_bytes[0], 8 * ands * ot_bytes[1]),
        transfers=transfers,
        message_bits=message_bits,
        element_bytes=element_bytes,
    )
