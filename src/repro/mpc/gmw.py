"""The GMW protocol: n-party evaluation of Boolean circuits on XOR shares.

This is the MPC engine DStress invokes for every computation step (§3.3,
§3.6). Wire values are XOR-shared among the parties of a block:

* XOR and NOT gates are local (XOR of shares / flip by party 0);
* each AND gate needs one 1-out-of-4 OT per *unordered* pair of parties
  to share the cross terms ``x_i y_j XOR x_j y_i`` of
  ``(XOR_i x_i)(XOR_j y_j)`` (Goldreich's presentation of GMW) — this is
  where the quadratic total cost and linear per-party cost of Figures 3–5
  come from;
* alternatively, AND gates can burn a Beaver triple from a trusted dealer
  (the ``beaver`` mode, used for the backend ablation).

Inputs arrive already shared and outputs stay shared: DStress never opens
intermediate values (§3.3). The engine reports per-party traffic in bits and
interaction rounds (= AND depth), which feed the cost model; both are read
off the circuit's :class:`~repro.mpc.cost.Bill`
(:meth:`GMWEngine._closed_form_traffic`).

**Mask stream.** In ``ot`` mode every party forks one sub-stream off the
run's generator (``rng.fork("gmw-party-p")``, 32 parent bytes each) and
reads all its sender masks from it up front, eight to the byte
(:func:`mask_stream_bytes`). Of a pair ``{i < j}`` party ``i`` is the
sender, so party ``i`` reads ``and_gates * (n - 1 - i)`` masks and party
``n - 1`` reads none (it still forks): mask ``k = gate_ordinal *
(n - 1 - i) + (j - i - 1)`` — AND gates numbered in gate-list order, the
receivers ``j > i`` in party order — is bit ``7 - k % 8`` of byte
``k // 8``; the tail bits of the last byte are unused. Whatever the OT
backend draws per transfer comes after the masks on the sender's
sub-stream. :mod:`repro.mpc.bitslice` unpacks the same read, so the two
engines leave every party the same share of every wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.ot import ObliviousTransfer, SimulatedObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CircuitError, ProtocolError
from repro.mpc.circuit import Circuit, CircuitStats, GateOp
from repro.mpc.cost import bill_for
from repro.sharing.xor import reconstruct_value, share_value

__all__ = ["GMWEngine", "GMWResult", "GMWTraffic", "mask_stream_bytes"]


def mask_stream_bytes(and_gates: int, num_parties: int, party: int) -> int:
    """Bytes ``party`` reads for its ``and_gates * (n - 1 - party)`` sender
    masks."""
    return (and_gates * (num_parties - 1 - party) + 7) // 8


@dataclass
class GMWTraffic:
    """Per-party and aggregate traffic/interaction statistics for one run.

    Beyond the historical per-party totals, every bit on the wire is also
    attributed to its ordered *pair* ``(source party, destination party)``
    — the granularity a block's OT batch actually travels at. The
    pair view is what the secure-async scheduler dispatches over the
    transport bus, and what the :class:`~repro.simulation.netsim.TrafficMeter`
    records as per-link bytes; by construction
    ``sum_j pair_bits[(i, j)] == sent_bits[i]`` for every party ``i``.
    """

    num_parties: int
    sent_bits: List[int] = field(default_factory=list)
    received_bits: List[int] = field(default_factory=list)
    ot_count: int = 0
    rounds: int = 0
    #: Wire bits per ordered party pair: ``pair_bits[(i, j)]`` is what
    #: party ``i`` put on the wire addressed to party ``j``.
    pair_bits: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def pair_bytes(self) -> Dict[Tuple[int, int], float]:
        """Bytes per ordered party pair — the block's OT batch, link by link."""
        return {pair: bits / 8.0 for pair, bits in self.pair_bits.items()}

    @property
    def per_party_bytes(self) -> List[float]:
        return [bits / 8.0 for bits in self.sent_bits]

    def sender_ots(self, party: int) -> int:
        """OTs ``party`` ran as the sender: one per AND gate per later party."""
        n = self.num_parties
        return self.ot_count // (n * (n - 1) // 2) * (n - 1 - party)


@dataclass
class GMWResult:
    """Shares of the output buses after a GMW evaluation.

    ``output_shares[name][p]`` is party ``p``'s share of output bus
    ``name``, as an integer with one bit per bus wire.
    """

    num_parties: int
    bus_widths: Dict[str, int]
    output_shares: Dict[str, List[int]]
    traffic: GMWTraffic

    def reveal(self, name: str, signed: bool = False) -> int:
        """Recombine the shares of one output bus (breaks secrecy; used by
        tests and by the final aggregation reveal)."""
        return reconstruct_value(self.output_shares[name], self.bus_widths[name], signed=signed)


#: Shifts that read a byte's bits most significant first.
_BIT_SHIFTS = (7, 6, 5, 4, 3, 2, 1, 0)
#: A sender's 1-out-of-4 offer ``m[2a + b] = r ^ b x ^ a y`` as one-byte
#: messages, at index ``4 r + 2 x + y``.
_OFFERS = tuple(
    tuple(bytes([r ^ (b & x) ^ (a & y)]) for a in (0, 1) for b in (0, 1))
    for r in (0, 1)
    for x in (0, 1)
    for y in (0, 1)
)


class GMWEngine:
    """Evaluates circuits under the GMW protocol.

    Parameters
    ----------
    num_parties:
        Block size ``k + 1``.
    ot:
        OT backend for AND gates (ignored in ``beaver`` mode). Defaults to
        the fast simulated backend with real-protocol byte accounting.
    mode:
        ``"ot"`` for OT-based AND gates (the GMW of the paper), ``"beaver"``
        for trusted-dealer Beaver triples (ablation baseline).
    """

    def __init__(
        self,
        num_parties: int,
        ot: Optional[ObliviousTransfer] = None,
        mode: str = "ot",
    ) -> None:
        if num_parties < 2:
            raise ProtocolError("GMW needs at least two parties")
        if mode not in ("ot", "beaver"):
            raise ProtocolError(f"unknown GMW mode {mode!r}")
        self.num_parties = num_parties
        self.ot = ot if ot is not None else SimulatedObliviousTransfer()
        self.mode = mode
        # ``pair_bits`` insertion order, which ``SecureEngine._meter_gmw``'s
        # float accumulation iterates: ``ot`` visits ``(i, j)`` then
        # ``(j, i)`` pair by pair, ``beaver`` source by source
        n = num_parties
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        self._pairs = sorted(pairs, key=lambda p: (min(p), max(p))) if mode == "ot" else pairs

    # -- share plumbing ------------------------------------------------------

    def share_input(self, value: int, width: int, rng: DeterministicRNG) -> List[int]:
        """Split a plaintext bus value into one share per party (used by the
        initialization step, §3.6)."""
        return share_value(value, width, self.num_parties, rng)

    # -- evaluation ------------------------------------------------------------

    def evaluate(
        self,
        circuit: Circuit,
        shared_inputs: Dict[str, Sequence[int]],
        rng: DeterministicRNG,
    ) -> GMWResult:
        """Run the protocol on pre-shared inputs.

        ``shared_inputs[name]`` holds one integer share per party for the
        named input bus; XOR of the shares is the plaintext value.
        """
        n = self.num_parties
        self._check_shared_inputs(circuit, shared_inputs)
        stats = circuit.stats()
        ot_mode = self.mode == "ot"

        party_rngs = [rng.fork(f"gmw-party-{p}") for p in range(n)]
        # masks[i][k]: the module docstring's mask k of sender i
        masks = [
            [
                (byte >> shift) & 1
                for byte in party_rng.randbytes(mask_stream_bytes(stats.and_gates, n, p))
                for shift in _BIT_SHIFTS
            ]
            if ot_mode
            else []
            for p, party_rng in enumerate(party_rngs)
        ]
        ordinal = 0  # gate-list ordinal of the next AND gate

        # wire_shares[w] is the list of n share bits of wire w.
        wire_shares: List[List[int]] = [[0] * n for _ in range(circuit.num_wires)]
        # Constant one: party 0 holds 1 (a public constant needs no hiding).
        wire_shares[circuit.one][0] = 1

        for name, wires in circuit.input_buses.items():
            shares = shared_inputs[name]
            for position, wire in enumerate(wires):
                for p in range(n):
                    wire_shares[wire][p] = (shares[p] >> position) & 1

        xor_op, not_op = GateOp.XOR, GateOp.NOT
        for op, a, b, out in circuit.gates:
            a_shares = wire_shares[a]
            if op is xor_op:
                wire_shares[out] = [x ^ y for x, y in zip(a_shares, wire_shares[b])]
            elif op is not_op:
                flipped = list(a_shares)
                flipped[0] ^= 1
                wire_shares[out] = flipped
            elif ot_mode:
                wire_shares[out] = self._and_via_ot(
                    a_shares, wire_shares[b], masks, ordinal, party_rngs
                )
                ordinal += 1
            else:
                wire_shares[out] = self._and_via_beaver(a_shares, wire_shares[b], rng)

        output_shares: Dict[str, List[int]] = {}
        bus_widths: Dict[str, int] = {}
        for name, wires in circuit.output_buses.items():
            shares = [0] * n
            for position, wire in enumerate(wires):
                for p in range(n):
                    shares[p] |= wire_shares[wire][p] << position
            output_shares[name] = shares
            bus_widths[name] = len(wires)

        return GMWResult(
            num_parties=n,
            bus_widths=bus_widths,
            output_shares=output_shares,
            traffic=self._closed_form_traffic(stats),
        )

    def _check_shared_inputs(
        self, circuit: Circuit, shared_inputs: Dict[str, Sequence[int]]
    ) -> None:
        """Validate one instance's share map (shared with the bit-sliced
        engine so both backends reject malformed inputs identically)."""
        n = self.num_parties
        for name in circuit.input_buses:
            if name not in shared_inputs:
                raise CircuitError(f"missing shares for input bus {name!r}")
            if len(shared_inputs[name]) != n:
                raise ProtocolError(
                    f"input bus {name!r} has {len(shared_inputs[name])} shares, expected {n}"
                )

    def _closed_form_traffic(self, stats: CircuitStats) -> GMWTraffic:
        """One evaluation's traffic, off its bill: of every pair ``{i < j}``
        the link ``i -> j`` carries the bill's first direction and
        ``j -> i`` its second."""
        n = self.num_parties
        bill = bill_for([stats], n, mode=self.mode, ot_bytes=self.ot.and_gate_bytes())
        down, up = bill.pair_bits
        return GMWTraffic(
            num_parties=n,
            sent_bits=[bill.sent_bits(p) for p in range(n)],
            received_bits=[bill.received_bits(p) for p in range(n)],
            ot_count=bill.ots,
            rounds=bill.and_rounds,
            pair_bits=(
                {(i, j): down if i < j else up for i, j in self._pairs}
                if bill.and_gates
                else {}
            ),
        )

    def _and_via_ot(
        self,
        x: List[int],
        y: List[int],
        masks: List[List[int]],
        ordinal: int,
        party_rngs: List[DeterministicRNG],
    ) -> List[int]:
        """GMW AND: local terms plus one 1-out-of-4 OT per unordered pair.

        ``z = XOR_i x_i y_i  XOR  XOR_{i < j} (x_i y_j XOR x_j y_i)``; the
        pair's cross term is shared between sender ``i`` and receiver
        ``j``: the sender masks with its random bit ``r`` (the module
        docstring's mask of ``(ordinal, i, j)``) and offers ``m[2a + b] =
        r XOR b x_i XOR a y_i``; the receiver chooses ``2 x_j + y_j``.
        """
        n = self.num_parties
        transfer4 = self.ot.transfer4
        z = [x[p] & y[p] for p in range(n)]
        for i in range(n - 1):
            held = 2 * x[i] + y[i]
            masks_i = masks[i]
            rng_i = party_rngs[i]
            k = ordinal * (n - 1 - i)
            for j in range(i + 1, n):
                r = masks_i[k]
                k += 1
                z[i] ^= r
                z[j] ^= transfer4(_OFFERS[4 * r + held], 2 * x[j] + y[j], rng_i)[0]
        return z

    def _and_via_beaver(
        self,
        x: List[int],
        y: List[int],
        rng: DeterministicRNG,
    ) -> List[int]:
        """AND via a trusted-dealer Beaver triple (ablation backend).

        The dealer shares a random triple ``c = a AND b``; the parties open
        ``d = x XOR a`` and ``e = y XOR b`` (two bits broadcast per party)
        and set ``z_p = c_p XOR d.b_p XOR e.a_p`` (+ ``d.e`` at party 0).
        """
        n = self.num_parties
        a_plain = rng.randbit()
        b_plain = rng.randbit()
        a = share_value(a_plain, 1, n, rng)
        b = share_value(b_plain, 1, n, rng)
        c = share_value(a_plain & b_plain, 1, n, rng)
        d = 0
        e = 0
        for p in range(n):  # each party broadcasts its two mask bits
            d ^= x[p] ^ a[p]
            e ^= y[p] ^ b[p]
        z = [c[p] ^ (d & b[p]) ^ (e & a[p]) for p in range(n)]
        z[0] ^= d & e
        return z
