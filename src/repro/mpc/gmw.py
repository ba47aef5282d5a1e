"""The GMW protocol: n-party evaluation of Boolean circuits on XOR shares.

This is the MPC engine DStress invokes for every computation step (§3.3,
§3.6). Wire values are XOR-shared among the parties of a block:

* XOR and NOT gates are local (XOR of shares / flip by party 0);
* each AND gate needs one 1-out-of-4 OT per *unordered* pair of parties
  to share the cross terms ``x_i y_j XOR x_j y_i`` of
  ``(XOR_i x_i)(XOR_j y_j)`` (Goldreich's presentation of GMW) — this is
  where the quadratic total cost and linear per-party cost of Figures 3–5
  come from. No trusted party takes part: every AND gate runs between the
  block's members alone.

Inputs arrive already shared and outputs stay shared: DStress never opens
intermediate values (§3.3). The engine reports per-party traffic in bits and
interaction rounds (= AND depth), which feed the cost model; both are read
off the circuit's :class:`~repro.mpc.cost.Bill`
(:meth:`GMWEngine._closed_form_traffic`).

**Mask stream.** An evaluation reads one 32-byte instance key from its
generator and nothing more. Of a pair ``{i < j}`` party ``i`` is the
sender, and the pair's masks are one keyed column,
``shake_256(key ‖ "gmw-pair" ‖ i ‖ j)`` read to ``⌈and_gates / 8⌉``
bytes in one call (:func:`pair_columns`): the mask of AND ordinal ``g``
(gate-list order) is bit ``7 - g % 8`` of byte ``g // 8``, the tail bits
of the last byte unused. Whatever the OT backend draws per transfer
comes from the sender's own stream, derived from the key
(``DeterministicRNG(key).derive("gmw-ot-sender", i)``).

**Lanes.** :meth:`GMWEngine.evaluate` is the per-gate oracle: it runs the
OT backend once per AND gate per pair. :meth:`GMWEngine.evaluate_batch`
evaluates many instances of one circuit in one walk of the gate list,
with one Python ``int`` per wire: bit ``lane * n + p`` is party ``p``'s
*prefix share* (the XOR of shares ``0..p``) in instance ``lane``. XOR is
``^``; NOT and the constant one are the all-ones word; an AND is its
gate's offline seed ``^ (x & y)``. Its offline phase (:class:`PoolBuilder`)
reads the key and the columns ``evaluate`` reads, before any gate runs,
and folds them: party ``p``'s seed is the XOR of the columns ``(i, j)``
with ``i <= p < j``. Both leave every party the same share of every
wire.
:mod:`repro.mpc.bitslice` keeps the same contract in numpy words.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from hashlib import shake_256
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.crypto.ot import ObliviousTransfer, SimulatedObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CircuitError, OfflinePoolExhaustedError, ProtocolError
from repro.mpc.circuit import Circuit, CircuitStats, GateOp
from repro.mpc.cost import bill_for
from repro.sharing.xor import reconstruct_value, share_value

__all__ = [
    "GMWEngine",
    "GMWResult",
    "GMWTraffic",
    "LanePools",
    "PoolBuilder",
    "pair_columns",
]

#: bytes of an instance key: the one read an evaluation makes of its stream
INSTANCE_KEY_BYTES = 32
_PAIR_LABEL = b"gmw-pair"
_pack_pair = struct.Struct(">II").pack


def pair_columns(key: bytes, num_parties: int, and_gates: int) -> List[bytes]:
    """One instance's masks: a ``⌈and_gates / 8⌉``-byte column per pair
    ``{i < j}``, pairs in order ``(0, 1), (0, 2), …, (n - 2, n - 1)``,
    each one SHAKE-256 read keyed by the instance key and the pair."""
    size = (and_gates + 7) // 8
    return [
        shake_256(key + _PAIR_LABEL + _pack_pair(i, j)).digest(size)
        for i in range(num_parties - 1)
        for j in range(i + 1, num_parties)
    ]


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

    def copy(self) -> "GMWTraffic":
        """An equal record that shares no list or dict with this one."""
        sent, received, pairs = list(self.sent_bits), list(self.received_bits), dict(self.pair_bits)
        return GMWTraffic(self.num_parties, sent, received, self.ot_count, self.rounds, pairs)

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


# ---------------------------------------------------------------------------
# Offline phase
# ---------------------------------------------------------------------------


@dataclass
class LanePools:
    """One batch's offline randomness: each AND gate's masks folded into
    prefix seeds — party ``p``'s the XOR of what parties ``0..p`` drew as
    senders and received.

    Int lanes hold ``seeds`` as one word per AND ordinal in gate-list
    order, bit ``lane * n + p`` party ``p``'s prefix seed in instance
    ``lane``; numpy lanes (:mod:`repro.mpc.bitslice`) as a ``uint64[ands,
    n, words]`` array in the schedule's AND order. Single-use: a second
    :meth:`claim` raises :class:`OfflinePoolExhaustedError`.
    """

    num_parties: int
    num_instances: int
    and_gates: int
    seeds: Any
    consumed: bool = False

    @property
    def remaining(self) -> int:
        """AND gates whose randomness has not been consumed yet."""
        return 0 if self.consumed else self.and_gates

    def claim(self) -> Any:
        if self.consumed:
            raise OfflinePoolExhaustedError(
                "offline randomness pool exhausted: AND-gate randomness "
                "consumed twice (pools are single-use per batch)"
            )
        self.consumed = True
        return self.seeds


def _gate_words(lane_rows: List[List[int]], gates: int, width: int) -> List[int]:
    """Transpose per-(lane, party) rows — ``width``-bit ints, gate 0 the
    most significant bit, bits past ``gates`` unused — into one word per
    gate with bit ``lane * n + p``. Through binary text: the rows side by
    side, highest bit first, so gate ``g`` is the stride-``width`` slice
    from ``g``."""
    spec = f"0{width}b"
    text = "".join([format(row, spec) for rows in reversed(lane_rows) for row in reversed(rows)])
    return [int(text[g::width], 2) for g in range(gates)]


class PoolBuilder:
    """Reads one batch's offline randomness, instance by instance: the
    key and the pair columns :meth:`GMWEngine.evaluate` reads, folded into
    each party's prefix seed on the way in.

    Call :meth:`add_instance` once per circuit instance, in lane order:
    each call takes exactly the 32 bytes one ``evaluate`` of that
    instance would, so ``evaluate_batch(rng)`` and back-to-back
    ``evaluate(rng)`` calls agree. :meth:`build` turns the folds into
    :class:`LanePools`; :class:`repro.mpc.bitslice.OfflinePoolBuilder`
    builds numpy words from the same folds. ``mask_bytes`` counts the
    column bytes read (:func:`repro.mpc.cost.mask_bytes` per instance).
    """

    def __init__(self, circuit: Circuit, num_parties: int) -> None:
        self.circuit = circuit
        self.num_parties = num_parties
        # Sized from the compiled plan, not by walking gates: the plan's
        # AND count is the one the bill reads, and the cross-check test
        # in tests/test_mpc_gmw.py pins both to the per-gate transcript.
        self.and_gates = circuit.compile().stats.and_gates
        self.mask_bytes = 0
        #: per instance, each party's prefix seed: a ``8 * ⌈ands / 8⌉``-bit
        #: int, AND ordinal 0 the most significant bit
        self._rows: List[List[int]] = []

    @property
    def num_instances(self) -> int:
        return len(self._rows)

    def add_instance(self, rng: DeterministicRNG) -> None:
        n = self.num_parties
        columns = pair_columns(rng.randbytes(INSTANCE_KEY_BYTES), n, self.and_gates)
        # mask (i, j) is in party p's prefix iff i <= p < j: fold the
        # columns at both ends of each pair, then XOR the folds up the parties
        ends = [0] * n
        pair = 0
        for i in range(n - 1):
            for j in range(i + 1, n):
                column = int.from_bytes(columns[pair], "big")
                ends[i] ^= column
                ends[j] ^= column
                pair += 1
        prefix = 0
        row = []
        for fold in ends:
            prefix ^= fold
            row.append(prefix)
        self._rows.append(row)
        self.mask_bytes += sum(map(len, columns))

    def build(self) -> LanePools:
        ands = self.and_gates
        width = 8 * ((ands + 7) // 8)
        return LanePools(
            num_parties=self.num_parties,
            num_instances=self.num_instances,
            and_gates=ands,
            seeds=_gate_words(self._rows, ands, width) if ands and self._rows else [],
        )


class GMWEngine:
    """Evaluates circuits under the GMW protocol.

    Parameters
    ----------
    num_parties:
        Block size ``k + 1``.
    ot:
        OT backend for AND gates. Defaults to the fast simulated backend
        with real-protocol byte accounting.
    """

    def __init__(self, num_parties: int, ot: Optional[ObliviousTransfer] = None) -> None:
        if num_parties < 2:
            raise ProtocolError("GMW needs at least two parties")
        self.num_parties = num_parties
        self.ot = ot if ot is not None else SimulatedObliviousTransfer()
        # ``pair_bits`` insertion order, which ``SecureRun._meter_gmw``'s
        # float accumulation iterates: ``(i, j)`` then ``(j, i)``, pair by pair
        n = num_parties
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        self._pairs = sorted(pairs, key=lambda p: (min(p), max(p)))

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
        """Run the protocol on pre-shared inputs, gate by gate: the
        per-gate oracle, which runs the OT backend once per AND gate per
        pair (any backend). Engines evaluate through
        :meth:`evaluate_batch`, which must match it bit for bit.

        ``shared_inputs[name]`` holds one integer share per party for the
        named input bus; XOR of the shares is the plaintext value.
        """
        n = self.num_parties
        self._check_shared_inputs(circuit, shared_inputs)
        stats = circuit.stats()

        key = rng.randbytes(INSTANCE_KEY_BYTES)
        # masks[pair][g]: the module docstring's mask of AND ordinal g
        masks = [
            [(byte >> shift) & 1 for byte in column for shift in _BIT_SHIFTS]
            for column in pair_columns(key, n, stats.and_gates)
        ]
        keyed = DeterministicRNG(key)
        sender_rngs = [keyed.derive("gmw-ot-sender", i) for i in range(n - 1)]
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
            else:
                wire_shares[out] = self._and_via_ot(
                    a_shares, wire_shares[b], masks, ordinal, sender_rngs
                )
                ordinal += 1

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
        """Validate one instance's share map (every evaluator calls it, so
        all of them reject malformed inputs identically)."""
        n = self.num_parties
        for name in circuit.input_buses:
            if name not in shared_inputs:
                raise CircuitError(f"missing shares for input bus {name!r}")
            shares = shared_inputs[name]
            if len(shares) != n:
                raise ProtocolError(
                    f"input bus {name!r} has {len(shares)} shares, expected {n}"
                )
            for share in shares:
                if not isinstance(share, int):
                    raise ProtocolError(
                        f"input bus {name!r} has a {type(share).__name__} share; "
                        "shares are int"
                    )

    # -- lanes: offline ------------------------------------------------------

    def _require_silent_ot(self) -> None:
        """Lanes compute what a correct OT returns and never run the
        backend, so it must be the rng-silent simulated one:
        a backend that does per-transfer work and draws (DDH, IKNP) would
        be billed but not executed, and its draws are not something the
        offline phase reads."""
        if not isinstance(self.ot, SimulatedObliviousTransfer):
            raise ProtocolError(
                "lane GMW requires the rng-silent simulated OT backend; "
                f"{type(self.ot).__name__} consumes per-transfer randomness, "
                "which the offline phase cannot replay"
            )

    def pool_builder(self, circuit: Circuit) -> PoolBuilder:
        """A builder for this engine's party count (the secure engine
        interleaves several to keep vertex transcript order)."""
        self._require_silent_ot()
        return PoolBuilder(circuit, self.num_parties)

    def precompute(
        self, circuit: Circuit, num_instances: int, rng: DeterministicRNG
    ) -> LanePools:
        """Draw all per-gate randomness for ``num_instances`` back-to-back
        evaluations of ``circuit`` — the offline phase."""
        builder = self.pool_builder(circuit)
        for _ in range(num_instances):
            builder.add_instance(rng)
        return builder.build()

    # -- lanes: online -------------------------------------------------------

    def evaluate_batch(
        self,
        circuit: Circuit,
        shared_inputs_list: Sequence[Dict[str, Sequence[int]]],
        rng: Optional[DeterministicRNG] = None,
        pools: Optional[LanePools] = None,
    ) -> List[GMWResult]:
        """Evaluate ``circuit`` once per entry of ``shared_inputs_list``, the
        entries as lanes of one walk.

        With ``pools`` (from :meth:`pool_builder`) the online phase is
        RNG-free; otherwise ``rng`` is consumed by an implicit offline
        phase exactly as back-to-back :meth:`evaluate` calls would consume
        it. Output shares, traffic and OT stats equal theirs.
        """
        n = self.num_parties
        lanes = len(shared_inputs_list)
        self._require_silent_ot()
        for shared_inputs in shared_inputs_list:
            self._check_shared_inputs(circuit, shared_inputs)
        if pools is None:
            if rng is None:
                raise ProtocolError("evaluate_batch needs an rng or prebuilt pools")
            pools = self.precompute(circuit, lanes, rng)
        if pools.num_parties != n:
            raise ProtocolError(
                f"offline pool is for {pools.num_parties} parties, engine has {n}"
            )
        if pools.num_instances != lanes:
            raise OfflinePoolExhaustedError(
                f"offline pool provisioned {pools.num_instances} instances, "
                f"online batch has {lanes}"
            )
        if lanes == 0:
            return []
        stats = circuit.compile().stats
        if pools.and_gates != stats.and_gates:
            raise OfflinePoolExhaustedError(
                f"offline pool provisioned {pools.and_gates} AND gates, the circuit "
                f"has {stats.and_gates} — pool built for a different circuit"
            )
        bus_shares = self._evaluate_lanes(circuit, shared_inputs_list, pools)
        traffic = self._closed_form_traffic(stats)  # one bill per batch
        self._record_bulk_ot_stats(traffic.ot_count * lanes)
        bus_widths = {name: len(wires) for name, wires in circuit.output_buses.items()}
        return [
            GMWResult(
                num_parties=n,
                bus_widths=dict(bus_widths),
                output_shares={name: shares[lane] for name, shares in bus_shares.items()},
                traffic=traffic.copy(),
            )
            for lane in range(lanes)
        ]

    def _evaluate_lanes(
        self,
        circuit: Circuit,
        shared_inputs_list: Sequence[Dict[str, Sequence[int]]],
        pools: LanePools,
    ) -> Dict[str, List[List[int]]]:
        """The online walk: output shares as ``{bus: [lane][party]}``.

        Buses are transposed at the edges through binary text, as in
        :meth:`Circuit.evaluate_many`, with one row per (lane, party).
        """
        n = self.num_parties
        lanes = len(shared_inputs_list)
        rows = lanes * n
        full = (1 << rows) - 1
        low = sum(1 << (lane * n) for lane in range(lanes))  # party 0 of every lane
        values = [0] * circuit.num_wires
        values[circuit.one] = full  # party 0 holds the one: every prefix is 1
        for name, wires in circuit.input_buses.items():
            width = len(wires)
            mask = (1 << width) - 1
            spec = f"0{width}b"
            text = []
            for inputs in reversed(shared_inputs_list):  # highest bit first
                prefix = 0
                lane_rows = []
                for share in inputs[name]:
                    prefix ^= share
                    lane_rows.append(format(prefix & mask, spec))
                text.extend(reversed(lane_rows))
            joined = "".join(text)
            for position, wire in enumerate(wires):
                values[wire] = int(joined[width - 1 - position :: width], 2)

        seeds = pools.claim()
        ordinal = 0
        xor_op, and_op = GateOp.XOR, GateOp.AND
        for op, a, b, out in circuit.gates:
            if op is xor_op:
                values[out] = values[a] ^ values[b]
            elif op is and_op:
                # each party's prefix update telescopes to X_<=p & Y_<=p
                values[out] = seeds[ordinal] ^ (values[a] & values[b])
                ordinal += 1
            else:
                values[out] = values[a] ^ full

        # prefix shares back to shares: party p > 0 XORs away p - 1's prefix
        upper = full ^ low
        spec = f"0{rows}b"
        bus_shares: Dict[str, List[List[int]]] = {}
        for name, wires in circuit.output_buses.items():
            if not wires:
                bus_shares[name] = [[0] * n for _ in range(lanes)]
                continue
            text = "".join(
                [format(w ^ ((w << 1) & upper), spec) for w in (values[x] for x in reversed(wires))]
            )
            # bit k of every wire, most significant wire first
            flat = [int(text[rows - 1 - k :: rows], 2) for k in range(rows)]
            bus_shares[name] = [flat[lane * n : lane * n + n] for lane in range(lanes)]
        return bus_shares

    def _record_bulk_ot_stats(self, transfers: int) -> None:
        """The OT backend's accounting for ``transfers`` transfers that the
        lanes computed, in one update."""
        stats = self.ot.stats
        stats.transfers += transfers
        sender_bytes, receiver_bytes = self.ot.and_gate_bytes()
        stats.sender_bytes += transfers * sender_bytes
        stats.receiver_bytes += transfers * receiver_bytes

    def _closed_form_traffic(self, stats: CircuitStats) -> GMWTraffic:
        """One evaluation's traffic, off its bill: of every pair ``{i < j}``
        the link ``i -> j`` carries the bill's first direction and
        ``j -> i`` its second."""
        n = self.num_parties
        bill = bill_for([stats], n, ot_bytes=self.ot.and_gate_bytes())
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
        sender_rngs: List[DeterministicRNG],
    ) -> List[int]:
        """GMW AND: local terms plus one 1-out-of-4 OT per unordered pair.

        ``z = XOR_i x_i y_i  XOR  XOR_{i < j} (x_i y_j XOR x_j y_i)``; the
        pair's cross term is shared between sender ``i`` and receiver
        ``j``: the sender masks with its random bit ``r`` (the module
        docstring's mask of ``ordinal`` in column ``(i, j)``) and offers
        ``m[2a + b] = r XOR b x_i XOR a y_i``; the receiver chooses
        ``2 x_j + y_j``.
        """
        n = self.num_parties
        transfer4 = self.ot.transfer4
        z = [x[p] & y[p] for p in range(n)]
        pair = 0
        for i in range(n - 1):
            held = 2 * x[i] + y[i]
            rng_i = sender_rngs[i]
            for j in range(i + 1, n):
                r = masks[pair][ordinal]
                pair += 1
                z[i] ^= r
                z[j] ^= transfer4(_OFFERS[4 * r + held], 2 * x[j] + y[j], rng_i)[0]
        return z
