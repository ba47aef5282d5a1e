"""Bit-sliced GMW: whole AND rounds as numpy ``uint64`` lane operations.

The scalar :class:`~repro.mpc.gmw.GMWEngine` evaluates one gate of one
circuit instance per Python step. This module packs the same computation
across *instances*: lane ``l`` of every wire word is circuit instance
``l`` (``l // 64`` selects the word, ``l % 64`` the bit), so a batch of
``L`` instances occupies ``ceil(L / 64)`` words per slot per party::

    slots : uint64[num_slots, parties, words]      bit l of word w  =
    lane layout (one slot, one party):             instance 64*w + l
        word 0: | inst 63 ... inst 1 inst 0 |
        word 1: | inst 127 ... inst 65 inst 64 | (tail bits forced to 0)

The circuit runs as its :class:`~repro.mpc.circuit.StageSchedule`: per AND
round one XOR phase (one gather + one ``bitwise_xor.reduceat`` into a
contiguous slice of the slot cube) and one AND phase (two gathers, a
broadcast AND, one in-place XOR onto the round's pre-placed masks).

**Offline/online split.** All per-gate randomness is drawn in an offline
phase (:class:`OfflinePoolBuilder`) *before* any gate is evaluated, from
exactly the stream positions the scalar engine reads — the same
``rng.fork("gmw-party-p")`` calls, then in ``ot`` mode each party's
packed mask read (eight masks to the byte; the layout is in
:mod:`repro.mpc.gmw`), which ``np.unpackbits`` turns into that party's
row of the pool; in ``beaver`` mode the parent stream's one-byte
``randbit()`` draws, top bits kept. Pools are sized from the
circuit's compiled plan (the AND count :func:`repro.mpc.cost.gmw_cost`
reports) and indexed by AND-gate *ordinal* in gate-list order, so the
online phase may evaluate the gates in stage order while every gate
consumes the same random bits as its scalar twin. The
result: output shares — not just revealed outputs — and per-pair traffic
are bit-identical to the scalar transcript. The online phase touches no
RNG at all, so its latency is pure lane arithmetic (wire-bound once a
real transport carries the precomputed masks).

**Compile once.** Everything derived from the gate list — statistics and
the stage schedule with its index vectors — is built by
:meth:`Circuit.compile <repro.mpc.circuit.Circuit.compile>` onto the
circuit's :class:`~repro.mpc.circuit.CircuitPlan`: the first use compiles
(and seals) an ad-hoc circuit, circuits from the process-wide table
(:mod:`repro.mpc.plan`) arrive compiled, and a forked worker inherits both.

Requires numpy (an optional dependency: the core library stays pure
stdlib); constructing :class:`BitslicedGMWEngine` without it raises
:class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.ot import ObliviousTransfer, SimulatedObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import (
    ConfigurationError,
    OfflinePoolExhaustedError,
    ProtocolError,
)
from repro.mpc.circuit import Circuit
from repro.mpc.gmw import GMWEngine, GMWResult, mask_stream_bytes

try:  # pragma: no cover - exercised implicitly by every import site
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - container always ships numpy
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

__all__ = [
    "HAVE_NUMPY",
    "LANE_BITS",
    "BitslicedGMWEngine",
    "OfflinePoolBuilder",
    "OfflinePools",
    "lane_words",
    "pack_bits",
    "pack_lane_axis",
    "unpack_bits",
    "unpack_lane_axis",
]

LANE_BITS = 64


def require_numpy(feature: str = "bit-sliced GMW") -> None:
    """Raise the library's named configuration error when numpy is absent."""
    if not HAVE_NUMPY:
        raise ConfigurationError(
            f"{feature} requires numpy, which is not installed; "
            'use the default backend="scalar" instead'
        )


def lane_words(count: int) -> int:
    """Words needed to hold ``count`` lanes (0 lanes -> 0 words)."""
    if count < 0:
        raise ProtocolError("lane count must be non-negative")
    return (count + LANE_BITS - 1) // LANE_BITS


def _tail_mask(count: int) -> "np.ndarray":
    """Per-word mask keeping lanes ``< count`` — the canonical-form
    invariant: bits past the last instance are always zero, so whole-array
    equality is meaningful in tests."""
    words = lane_words(count)
    mask = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    tail = count % LANE_BITS
    if words and tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def pack_lane_axis(bits: "np.ndarray") -> "np.ndarray":
    """Pack the last axis (one entry per lane, values 0/1) into uint64
    words; shape ``(..., L)`` becomes ``(..., lane_words(L))``.

    ``np.packbits`` does the bit gathering in C, eight lanes to the byte,
    least-significant lane first; the bytes are zero-padded to whole words
    (the canonical tail-zero form) and viewed as explicitly little-endian
    ``uint64``, so lane ``l`` is bit ``l % 64`` of word ``l // 64`` on any
    host. Needs numpy >= 1.17 (``bitorder=``).
    """
    require_numpy("lane packing")
    bits = np.asarray(bits)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    padded = np.zeros(
        bits.shape[:-1] + (lane_words(bits.shape[-1]) * (LANE_BITS // 8),),
        dtype=np.uint8,
    )
    padded[..., : packed.shape[-1]] = packed
    return padded.view("<u8")


def unpack_lane_axis(words: "np.ndarray", count: int) -> "np.ndarray":
    """Inverse of :func:`pack_lane_axis`: expand the last (word) axis back
    to ``count`` lanes of 0/1 ``uint8`` values (tail bits discarded)."""
    require_numpy("lane unpacking")
    words = np.ascontiguousarray(words, dtype="<u8")
    if count > words.shape[-1] * LANE_BITS:
        raise ProtocolError(
            f"cannot unpack {count} lanes from {words.shape[-1]} words"
        )
    return np.unpackbits(words.view(np.uint8), axis=-1, count=count, bitorder="little")


def pack_bits(bits: Sequence[int]) -> "np.ndarray":
    """Pack a flat 0/1 sequence into a 1-D lane-word vector."""
    require_numpy("lane packing")
    arr = np.asarray(list(bits), dtype=np.uint64)
    if arr.size and bool((arr > 1).any()):
        raise ProtocolError("lane values must be single bits (0 or 1)")
    return pack_lane_axis(arr)


def unpack_bits(words: "np.ndarray", count: int) -> List[int]:
    """Unpack a 1-D lane-word vector back into a list of ``count`` bits."""
    return [int(b) for b in unpack_lane_axis(words, count)]


# ---------------------------------------------------------------------------
# Offline phase: per-gate randomness pools
# ---------------------------------------------------------------------------


@dataclass
class OfflinePools:
    """Lane-packed per-AND-gate randomness for a batch of instances.

    ``ot_masks[g, i, j]`` holds, for AND ordinal ``g``, the mask bit party
    ``i`` drew as OT *sender* toward receiver ``j`` (diagonal zero), one
    lane per instance. In beaver mode ``triple_a/b/c[g, p]`` hold party
    ``p``'s share of the dealer triple. A pool is single-use: the online
    phase takes all of it at once, in its schedule's gate order, and
    re-use or an ordinal outside the pool raises
    :class:`OfflinePoolExhaustedError`.
    """

    mode: str
    num_parties: int
    num_instances: int
    and_gates: int
    ot_masks: Optional["np.ndarray"] = None  # (and_gates, n, n, words)
    triple_a: Optional["np.ndarray"] = None  # (and_gates, n, words)
    triple_b: Optional["np.ndarray"] = None
    triple_c: Optional["np.ndarray"] = None
    _consumed: "np.ndarray" = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self._consumed is None:
            self._consumed = np.zeros(self.and_gates, dtype=bool)

    @property
    def remaining(self) -> int:
        """AND gates whose randomness has not been consumed yet."""
        return int(self.and_gates - self._consumed.sum())

    def _claim(self, ordinals: "np.ndarray") -> None:
        if ordinals.size == 0:
            return
        if int(ordinals.max(initial=0)) >= self.and_gates or int(ordinals.min()) < 0:
            raise OfflinePoolExhaustedError(
                f"offline pool provisioned {self.and_gates} AND gates but the "
                f"online phase asked for gate ordinal {int(ordinals.max())} — "
                "pool built for a different circuit"
            )
        if bool(self._consumed[ordinals].any()):
            raise OfflinePoolExhaustedError(
                "offline randomness pool exhausted: AND-gate randomness "
                "consumed twice (pools are single-use per batch)"
            )
        self._consumed[ordinals] = True

    def take_ot(self, ordinals: "np.ndarray") -> "np.ndarray":
        """Claim ``ordinals`` (a schedule's ``and_order``) and return, in
        that order, each gate's masks folded per party: what party ``p``
        drew as sender XOR what it receives, ``(gates, n, words)``."""
        if self.mode != "ot" or self.ot_masks is None:
            raise OfflinePoolExhaustedError(
                f"pool holds {self.mode!r}-mode randomness, not OT masks"
            )
        self._claim(ordinals)
        masks = self.ot_masks
        folded = np.bitwise_xor.reduce(masks, axis=2)  # party as sender
        folded ^= np.bitwise_xor.reduce(masks, axis=1)  # party as receiver
        return folded[ordinals]

    def take_beaver(
        self, ordinals: "np.ndarray"
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        if self.mode != "beaver" or self.triple_a is None:
            raise OfflinePoolExhaustedError(
                f"pool holds {self.mode!r}-mode randomness, not Beaver triples"
            )
        self._claim(ordinals)
        return (
            self.triple_a[ordinals],
            self.triple_b[ordinals],
            self.triple_c[ordinals],
        )


class OfflinePoolBuilder:
    """Accumulates one batch's offline randomness, instance by instance,
    consuming the parent RNG byte-for-byte as the scalar engine would.

    Call :meth:`add_instance` once per circuit instance *in transcript
    order* (for the secure engine: vertex order), interleaved freely with
    other builders — each call consumes exactly the bytes the scalar
    ``GMWEngine.evaluate`` would for that instance, so a mixed-bound walk
    keeps the global RNG stream aligned. Then :meth:`build` packs lanes
    (in ``ot`` mode it also unpacks every instance's mask read, in one pass).
    """

    def __init__(self, circuit: Circuit, num_parties: int, mode: str) -> None:
        require_numpy()
        if mode not in ("ot", "beaver"):
            raise ProtocolError(f"unknown GMW mode {mode!r}")
        self.circuit = circuit
        self.num_parties = num_parties
        self.mode = mode
        # Sized from the compiled plan, not by walking gates: the plan's
        # AND count is the one gmw_cost reports, and the cross-check test
        # in tests/test_mpc_gmw.py pins both to the scalar transcript.
        self.and_gates = circuit.compile().stats.and_gates
        #: ot: every party's packed mask read, one ``bytes`` per instance
        self._masks: List[bytes] = []
        self._triples: List[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = []

    @property
    def num_instances(self) -> int:
        return len(self._masks) if self.mode == "ot" else len(self._triples)

    def add_instance(self, rng: DeterministicRNG) -> None:
        n = self.num_parties
        ands = self.and_gates
        # Scalar transcript order, step 1: evaluate() forks one sub-stream
        # per party (unconditionally, in both modes).
        party_rngs = [rng.fork(f"gmw-party-{p}") for p in range(n)]
        if self.mode == "ot":
            # Step 2 (ot): sender i reads its ands * (n - 1) masks from its
            # own fork in one go (repro.mpc.gmw, "Mask stream"); build()
            # unpacks every instance's read at once.
            size = mask_stream_bytes(ands, n)
            self._masks.append(b"".join([party.randbytes(size) for party in party_rngs]))
        else:
            # Step 2 (beaver): per gate in list order the *parent* rng
            # draws: a_plain, b_plain (1 byte each), then three
            # share_value(·, 1, n, rng) calls of n-1 one-byte draws each;
            # a one-byte randbit() keeps the byte's top bit.
            per_gate = 2 + 3 * (n - 1)
            raw = rng.randbytes(ands * per_gate)
            bits = (np.frombuffer(raw, dtype=np.uint8) >> 7).reshape(ands, per_gate)
            a_plain = bits[:, 0]
            b_plain = bits[:, 1]
            c_plain = a_plain & b_plain
            shares = []
            for plain, lo in ((a_plain, 2), (b_plain, 2 + (n - 1)), (c_plain, 2 + 2 * (n - 1))):
                draws = bits[:, lo : lo + (n - 1)]
                last = plain ^ np.bitwise_xor.reduce(draws, axis=1) if n > 1 else plain
                shares.append(np.concatenate([draws, last[:, None]], axis=1))
            self._triples.append((shares[0], shares[1], shares[2]))

    def build(self) -> OfflinePools:
        count = self.num_instances
        if self.mode == "ot":
            n, ands = self.num_parties, self.and_gates
            # eight masks to the byte, gate-major, sender i's receivers
            # j != i in party order: (instance, sender, gate, receiver rank)
            raw = np.frombuffer(b"".join(self._masks), dtype=np.uint8)
            bits = np.unpackbits(
                raw.reshape(count, n, mask_stream_bytes(ands, n)), axis=-1, count=ands * (n - 1)
            ).reshape(count, n, ands, n - 1)
            cube = np.zeros((ands, n, n, count), dtype=np.uint8)
            columns = np.arange(n)
            for i in range(n):
                cube[:, i, columns != i, :] = bits[:, i].transpose(1, 2, 0)
            return OfflinePools(
                mode="ot",
                num_parties=n,
                num_instances=count,
                and_gates=ands,
                ot_masks=pack_lane_axis(cube),
            )
        packed = []
        for component in range(3):
            stacked = (
                np.stack([t[component] for t in self._triples], axis=-1)
                if count
                else np.zeros((self.and_gates, self.num_parties, 0), dtype=np.uint8)
            )
            packed.append(pack_lane_axis(stacked))
        return OfflinePools(
            mode="beaver",
            num_parties=self.num_parties,
            num_instances=count,
            and_gates=self.and_gates,
            triple_a=packed[0],
            triple_b=packed[1],
            triple_c=packed[2],
        )


# ---------------------------------------------------------------------------
# Bus kernels
# ---------------------------------------------------------------------------


def _bus_bits(values: Sequence[Sequence[int]], width: int) -> "np.ndarray":
    """Bit planes of one bus: ``values[lane][party]`` (integer shares) to
    ``uint8[width, parties, lanes]`` of 0/1, least-significant bit first."""
    if width <= LANE_BITS:
        mask = (1 << width) - 1
        words = np.array(
            [[int(share) & mask for share in shares] for shares in values],
            dtype=np.uint64,
        ).T  # (parties, lanes)
        shifts = np.arange(width, dtype=np.uint64)[:, None, None]
        return ((words >> shifts) & np.uint64(1)).astype(np.uint8)
    # wider than a machine word (the noise circuit's seed bus): per bit
    bits = np.zeros((width, len(values[0]), len(values)), dtype=np.uint8)
    for lane, shares in enumerate(values):
        for p, share in enumerate(shares):
            value = int(share)
            for position in range(width):
                bits[position, p, lane] = (value >> position) & 1
    return bits


def _bus_values(bits: "np.ndarray") -> List[List[int]]:
    """Inverse of :func:`_bus_bits`: ``uint8[width, parties, lanes]`` back
    to ``values[lane][party]`` as Python integers."""
    width = bits.shape[0]
    if width <= LANE_BITS:
        shifts = np.arange(width, dtype=np.uint64)[:, None, None]
        words = np.bitwise_or.reduce(bits.astype(np.uint64) << shifts, axis=0)
        return words.T.tolist()
    _, parties, lanes = bits.shape
    values = [[0] * parties for _ in range(lanes)]
    for position in range(width):
        plane = bits[position].tolist()
        for p in range(parties):
            for lane in range(lanes):
                values[lane][p] |= plane[p][lane] << position
    return values


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class BitslicedGMWEngine(GMWEngine):
    """Drop-in :class:`GMWEngine` whose gate evaluation is lane-parallel.

    ``evaluate`` matches the scalar engine bit-for-bit (output shares,
    traffic, OT stats, RNG stream consumption); ``evaluate_batch`` runs
    many instances of one circuit for the price of one stage walk. The
    OT backend must be the rng-silent
    :class:`~repro.crypto.ot.SimulatedObliviousTransfer`: the lanes compute
    what a correct OT returns and never run the backend, so one that does
    per-transfer work and draws (DDH, IKNP extension) would be billed but
    not executed, and its draws are not something the offline phase reads.
    """

    def __init__(
        self,
        num_parties: int,
        ot: Optional[ObliviousTransfer] = None,
        mode: str = "ot",
    ) -> None:
        require_numpy()
        super().__init__(num_parties, ot=ot, mode=mode)
        if mode == "ot" and not isinstance(self.ot, SimulatedObliviousTransfer):
            raise ProtocolError(
                "bit-sliced GMW requires the rng-silent simulated OT backend; "
                f"{type(self.ot).__name__} consumes per-transfer randomness, "
                "which the offline phase cannot replay"
            )

    # -- offline phase -----------------------------------------------------

    def pool_builder(self, circuit: Circuit) -> OfflinePoolBuilder:
        """A builder for this engine's mode/party count (the secure engine
        interleaves several builders to keep vertex transcript order)."""
        return OfflinePoolBuilder(circuit, self.num_parties, self.mode)

    def precompute(
        self, circuit: Circuit, num_instances: int, rng: DeterministicRNG
    ) -> OfflinePools:
        """Draw all per-gate randomness for ``num_instances`` back-to-back
        evaluations of ``circuit`` — the offline phase."""
        builder = self.pool_builder(circuit)
        for _ in range(num_instances):
            builder.add_instance(rng)
        return builder.build()

    # -- online phase ------------------------------------------------------

    def evaluate(
        self,
        circuit: Circuit,
        shared_inputs: Dict[str, Sequence[int]],
        rng: DeterministicRNG,
    ) -> GMWResult:
        return self.evaluate_batch(circuit, [shared_inputs], rng)[0]

    def evaluate_batch(
        self,
        circuit: Circuit,
        shared_inputs_list: Sequence[Dict[str, Sequence[int]]],
        rng: Optional[DeterministicRNG] = None,
        pools: Optional[OfflinePools] = None,
    ) -> List[GMWResult]:
        """Evaluate ``circuit`` once per entry of ``shared_inputs_list``.

        With ``pools`` the online phase is RNG-free; otherwise ``rng`` is
        consumed by an implicit offline phase exactly as the scalar engine
        would consume it for the same sequence of ``evaluate`` calls.
        """
        n = self.num_parties
        lanes = len(shared_inputs_list)
        for shared_inputs in shared_inputs_list:
            self._check_shared_inputs(circuit, shared_inputs)
        if pools is None:
            if rng is None:
                raise ProtocolError("evaluate_batch needs an rng or prebuilt pools")
            pools = self.precompute(circuit, lanes, rng)
        if pools.mode != self.mode or pools.num_parties != n:
            raise ProtocolError(
                f"offline pool is {pools.mode!r}/{pools.num_parties} parties, "
                f"engine is {self.mode!r}/{n}"
            )
        if pools.num_instances != lanes:
            raise OfflinePoolExhaustedError(
                f"offline pool provisioned {pools.num_instances} instances, "
                f"online batch has {lanes}"
            )
        if lanes == 0:
            return []

        schedule = circuit.compile().schedule
        words = lane_words(lanes)
        and_lo, and_hi = schedule.and_lo, schedule.and_hi

        # slots[:and_lo] primaries, [and_lo:and_hi] AND outputs (seeded with
        # each gate's share of the offline randomness), then kept XOR wires
        slots = np.empty((schedule.num_slots, n, words), dtype=np.uint64)
        slots[:and_lo] = 0
        slots[circuit.one, 0, :] = _tail_mask(lanes)  # canonical all-ones lanes
        for name, bus_slots in schedule.input_slots.items():
            bits = _bus_bits([inputs[name] for inputs in shared_inputs_list], len(bus_slots))
            slots[bus_slots] = pack_lane_axis(bits)
        ot = self.mode == "ot"
        if ot:
            slots[and_lo:and_hi] = pools.take_ot(schedule.and_order)
        else:
            triple_a, triple_b, slots[and_lo:and_hi] = pools.take_beaver(schedule.and_order)

        xor = np.bitwise_xor
        for gather, starts, xor_lo, xor_hi, and_a, and_b, lo, hi in schedule.stages:
            if xor_hi > xor_lo:
                xor.reduceat(slots[gather], starts, axis=0, out=slots[xor_lo:xor_hi])
            if hi > lo:
                x = slots[and_a]  # (gates, n, words)
                y = slots[and_b]
                z = slots[lo:hi]
                if ot:
                    z ^= xor.reduce(x, axis=1)[:, None, :] & y
                else:
                    a, b = triple_a[lo - and_lo : hi - and_lo], triple_b[lo - and_lo : hi - and_lo]
                    d = xor.reduce(x ^ a, axis=1)  # opened masks
                    e = xor.reduce(y ^ b, axis=1)
                    z ^= (d[:, None, :] & b) ^ (e[:, None, :] & a)
                    z[:, 0, :] ^= d & e

        return self._collect_results(circuit, slots, lanes)

    def _collect_results(
        self, circuit: Circuit, slots: "np.ndarray", lanes: int
    ) -> List[GMWResult]:
        n = self.num_parties
        plan = circuit.compile()
        stats = plan.stats
        self._record_bulk_ot_stats(stats.and_gates * lanes)

        bus_shares: Dict[str, List[List[int]]] = {}  # name -> [lane][party]
        bus_widths: Dict[str, int] = {}
        for name, bus_slots in plan.schedule.output_slots.items():
            bus_shares[name] = _bus_values(unpack_lane_axis(slots[bus_slots], lanes))
            bus_widths[name] = len(bus_slots)

        return [
            GMWResult(
                num_parties=n,
                bus_widths=dict(bus_widths),
                output_shares={name: shares[lane] for name, shares in bus_shares.items()},
                traffic=self._closed_form_traffic(stats),
            )
            for lane in range(lanes)
        ]

    def _record_bulk_ot_stats(self, and_instances: int) -> None:
        """Mirror the scalar engine's OT backend accounting in one update
        (ot mode: one transfer per ordered pair per AND gate instance)."""
        if self.mode != "ot":
            return
        n = self.num_parties
        transfers = and_instances * n * (n - 1)
        stats = self.ot.stats
        stats.transfers += transfers
        stats.sender_bytes += transfers * self.ot.sender_bytes_per_transfer(1)
        stats.receiver_bytes += transfers * self.ot.receiver_bytes_per_transfer(1)
