"""Bit-sliced GMW: whole AND rounds as numpy ``uint64`` lane operations.

:class:`~repro.mpc.gmw.GMWEngine` evaluates a batch with one Python
``int`` per wire. This module keeps that contract (offline reads, prefix
shares, results) with numpy words instead: lane ``l`` of every wire word
is circuit instance ``l`` (``l // 64`` selects the word, ``l % 64`` the
bit), so a batch of ``L`` instances occupies ``ceil(L / 64)`` words per
slot per party::

    slots : uint64[num_slots, parties, words]      bit l of word w  =
    lane layout (one slot, one party):             instance 64*w + l
        word 0: | inst 63 ... inst 1 inst 0 |
        word 1: | inst 127 ... inst 65 inst 64 | (tail bits forced to 0)

The circuit runs as its :class:`~repro.mpc.circuit.StageSchedule`: per AND
round one XOR phase (one gather + one ``bitwise_xor.reduceat`` into a
contiguous slice of the slot cube) and one AND phase (two gathers, an
AND, one in-place XOR onto the round's pre-placed masks). The slots hold
*prefix shares* — party ``p`` the XOR of shares ``0..p`` — converted once
on the way in and out, because in that form a 1-out-of-4 AND's share
update is one AND of the operands.

**Offline/online split.** The offline reads are
:class:`~repro.mpc.gmw.PoolBuilder`'s — the same forks and bytes the
per-gate oracle reads. :class:`OfflinePoolBuilder` only builds them into
numpy pools: ``np.unpackbits`` turns every instance's packed mask read
into the mask cube. Pools are indexed by AND-gate *ordinal* in gate-list
order, so the online phase may evaluate the gates in stage order while
every gate consumes the same random bits as in the oracle; the online
phase touches no RNG at all.

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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.crypto.ot import ObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import (
    ConfigurationError,
    OfflinePoolExhaustedError,
    ProtocolError,
)
from repro.mpc.circuit import Circuit
from repro.mpc.gmw import GMWEngine, GMWResult, PoolBuilder, mask_stream_bytes

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
    ``i`` drew as OT *sender* toward receiver ``j > i`` (zero on and below
    the diagonal), one lane per instance. A pool is single-use: the online
    phase takes all of it at once, in its schedule's gate order, and a
    second take raises :class:`OfflinePoolExhaustedError`.
    """

    num_parties: int
    num_instances: int
    and_gates: int
    ot_masks: "np.ndarray"  # (and_gates, n, n, words)
    consumed: bool = False

    @property
    def remaining(self) -> int:
        """AND gates whose randomness has not been consumed yet."""
        return 0 if self.consumed else self.and_gates

    def take_ot(self, ordinals: "np.ndarray") -> "np.ndarray":
        """Claim ``ordinals`` (a schedule's ``and_order``) and return, in
        that order, each gate's masks folded per party: what party ``p``
        drew as sender XOR what it receives, ``(gates, n, words)``."""
        if self.consumed:
            raise OfflinePoolExhaustedError(
                "offline randomness pool exhausted: AND-gate randomness "
                "consumed twice (pools are single-use per batch)"
            )
        self.consumed = True
        masks = self.ot_masks
        folded = np.bitwise_xor.reduce(masks, axis=2)  # party as sender
        folded ^= np.bitwise_xor.reduce(masks, axis=1)  # party as receiver
        return folded[ordinals]


class OfflinePoolBuilder(PoolBuilder):
    """The offline phase of :class:`BitslicedGMWEngine`: the reads of
    :class:`~repro.mpc.gmw.PoolBuilder` (same forks, same bytes, same
    transcript order), built into lane-packed numpy pools — every
    instance's mask read unpacked in one pass."""

    def __init__(self, circuit: Circuit, num_parties: int) -> None:
        require_numpy()
        super().__init__(circuit, num_parties)

    def build(self) -> OfflinePools:  # type: ignore[override]
        count = self.num_instances
        n, ands = self.num_parties, self.and_gates
        # eight masks to the byte, gate-major, sender i's receivers j > i
        # in party order: sender i's read is (instance, gate, j)
        sizes = [mask_stream_bytes(ands, n, i) for i in range(n)]
        raw = np.frombuffer(b"".join(self._reads), dtype=np.uint8).reshape(count, sum(sizes))
        cube = np.zeros((ands, n, n, count), dtype=np.uint8)
        offset = 0
        for i, size in enumerate(sizes[:-1]):
            receivers = n - 1 - i
            bits = np.unpackbits(
                raw[:, offset : offset + size], axis=-1, count=ands * receivers
            ).reshape(count, ands, receivers)
            cube[:, i, i + 1 :, :] = bits.transpose(1, 2, 0)
            offset += size
        return OfflinePools(
            num_parties=n,
            num_instances=count,
            and_gates=ands,
            ot_masks=pack_lane_axis(cube),
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
    """:class:`GMWEngine` whose lanes are numpy ``uint64`` words and whose
    online phase runs the circuit's stage schedule.

    ``evaluate`` is a batch of one; ``evaluate_batch`` is the base class's,
    same checks, same results, bit for bit (output shares, traffic, OT
    stats, RNG stream consumption). The OT backend must be the rng-silent
    :class:`~repro.crypto.ot.SimulatedObliviousTransfer` (refused at
    construction).
    """

    def __init__(self, num_parties: int, ot: Optional[ObliviousTransfer] = None) -> None:
        require_numpy()
        super().__init__(num_parties, ot=ot)
        self._require_silent_ot()

    def pool_builder(self, circuit: Circuit) -> OfflinePoolBuilder:
        return OfflinePoolBuilder(circuit, self.num_parties)

    def evaluate(
        self,
        circuit: Circuit,
        shared_inputs: Dict[str, Sequence[int]],
        rng: DeterministicRNG,
    ) -> GMWResult:
        return self.evaluate_batch(circuit, [shared_inputs], rng)[0]

    def _evaluate_lanes(
        self,
        circuit: Circuit,
        shared_inputs_list: Sequence[Dict[str, Sequence[int]]],
        pools: OfflinePools,  # type: ignore[override]
    ) -> Dict[str, List[List[int]]]:
        n = self.num_parties
        lanes = len(shared_inputs_list)
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
        xor = np.bitwise_xor
        # prefix shares, party p holding the XOR of shares 0..p: XOR gates
        # commute with that map, the constant one becomes all ones, and an
        # AND's share update z_p ^= x_p Y_<=p ^ X_<p y_p (the receiver's
        # 1-out-of-4 output plus the local term) telescopes to
        # Z_<=p ^= X_<=p & Y_<=p
        xor.accumulate(slots[:and_lo], axis=1, out=slots[:and_lo])
        slots[and_lo:and_hi] = xor.accumulate(pools.take_ot(schedule.and_order), axis=1)

        for gather, starts, xor_lo, xor_hi, and_a, and_b, lo, hi in schedule.stages:
            if xor_hi > xor_lo:
                xor.reduceat(slots[gather], starts, axis=0, out=slots[xor_lo:xor_hi])
            if hi > lo:
                slots[lo:hi] ^= slots[and_a] & slots[and_b]

        bus_shares: Dict[str, List[List[int]]] = {}  # name -> [lane][party]
        for name, bus_slots in schedule.output_slots.items():
            out = slots[bus_slots]
            out[:, 1:] ^= slots[bus_slots][:, :-1]  # prefix shares back to shares
            bus_shares[name] = _bus_values(unpack_lane_axis(out, lanes))
        return bus_shares
