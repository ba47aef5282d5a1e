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
AND, one in-place XOR onto the round's pre-placed masks), each gather a
``slots.take``. Buses move by the schedule's two
:class:`~repro.mpc.circuit.BusPlan` s: all inputs as one array of 64-bit
share pieces, all outputs as one gather and one unpack. The slots hold
*prefix shares* — party ``p`` the XOR of shares ``0..p`` — converted once
on the way in and out, because in that form a 1-out-of-4 AND's share
update is one AND of the operands.

**Offline/online split.** The offline reads and folds are
:class:`~repro.mpc.gmw.PoolBuilder`'s — per instance the key and the
per-pair keyed columns the per-gate oracle reads, folded into each
party's prefix seed (the XOR of the columns ``(i, j)`` with ``i <= p <
j``). :class:`OfflinePoolBuilder` only lays the folds out as numpy
words: one ``np.unpackbits`` of every instance's folds, one transpose to
``(ands, n, lanes)`` in the schedule's AND order, one
:func:`pack_lane_axis`. A gate's bits are picked by its *ordinal* in
gate-list order, so the online phase evaluates the gates in stage order
while every gate consumes the same random bits as in the oracle; it
copies the seeds into the AND slots as they are and touches no RNG.

**Compile once.** Everything derived from the gate list — statistics and
the stage schedule with its index vectors and bus plans — is built by
:meth:`Circuit.compile <repro.mpc.circuit.Circuit.compile>` onto the
circuit's :class:`~repro.mpc.circuit.CircuitPlan`: the first use compiles
(and seals) an ad-hoc circuit, circuits from the process-wide table
(:mod:`repro.mpc.plan`) arrive compiled, and a forked worker inherits both.

Requires numpy (an optional dependency: the core library stays pure
stdlib); constructing :class:`BitslicedGMWEngine` without it raises
:class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.crypto.ot import ObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, ProtocolError
from repro.mpc.circuit import BusPlan, Circuit
from repro.mpc.gmw import GMWEngine, GMWResult, LanePools, PoolBuilder

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

    The lanes are zero-padded to whole words (the canonical tail-zero
    form); ``np.packbits`` then does the bit gathering in C, eight lanes
    to the byte, least-significant lane first, and the bytes are viewed as
    explicitly little-endian ``uint64``, so lane ``l`` is bit ``l % 64``
    of word ``l // 64`` on any host. Needs numpy >= 1.17 (``bitorder=``).
    """
    require_numpy("lane packing")
    bits = np.asarray(bits)
    lanes = bits.shape[-1]
    width = lane_words(lanes) * LANE_BITS
    if lanes != width:
        padded = np.zeros(bits.shape[:-1] + (width,), dtype=bits.dtype)
        padded[..., :lanes] = bits
        bits = padded
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed).view("<u8")  # a transposed input packs strided


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


class OfflinePoolBuilder(PoolBuilder):
    """The offline phase of :class:`BitslicedGMWEngine`: the reads and
    folds of :class:`~repro.mpc.gmw.PoolBuilder` (same keys, same
    columns), built into a :class:`~repro.mpc.gmw.LanePools` of numpy
    words — ``uint64[ands, n, words]`` prefix seeds in the schedule's
    AND order."""

    def __init__(self, circuit: Circuit, num_parties: int) -> None:
        require_numpy()
        super().__init__(circuit, num_parties)

    def build(self) -> LanePools:
        count = self.num_instances
        n, ands = self.num_parties, self.and_gates
        size = (ands + 7) // 8
        folds = b"".join([seed.to_bytes(size, "big") for row in self._rows for seed in row])
        bits = np.unpackbits(
            np.frombuffer(folds, dtype=np.uint8).reshape(count, n, size), axis=-1, count=ands
        )
        # (lanes, n, ands) -> (ands, n, lanes), then the gates in schedule order
        lane_last = np.ascontiguousarray(bits.transpose(2, 1, 0))
        return LanePools(
            num_parties=n,
            num_instances=count,
            and_gates=ands,
            seeds=pack_lane_axis(lane_last[self.circuit.compile().schedule.and_order]),
        )


# ---------------------------------------------------------------------------
# Bus kernels
# ---------------------------------------------------------------------------


def _input_planes(plan: BusPlan, batch: Sequence[Dict[str, Sequence[int]]]) -> "np.ndarray":
    """Every input bit of a batch as ``uint8[bits, parties, lanes]`` in the
    plan's slot order: one array of the shares' pieces, one gather, one
    shift, one ``& 1``."""
    rows = [
        [share >> shift & mask for name, shift, mask in plan.pieces for share in inputs[name]]
        for inputs in batch
    ]
    words = np.array(rows, dtype=np.uint64).reshape(len(rows), len(plan.pieces), -1)
    planes = words.transpose(1, 2, 0).take(plan.piece, 0) >> plan.bit[:, None, None]
    return (planes & np.uint64(1)).astype(np.uint8)


def _output_values(plan: BusPlan, bits: "np.ndarray") -> Dict[str, List[List[int]]]:
    """``uint8[bits, parties, lanes]`` in the plan's slot order back to
    ``{bus: values[lane][party]}`` (empty buses left out): one shift, one
    OR per piece, the pieces of a bus wider than a word joined in Python."""
    values: Dict[str, List[List[int]]] = {}
    shifted = bits.astype(np.uint64) << plan.bit[:, None, None]
    words = np.bitwise_or.reduceat(shifted, plan.starts, axis=0).transpose(0, 2, 1)
    for (name, shift, _), rows in zip(plan.pieces, words.tolist()):
        if shift:
            rows = [[a | b << shift for a, b in zip(*pair)] for pair in zip(values[name], rows)]
        values[name] = rows
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
        pools: LanePools,
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
        if schedule.inputs.pieces:
            planes = _input_planes(schedule.inputs, shared_inputs_list)
            slots[schedule.inputs.slots] = pack_lane_axis(planes)
        xor, and_ = np.bitwise_xor, np.bitwise_and
        # prefix shares, party p holding the XOR of shares 0..p: XOR gates
        # commute with that map, the constant one becomes all ones, and an
        # AND's share update z_p ^= x_p Y_<=p ^ X_<p y_p (the receiver's
        # 1-out-of-4 output plus the local term) telescopes to
        # Z_<=p ^= X_<=p & Y_<=p onto the gate's prefix seed
        xor.accumulate(slots[:and_lo], axis=1, out=slots[:and_lo])
        slots[and_lo:and_hi] = pools.claim()

        take = slots.take  # the method: a gather without the wrapper's overhead
        for gather, starts, xor_lo, xor_hi, and_a, and_b, lo, hi in schedule.stages:
            if xor_hi > xor_lo:
                xor.reduceat(take(gather, 0), starts, axis=0, out=slots[xor_lo:xor_hi])
            if hi > lo:
                product = take(and_a, 0)
                and_(product, take(and_b, 0), out=product)
                segment = slots[lo:hi]
                xor(segment, product, out=segment)

        shares = take(schedule.outputs.slots, 0)
        shares[:, 1:] ^= shares[:, :-1]  # prefix shares back to shares (numpy buffers overlap)
        values = _output_values(schedule.outputs, unpack_lane_axis(shares, lanes))
        outputs = circuit.output_buses
        return {name: values.get(name) or [[0] * n for _ in range(lanes)] for name in outputs}
