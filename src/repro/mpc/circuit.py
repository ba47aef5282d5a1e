"""Boolean circuit intermediate representation for the GMW engine.

DStress update functions must be expressible as Boolean circuits (§3.7);
this module is the circuit IR and its plaintext evaluator. Circuits are
DAGs of XOR / AND / NOT gates over single-bit wires, with named multi-bit
*buses* for inputs and outputs (least-significant bit first).

XOR and NOT are "free" in GMW (local share operations); AND is the costly
gate (one OT per ordered party pair), so the circuit statistics that matter
for the cost model are the AND count and the AND *depth* (round count).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import CircuitError

try:  # optional: only the stage schedule's index vectors use it
    import numpy as _np
except ImportError:  # pragma: no cover - container always ships numpy
    _np = None  # type: ignore[assignment]

__all__ = [
    "GateOp",
    "Gate",
    "Circuit",
    "CircuitStats",
    "CircuitPlan",
    "Stage",
    "StageSchedule",
    "layerize",
]


class GateOp(Enum):
    """Primitive gate types; everything else is built from these."""

    XOR = "xor"
    AND = "and"
    NOT = "not"


class Gate(NamedTuple):
    """One gate: ``out = op(a, b)`` (``b`` unused for NOT)."""

    op: GateOp
    a: int
    b: int
    out: int


@dataclass(frozen=True)
class CircuitStats:
    """Size/depth statistics used by the cost model (§5.2)."""

    num_wires: int = 0
    xor_gates: int = 0
    and_gates: int = 0
    not_gates: int = 0
    and_depth: int = 0

    @property
    def total_gates(self) -> int:
        return self.xor_gates + self.and_gates + self.not_gates


class Stage(NamedTuple):
    """One AND round of a :class:`StageSchedule`: an XOR phase, then an AND
    phase, each writing one contiguous slice of the slot array.

    XOR phase: slot ``xor_lo + k`` is the XOR of the slots
    ``gather[starts[k]:starts[k + 1]]`` (every segment non-empty: the
    constant zero is the one-element segment ``[0]``). AND phase: slot
    ``and_lo + k`` is ``and_a[k] & and_b[k]``. Every index read was
    written by an earlier phase.
    """

    gather: Sequence[int]
    starts: Sequence[int]
    xor_lo: int
    xor_hi: int
    and_a: Sequence[int]
    and_b: Sequence[int]
    and_lo: int
    and_hi: int


class StageSchedule(NamedTuple):
    """A circuit as ``and_depth + 1`` :class:`Stage` s over a dense slot array.

    Only wires somebody has to hold get a slot: the primary wires (the two
    constants and the inputs — slot 0 is the constant 0, slot 1 the
    constant 1), every AND output, and the XOR/NOT wires that are an AND
    operand, a circuit output or read by a gate of a later AND round. Every
    other free gate is folded into the XOR sets of the slots that read it
    (a NOT is the constant-one slot in the set, ``x ^ x`` cancels).

    Slots are numbered ``[primaries | AND outputs | kept XOR wires]``, the
    last two in stage order, so each phase writes a contiguous slice and
    the AND outputs as a whole are the slice ``and_lo:and_hi``, row ``k``
    of which belongs to AND ordinal ``and_order[k]`` *in gate-list order*.
    The scalar engine draws per-gate randomness in gate-list order, so the
    ordinal is the index into an offline-precomputed randomness pool: the
    schedule reorders the gates without shifting which random bits each
    one consumes. ``and_order`` is a permutation of ``range(and_gates)``
    (checked when the schedule is built), which is what lets the pool's
    single-use check run once per batch.

    The index vectors are numpy ``intp`` arrays when numpy is importable
    (the one consumer, :mod:`repro.mpc.bitslice`, requires it) and tuples
    otherwise.
    """

    num_slots: int
    stages: List[Stage]
    and_lo: int
    and_hi: int
    and_order: Sequence[int]
    input_slots: Dict[str, Sequence[int]]
    output_slots: Dict[str, Sequence[int]]


def _index_vector(values: Sequence[int]) -> Any:
    if _np is None:
        return tuple(values)
    return _np.asarray(values, dtype=_np.intp)


_PRIMARY, _AND, _FOLDED, _KEPT = range(4)
_ONE = frozenset((1,))


def layerize(circuit: "Circuit") -> StageSchedule:
    """Schedule ``circuit.gates`` as one XOR phase + one AND phase per AND
    round (see :class:`StageSchedule`).

    One walk of the gate list assigns every wire its AND depth, marks the
    free-gate outputs that need a slot and carries, per free-gate output,
    the set of slot-holding wires whose XOR it is: an operand of the same
    depth contributes its own set, an operand of a lower depth is kept and
    contributes itself — so a set only names slots an earlier phase wrote.
    """
    num_wires = circuit.num_wires
    and_op, not_op = GateOp.AND, GateOp.NOT
    depth = [0] * num_wires
    kind = bytearray(num_wires)  # _PRIMARY until a gate writes the wire
    # wire -> the slot-holding wires whose XOR it is (a slot holder: itself)
    terms = [frozenset((wire,)) for wire in range(num_wires)]
    terms[circuit.zero] = frozenset()
    and_gates: List[Gate] = []
    folded: List[int] = []
    for gate in circuit.gates:
        op, a, b, out = gate
        if op is not_op:
            depth[out] = depth[a]
            kind[out] = _FOLDED
            terms[out] = terms[a] ^ _ONE
            folded.append(out)
            continue
        level = depth[a] if depth[a] > depth[b] else depth[b]
        if op is and_op:
            level += 1  # an AND reads both operands across the round
            depth[out] = level
            kind[out] = _AND
            and_gates.append(gate)
        else:
            depth[out] = level
            kind[out] = _FOLDED
            terms[out] = (terms[a] if depth[a] == level else frozenset((a,))) ^ (
                terms[b] if depth[b] == level else frozenset((b,))
            )
            folded.append(out)
        if depth[a] < level and kind[a] == _FOLDED:
            kind[a] = _KEPT
        if depth[b] < level and kind[b] == _FOLDED:
            kind[b] = _KEPT
    for bus in circuit.output_buses.values():
        for wire in bus:
            if kind[wire] == _FOLDED:
                kind[wire] = _KEPT

    # slots: primaries in wire order, AND outputs then kept wires by depth
    # (stable, so gate-list order within a depth)
    slot_of = [0] * num_wires
    slot = 0
    for wire in range(num_wires):
        if kind[wire] == _PRIMARY:
            slot_of[wire] = slot
            slot += 1
    and_lo = slot
    ordinal_of = {gate.out: ordinal for ordinal, gate in enumerate(and_gates)}
    and_gates.sort(key=lambda gate: depth[gate.out])
    for gate in and_gates:
        slot_of[gate.out] = slot
        slot += 1
    kept = sorted([w for w in folded if kind[w] == _KEPT], key=depth.__getitem__)
    xor_lo = slot
    for wire in kept:
        slot_of[wire] = slot
        slot += 1

    # one flat vector per role, sliced per stage (both lists are in depth
    # order, so a stage's rows are contiguous)
    rounds = max(depth) + 1
    xor_rows = [0] * rounds
    gather_rows = [0] * rounds
    gather: List[int] = []
    starts: List[int] = []
    for wire in kept:
        level = depth[wire]
        members = sorted([slot_of[t] for t in terms[wire]]) or [slot_of[circuit.zero]]
        starts.append(gather_rows[level])
        gather.extend(members)
        xor_rows[level] += 1
        gather_rows[level] += len(members)
    and_rows = [0] * rounds  # stage r evaluates the AND gates of depth r + 1
    for gate in and_gates:
        and_rows[depth[gate.out] - 1] += 1
    gather_v = _index_vector(gather)
    starts_v = _index_vector(starts)
    and_a = _index_vector([slot_of[gate.a] for gate in and_gates])
    and_b = _index_vector([slot_of[gate.b] for gate in and_gates])
    stages = []
    xor_at = gather_at = and_at = 0
    for level in range(rounds):
        xor_end = xor_at + xor_rows[level]
        gather_end = gather_at + gather_rows[level]
        and_end = and_at + and_rows[level]
        stages.append(
            Stage(
                gather=gather_v[gather_at:gather_end],
                starts=starts_v[xor_at:xor_end],
                xor_lo=xor_lo + xor_at,
                xor_hi=xor_lo + xor_end,
                and_a=and_a[and_at:and_end],
                and_b=and_b[and_at:and_end],
                and_lo=and_lo + and_at,
                and_hi=and_lo + and_end,
            )
        )
        xor_at, gather_at, and_at = xor_end, gather_end, and_end

    and_order = [ordinal_of[gate.out] for gate in and_gates]
    if sorted(and_order) != list(range(len(and_gates))):  # pragma: no cover
        raise CircuitError("stage schedule does not cover every AND gate exactly once")
    return StageSchedule(
        num_slots=slot,
        stages=stages,
        and_lo=and_lo,
        and_hi=xor_lo,
        and_order=_index_vector(and_order),
        input_slots={
            name: _index_vector([slot_of[w] for w in bus])
            for name, bus in circuit.input_buses.items()
        },
        output_slots={
            name: _index_vector([slot_of[w] for w in bus])
            for name, bus in circuit.output_buses.items()
        },
    )


class CircuitPlan:
    """Everything an evaluator derives from a circuit's gate list, computed
    once by :meth:`Circuit.compile`: the cost statistics and the stage
    schedule with its index vectors.
    """

    __slots__ = ("stats", "schedule")

    def __init__(self, stats: CircuitStats, schedule: StageSchedule) -> None:
        self.stats = stats
        self.schedule = schedule


class Circuit:
    """A Boolean circuit with named input/output buses.

    Wires are dense integer ids. Wire 0 is the constant 0 and wire 1 the
    constant 1; they are always present so the builder can fold constants.

    A circuit is built, then *compiled* (:meth:`compile`), which seals it:
    a compiled circuit may be shared between runs and threads (the
    process-wide table in :mod:`repro.mpc.plan` does exactly that), so
    every mutator raises :class:`CircuitError` from then on.
    """

    def __init__(self) -> None:
        self._num_wires = 2  # wires 0 and 1 are the constants
        self.gates: Sequence[Gate] = []
        self.input_buses: Dict[str, List[int]] = {}
        self.output_buses: Dict[str, List[int]] = {}
        # operands -> output wire of the gate already computing that op of
        # them (XOR/AND keyed low wire first); dropped when sealed
        self._xor_of: Dict[Tuple[int, int], int] = {}
        self._and_of: Dict[Tuple[int, int], int] = {}
        self._not_of: Dict[int, int] = {}
        self._plan: Optional[CircuitPlan] = None

    # -- construction ------------------------------------------------------

    @property
    def zero(self) -> int:
        """The constant-0 wire."""
        return 0

    @property
    def one(self) -> int:
        """The constant-1 wire."""
        return 1

    @property
    def num_wires(self) -> int:
        return self._num_wires

    def _check_unsealed(self) -> None:
        if self._plan is not None:
            raise CircuitError("circuit is sealed")

    def new_wire(self) -> int:
        self._check_unsealed()
        wire = self._num_wires
        self._num_wires += 1
        return wire

    def add_input_bus(self, name: str, width: int) -> List[int]:
        """Declare a named ``width``-bit input bus; returns its wires."""
        self._check_unsealed()
        if name in self.input_buses:
            raise CircuitError(f"duplicate input bus {name!r}")
        if width < 1:
            raise CircuitError("bus width must be positive")
        wires = [self.new_wire() for _ in range(width)]
        self.input_buses[name] = wires
        return wires

    def mark_output_bus(self, name: str, wires: Sequence[int]) -> None:
        """Expose existing wires as a named output bus."""
        self._check_unsealed()
        if name in self.output_buses:
            raise CircuitError(f"duplicate output bus {name!r}")
        for wire in wires:
            self._check_wire(wire)
        self.output_buses[name] = list(wires)

    def _check_wire(self, wire: int) -> None:
        if not (0 <= wire < self._num_wires):
            raise CircuitError(f"wire {wire} out of range")

    def add_gate(self, op: GateOp, a: int, b: int = 0) -> int:
        """Append a gate and return its output wire — the existing wire
        when a gate already computes ``op`` of the same operands (XOR and
        AND are symmetric), so a repeated subexpression is paid for once."""
        self._check_unsealed()
        self._check_wire(a)
        if op is GateOp.NOT:
            known: Dict[Any, int] = self._not_of
            key: Any = a
        else:
            self._check_wire(b)
            known = self._xor_of if op is GateOp.XOR else self._and_of
            key = (a, b) if a <= b else (b, a)
        out = known.get(key)
        if out is None:
            out = known[key] = self._num_wires
            self._num_wires += 1
            self.gates.append(Gate(op, a, b, out))
        return out

    def xor(self, a: int, b: int) -> int:
        """XOR with constant folding (free gate in GMW)."""
        if a == self.zero:
            return b
        if b == self.zero:
            return a
        if a == b:
            return self.zero
        if a == self.one:
            return self.inv(b)
        if b == self.one:
            return self.inv(a)
        return self.add_gate(GateOp.XOR, a, b)

    def and_(self, a: int, b: int) -> int:
        """AND with constant folding (the costly gate in GMW)."""
        if a == self.zero or b == self.zero:
            return self.zero
        if a == self.one:
            return b
        if b == self.one:
            return a
        if a == b:
            return a
        return self.add_gate(GateOp.AND, a, b)

    def inv(self, a: int) -> int:
        """NOT with constant folding (free gate in GMW)."""
        if a == self.zero:
            return self.one
        if a == self.one:
            return self.zero
        return self.add_gate(GateOp.NOT, a)

    def or_(self, a: int, b: int) -> int:
        """OR built from one AND: ``a | b = ~(~a & ~b)``."""
        return self.inv(self.and_(self.inv(a), self.inv(b)))

    # -- analysis ----------------------------------------------------------

    @property
    def sealed(self) -> bool:
        return self._plan is not None

    def compile(self) -> CircuitPlan:
        """Seal the circuit and return its plan, computed on the first
        call and memoised on the instance.

        Two threads racing here both compute the same plan and one
        assignment wins; either is correct, so no lock is needed.
        """
        plan = self._plan
        if plan is None:
            plan = CircuitPlan(self._walk_stats(), layerize(self))
            # the gate list is reachable around the mutators; a shared
            # circuit must not change under a reader
            self.gates = tuple(self.gates)
            self._xor_of = self._and_of = self._not_of = {}
            self._plan = plan
        return plan

    def stats(self) -> CircuitStats:
        """Gate counts and multiplicative (AND) depth (read from the plan
        once compiled; a circuit still under construction is walked)."""
        plan = self._plan
        return plan.stats if plan is not None else self._walk_stats()

    def _walk_stats(self) -> CircuitStats:
        depth = [0] * self._num_wires
        xor_gates = and_gates = not_gates = 0
        for gate in self.gates:
            if gate.op is GateOp.AND:
                and_gates += 1
                depth[gate.out] = max(depth[gate.a], depth[gate.b]) + 1
            elif gate.op is GateOp.XOR:
                xor_gates += 1
                depth[gate.out] = max(depth[gate.a], depth[gate.b])
            else:
                not_gates += 1
                depth[gate.out] = depth[gate.a]
        return CircuitStats(
            num_wires=self._num_wires,
            xor_gates=xor_gates,
            and_gates=and_gates,
            not_gates=not_gates,
            and_depth=max(depth),
        )

    # -- plaintext evaluation (the oracle used in tests) --------------------

    def evaluate(self, inputs: Dict[str, int]) -> Dict[str, int]:
        """Evaluate in the clear. ``inputs`` maps bus name to integer value
        (interpreted modulo ``2**width``); returns output bus values."""
        return self.evaluate_many([inputs])[0]

    def evaluate_many(self, inputs_list: Sequence[Dict[str, int]]) -> List[Dict[str, int]]:
        """Evaluate once per entry of ``inputs_list``, in one walk of the
        gate list: a wire holds one ``int`` whose bit ``l`` is its value in
        instance ``l`` (a *lane*), so XOR is ``^``, AND is ``&`` and NOT is
        ``^`` with the all-lanes word, whatever the number of instances.

        The buses are transposed at the edges through binary text (the
        lanes' values written side by side, one stride-``width`` slice per
        wire), which keeps both transposes in C.
        """
        lanes = len(inputs_list)
        if not lanes:
            return []
        full = (1 << lanes) - 1
        values = [0] * self._num_wires
        values[self.one] = full
        for name, wires in self.input_buses.items():
            width = len(wires)
            mask = (1 << width) - 1
            try:
                # the last lane first: lane 0 is then every slice's low bit
                text = "".join(
                    [format(inputs[name] & mask, f"0{width}b") for inputs in reversed(inputs_list)]
                )
            except KeyError:
                raise CircuitError(f"missing input bus {name!r}") from None
            for position, wire in enumerate(wires):
                values[wire] = int(text[width - 1 - position :: width], 2)
        xor_op, and_op = GateOp.XOR, GateOp.AND
        for op, a, b, out in self.gates:
            if op is xor_op:
                values[out] = values[a] ^ values[b]
            elif op is and_op:
                values[out] = values[a] & values[b]
            else:
                values[out] = values[a] ^ full
        # an empty bus has no rows below and keeps its 0
        outputs: List[Dict[str, int]] = [dict.fromkeys(self.output_buses, 0) for _ in range(lanes)]
        for name, wires in self.output_buses.items():
            # one row of lane bits per wire, most significant wire first, so
            # a column read top to bottom is one lane's value in binary
            rows = [format(values[wire], f"0{lanes}b") for wire in reversed(wires)]
            for lane, column in zip(reversed(outputs), zip(*rows)):
                lane[name] = int("".join(column), 2)
        return outputs
