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

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import CircuitError

__all__ = [
    "GateOp",
    "Gate",
    "Circuit",
    "CircuitStats",
    "CircuitLayer",
    "CircuitPlan",
    "layerize",
]


class GateOp(Enum):
    """Primitive gate types; everything else is built from these."""

    XOR = "xor"
    AND = "and"
    NOT = "not"


@dataclass(frozen=True)
class Gate:
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


@dataclass
class CircuitLayer:
    """One batch of like-typed gates whose inputs all come from earlier
    layers — the unit a bit-sliced evaluator executes as a single array op.

    ``and_ordinals[k]`` is the position of ``gates`` entry ``k`` among the
    circuit's AND gates *in gate-list order* (empty for XOR/NOT layers).
    The scalar engine draws per-gate randomness in gate-list order, so the
    ordinal is the index into an offline-precomputed randomness pool: a
    layered schedule may evaluate AND gates in any order without shifting
    which random bits each gate consumes.
    """

    level: int
    op: GateOp
    gates: List[Gate] = field(default_factory=list)
    and_ordinals: List[int] = field(default_factory=list)


def layerize(circuit: "Circuit") -> List[CircuitLayer]:
    """Group ``circuit.gates`` into a layered topological schedule.

    Every gate (including the free XOR/NOT gates — a chain ``a^b^c^d``
    must still evaluate in dependency order) is assigned level
    ``1 + max(level of inputs)``, with input/constant wires at level 0;
    gates sharing a ``(level, op)`` bucket are independent and can run as
    one batched operation. Buckets are emitted in ascending level order,
    ties broken by first appearance in the gate list, so the schedule is
    deterministic and evaluating layers in order respects every wire
    dependency.
    """
    level = [0] * circuit.num_wires
    buckets: Dict[tuple, CircuitLayer] = {}  # keyed (level, op), insertion-ordered
    and_ordinal = 0
    for gate in circuit.gates:
        gate_level = level[gate.a] + 1
        if gate.op is not GateOp.NOT:
            gate_level = max(gate_level, level[gate.b] + 1)
        level[gate.out] = gate_level
        key = (gate_level, gate.op)
        layer = buckets.get(key)
        if layer is None:
            layer = buckets[key] = CircuitLayer(level=gate_level, op=gate.op)
        layer.gates.append(gate)
        if gate.op is GateOp.AND:
            layer.and_ordinals.append(and_ordinal)
            and_ordinal += 1
    order: Dict[tuple, int] = {key: i for i, key in enumerate(buckets)}
    return sorted(buckets.values(), key=lambda la: (la.level, order[(la.level, la.op)]))


class CircuitPlan:
    """Everything an evaluator derives from a circuit's gate list, computed
    once by :meth:`Circuit.compile`: the cost statistics, the layered
    schedule, and (filled in by :mod:`repro.mpc.bitslice` on first use, so
    this module stays numpy-free) the schedule's numpy index vectors.
    """

    __slots__ = ("stats", "layers", "lane_layers")

    def __init__(self, stats: CircuitStats, layers: List[CircuitLayer]) -> None:
        self.stats = stats
        self.layers = layers
        self.lane_layers: Optional[List[Any]] = None


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
        if self.sealed:
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
        """Append a gate and return its output wire."""
        self._check_wire(a)
        if op is not GateOp.NOT:
            self._check_wire(b)
        out = self.new_wire()
        self.gates.append(Gate(op=op, a=a, b=b, out=out))
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
        values = [0] * self._num_wires
        values[self.one] = 1
        for name, wires in self.input_buses.items():
            if name not in inputs:
                raise CircuitError(f"missing input bus {name!r}")
            value = inputs[name] & ((1 << len(wires)) - 1)
            for position, wire in enumerate(wires):
                values[wire] = (value >> position) & 1
        for gate in self.gates:
            if gate.op is GateOp.XOR:
                values[gate.out] = values[gate.a] ^ values[gate.b]
            elif gate.op is GateOp.AND:
                values[gate.out] = values[gate.a] & values[gate.b]
            else:
                values[gate.out] = values[gate.a] ^ 1
        outputs = {}
        for name, wires in self.output_buses.items():
            value = 0
            for position, wire in enumerate(wires):
                value |= values[wire] << position
            outputs[name] = value
        return outputs
