"""The DStress programming model: vertex programs (§3.1).

A vertex program consists of (1) a graph, (2) per-vertex initial state and
an update function, (3) an iteration count ``n``, (4) an aggregation
function, (5) a no-op message and (6) a sensitivity bound. Update functions
must be expressible as Boolean circuits with no data-dependent control flow
(§3.7), so a :class:`VertexProgram` here provides the update in two forms:

* ``float_update`` — plain Python over floats, the semantic reference
  (``float_update_many`` is the same step for every vertex at once, in
  column form);
* ``build_update_circuit`` — the Boolean circuit the secure engine
  evaluates in MPC, over L-bit fixed point.

Both forms take the vertex state (named registers) and ``D`` incoming
message slots, and produce the new state plus ``D`` outgoing messages; the
engines pad unused slots with the no-op message so the circuit shape (and
hence the MPC transcript) is independent of the actual degree.

The aggregation function is restricted to a *noised sum of one designated
state register* — exactly what both systemic-risk programs need (Figure 2)
and what keeps the aggregation block's circuit small (§3.6).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.graph import VertexView
from repro.core.tokens import Unfingerprintable, stable_token
from repro.exceptions import SensitivityError
from repro.mpc.circuit import Circuit
from repro.mpc.fixedpoint import FixedPointBuilder, FixedPointFormat
from repro.mpc.plan import PLANS

__all__ = ["VertexProgram", "ProgramSpec", "program_token", "compiled_update_circuit"]

#: The no-op message value (§3.1): vertices always emit D messages, padding
#: with this value, so communication patterns leak nothing.
NO_OP_MESSAGE = 0.0


@dataclass(frozen=True)
class ProgramSpec:
    """Static parameters of one program execution."""

    iterations: int
    sensitivity: float
    degree_bound: int

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise SensitivityError("iteration count cannot be negative")
        if self.sensitivity < 0:
            raise SensitivityError("sensitivity bound cannot be negative")


class VertexProgram(ABC):
    """Base class for vertex programs runnable on both engines."""

    def __init__(self, fmt: FixedPointFormat | None = None) -> None:
        self.fmt = fmt if fmt is not None else FixedPointFormat()

    # -- static description --------------------------------------------------

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in logs and benchmark output."""

    @property
    @abstractmethod
    def sensitivity(self) -> float:
        """The §3.1 sensitivity bound of the aggregate, in units of the
        dollar-DP granularity T."""

    @property
    @abstractmethod
    def aggregate_register(self) -> str:
        """State register summed by the aggregation function A."""

    @abstractmethod
    def state_registers(self, degree_bound: int) -> List[str]:
        """Ordered names of the state registers for a given degree bound.

        Constant per-edge data (debts, cross-holdings, ...) are registers
        too: the block holds shares of them and the update circuit passes
        them through, so no member ever sees them in the clear.
        """

    # -- semantics -----------------------------------------------------------

    @abstractmethod
    def initial_state(self, vertex: VertexView, degree_bound: int) -> Dict[str, float]:
        """INIT (Figure 2): the state the participant loads for its vertex."""

    @abstractmethod
    def float_update(
        self,
        state: Dict[str, float],
        messages: List[float],
        degree_bound: int,
    ) -> Tuple[Dict[str, float], List[float]]:
        """UPDATE + COMMUNICATE-WITH over floats (the reference semantics).

        ``messages`` has exactly ``degree_bound`` entries (padded with the
        no-op message); returns the new state and ``degree_bound`` outgoing
        messages (padded likewise).
        """

    def float_update_many(
        self, registers: Any, inbox: Any, degree_bound: int
    ) -> Tuple[Any, Any]:
        """Optional: :meth:`float_update` of every vertex at once, in
        column form.

        ``registers`` is ``R x V`` float64: ``registers[j]`` is register
        ``state_registers(D)[j]`` of every vertex, in id order; ``inbox``
        is ``D x V``, ``inbox[t]`` in-slot ``t`` of every vertex. Returns
        the new registers and the ``D x V`` outbox (out-slot ``t`` in row
        ``t``), entry for entry the bits :meth:`float_update` returns for
        each vertex. The step owns ``registers``: it may write the new
        values into it and return it. A register the step rewrites must
        start as a ``float`` in :meth:`initial_state`.

        A program that overrides this (with numpy) runs on the float
        engine in column form; one that does not runs vertex by vertex
        through :meth:`float_update`.
        """
        raise NotImplementedError

    @abstractmethod
    def build_update_circuit(self, degree_bound: int) -> Circuit:
        """The Boolean circuit form of one computation step.

        Input buses: one per state register (named as in
        :meth:`state_registers`) plus ``msg_in_0 .. msg_in_{D-1}``; output
        buses: the same register names plus ``msg_out_0 .. msg_out_{D-1}``.
        All buses are ``fmt.total_bits`` wide.
        """

    # -- shared helpers ---------------------------------------------------------

    def new_builder(self) -> FixedPointBuilder:
        return FixedPointBuilder(self.fmt)

    def encode_state(self, state: Dict[str, float]) -> Dict[str, int]:
        """Quantize a float state into raw fixed-point register values."""
        return {name: self.fmt.encode(value) for name, value in state.items()}

    def decode_state(self, raw: Dict[str, int]) -> Dict[str, float]:
        return {name: self.fmt.decode(value) for name, value in raw.items()}

    @staticmethod
    @lru_cache(maxsize=None)
    def slot_names(prefix: str, degree_bound: int) -> Tuple[str, ...]:
        """``(prefix_0, ..., prefix_{D-1})``: the per-slot register and bus
        names, formatted once per process instead of once per update."""
        return tuple(f"{prefix}_{slot}" for slot in range(degree_bound))

    def circuit_update(
        self,
        raw_state: Dict[str, int],
        raw_messages: List[int],
        degree_bound: int,
        circuit: Circuit | None = None,
    ) -> Tuple[Dict[str, int], List[int]]:
        """Evaluate the update circuit in the clear on raw register values.

        This is the bit-exact oracle for the secure engine: GMW evaluation
        of the same circuit on shares must reconstruct to these outputs.
        """
        return self.circuit_update_many([raw_state], [raw_messages], degree_bound, circuit)[0]

    def circuit_update_many(
        self,
        raw_states: Sequence[Dict[str, int]],
        raw_inboxes: Sequence[List[int]],
        degree_bound: int,
        circuit: Circuit | None = None,
    ) -> List[Tuple[Dict[str, int], List[int]]]:
        """:meth:`circuit_update` of many vertices in one walk of the
        circuit (:meth:`Circuit.evaluate_many
        <repro.mpc.circuit.Circuit.evaluate_many>`): entry ``i`` of the
        result is the new state and outbox of ``raw_states[i]`` under
        ``raw_inboxes[i]``."""
        if circuit is None:
            circuit = self.build_update_circuit(degree_bound)
        to_unsigned, from_unsigned = self.fmt.to_unsigned, self.fmt.from_unsigned
        msg_in = self.slot_names("msg_in", degree_bound)
        inputs_list = []
        for raw_state, raw_messages in zip(raw_states, raw_inboxes):
            inputs = {name: to_unsigned(value) for name, value in raw_state.items()}
            for name, value in zip(msg_in, raw_messages):
                inputs[name] = to_unsigned(value)
            inputs_list.append(inputs)
        registers = self.state_registers(degree_bound)
        msg_out = self.slot_names("msg_out", degree_bound)
        return [
            (
                {name: from_unsigned(outputs[name]) for name in registers},
                [from_unsigned(outputs[name]) for name in msg_out],
            )
            for outputs in circuit.evaluate_many(inputs_list)
        ]


def program_token(program: VertexProgram) -> Tuple[Any, ...]:
    """Content token of everything a program's behaviour depends on: its
    class, its name and every instance attribute (the fixed-point format
    among them). Raises :class:`~repro.core.tokens.Unfingerprintable` when
    an attribute has no stable token.

    The result cache and the compiled-circuit table both key on this, so
    neither can call two programs equal when the other would not.
    """
    return (
        type(program).__module__ + "." + type(program).__qualname__,
        program.name,
        stable_token(vars(program)),
    )


def compiled_update_circuit(program: VertexProgram, degree_bound: int) -> Circuit:
    """``program.build_update_circuit(degree_bound)``, built and compiled
    once per process (:mod:`repro.mpc.plan`) and sealed, so every run of
    the same *(program, format, degree bound)* shares one circuit.

    A program with an untokenisable attribute is built every time — the
    rule the result cache follows for the same program.
    """
    try:
        key: Any = ("update", program_token(program), degree_bound)
    except Unfingerprintable:
        key = None
    return PLANS.get(key, lambda: program.build_update_circuit(degree_bound))
