"""Plaintext reference engine for vertex programs.

Runs a :class:`~repro.core.program.VertexProgram` in the clear, in two
modes:

* **float** — IEEE doubles with ``float_update``'s exact semantics; the
  semantic reference for the model (what a trusted all-seeing regulator
  would compute). A computation step is one numpy pass over every
  vertex's register column (:class:`~repro.core.rounds.ColumnLoop`) for
  a program with a ``float_update_many``, else ``float_update`` vertex
  by vertex;
* **fixed** — evaluates the *same Boolean circuits* the secure engine runs
  under MPC, but in the clear. The secure engine's pre-noise output must
  equal this mode bit-for-bit (asserted by the integration tests), and the
  gap between float and fixed mode is the quantization error.

The two modes are two :class:`~repro.core.rounds.Arithmetic` values
(:func:`float_arithmetic`, :func:`fixed_arithmetic`) behind one
:func:`plaintext_loop`; nothing else in the repository derives a clear
run's initial state or aggregate.

The engine follows §3.6 exactly: an initialization step, ``n`` computation
+ communication steps, one final computation step, then aggregation of the
designated register (noising is the caller's concern — this engine is the
oracle, so it returns the exact aggregate).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.graph import DistributedGraph, VertexView
from repro.core.program import NO_OP_MESSAGE, VertexProgram, compiled_update_circuit
from repro.core.rounds import (
    Arithmetic,
    ColumnLoop,
    RoundLoop,
    batched_superstep,
    np,
    sequential_superstep,
)
from repro.exceptions import ConfigurationError
from repro.obs.trace import timed_phase
from repro.simulation.netsim import PhaseTimer

__all__ = ["plaintext_loop", "float_arithmetic", "fixed_arithmetic"]


def declared_state(
    program: VertexProgram, degree_bound: int
) -> Callable[[VertexView], Dict[str, float]]:
    """``program.initial_state``, refusing a state that lacks one of
    ``state_registers(D)``. An extra register is accepted, as the secure
    engine accepts it."""
    registers = program.state_registers(degree_bound)
    declared = set(registers)

    def initial(view: VertexView) -> Dict[str, float]:
        state = program.initial_state(view, degree_bound)
        if not state.keys() >= declared:
            missing = [name for name in registers if name not in state]
            raise ConfigurationError(f"initial state missing registers {missing}")
        return state

    return initial


def float_arithmetic(
    program: VertexProgram, degree_bound: int
) -> Arithmetic[Dict[str, float], float]:
    """Plain Python floats: the semantic reference for the model."""
    register = program.aggregate_register
    return Arithmetic(
        fill=NO_OP_MESSAGE,
        initial=declared_state(program, degree_bound),
        update=lambda _vid, state, messages: program.float_update(
            state, messages, degree_bound
        ),
        observe=lambda states: sum(state[register] for state in states.values()),
        decode=lambda state: state,
        word_bytes=program.fmt.total_bits / 8.0,
    )


def fixed_arithmetic(
    program: VertexProgram, degree_bound: int
) -> Arithmetic[Dict[str, int], int]:
    """Raw fixed-point registers through the MPC update circuit, in the
    clear — the secure-engine oracle.

    The aggregate is an exact sum of raw registers, decoded once,
    mirroring the aggregation circuit.
    """
    fmt = program.fmt
    register = program.aggregate_register
    circuit = compiled_update_circuit(program, degree_bound)
    initial = declared_state(program, degree_bound)
    return Arithmetic(
        fill=fmt.encode(NO_OP_MESSAGE),
        initial=lambda view: program.encode_state(initial(view)),
        update=lambda _vid, state, messages: program.circuit_update(
            state, messages, degree_bound, circuit
        ),
        observe=lambda states: fmt.decode(sum(raw[register] for raw in states.values())),
        decode=program.decode_state,
        word_bytes=fmt.total_bits / 8.0,
    )


def plaintext_loop(
    program: VertexProgram,
    graph: DistributedGraph,
    fixed: bool = False,
    phases: Optional[PhaseTimer] = None,
) -> RoundLoop:
    """Initialize a resumable round loop (§3.6 setup) in float or
    fixed-point arithmetic; ``advance(n)`` on it runs ``n`` computation
    steps.

    The float loop is a :class:`~repro.core.rounds.ColumnLoop` when the
    program overrides ``float_update_many`` (and numpy is present);
    otherwise its states are per-vertex dicts stepped by ``float_update``.
    Every clear engine steps this loop, on whatever bus carries its wire
    events.
    """
    with timed_phase(phases, "initialization"):
        degree_bound = graph.degree_bound
        if fixed:
            # a computation step is one walk of the circuit, a lane per vertex
            circuit = compiled_update_circuit(program, degree_bound)
            superstep = batched_superstep(
                graph.vertex_ids,
                lambda states, inboxes: program.circuit_update_many(
                    states, inboxes, degree_bound, circuit
                ),
            )
            return RoundLoop(graph, fixed_arithmetic(program, degree_bound), superstep, phases)
        arithmetic = float_arithmetic(program, degree_bound)
        columns = type(program).float_update_many is not VertexProgram.float_update_many
        if np is None or not columns:
            superstep = sequential_superstep(graph.vertex_ids, arithmetic.update)
            return RoundLoop(graph, arithmetic, superstep, phases)
        # a computation step is one numpy pass over every vertex's registers
        return ColumnLoop(
            graph,
            arithmetic,
            lambda registers, inbox: program.float_update_many(registers, inbox, degree_bound),
            program.state_registers(degree_bound),
            program.aggregate_register,
            phases,
        )
