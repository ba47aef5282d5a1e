"""Plaintext reference engine for vertex programs.

Runs a :class:`~repro.core.program.VertexProgram` in the clear, in two
modes:

* **float** — plain Python floats; the semantic reference for the model
  (what a trusted all-seeing regulator would compute);
* **fixed** — evaluates the *same Boolean circuits* the secure engine runs
  under MPC, but in the clear. The secure engine's pre-noise output must
  equal this mode bit-for-bit (asserted by the integration tests), and the
  gap between float and fixed mode is the quantization error.

The two modes are two :class:`~repro.core.rounds.Arithmetic` values
(:func:`float_arithmetic`, :func:`fixed_arithmetic`) behind one
:meth:`PlaintextEngine.start` / :meth:`PlaintextEngine.finish`; nothing
else in the repository derives a clear run's initial state, aggregate or
result.

The engine follows §3.6 exactly: an initialization step, ``n`` computation
+ communication steps, one final computation step, then aggregation of the
designated register (noising is the caller's concern — this engine is the
oracle, so it returns the exact aggregate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.convergence import TrajectoryConvergence
from repro.core.graph import DistributedGraph, VertexView
from repro.core.program import NO_OP_MESSAGE, VertexProgram, compiled_update_circuit
from repro.core.rounds import Arithmetic, RoundLoop, Superstep, batched_superstep
from repro.core.transport import Transport
from repro.exceptions import ConfigurationError
from repro.obs.trace import timed_phase
from repro.simulation.netsim import PhaseTimer

__all__ = ["PlaintextRun", "PlaintextEngine", "float_arithmetic", "fixed_arithmetic"]


@dataclass
class PlaintextRun(TrajectoryConvergence):
    """Result of a plaintext execution."""

    aggregate: float
    final_states: Dict[int, Dict[str, float]]
    #: per-iteration aggregate of the designated register (convergence data)
    trajectory: List[float] = field(default_factory=list)
    #: per-phase wall-clock (initialization/computation/communication),
    #: filled through the shared recorder path so plaintext runs report
    #: phases the same way the secure engine always has
    phases: Optional[PhaseTimer] = None


def float_arithmetic(
    program: VertexProgram, degree_bound: int
) -> Arithmetic[Dict[str, float], float]:
    """Plain Python floats: the semantic reference for the model."""
    register = program.aggregate_register
    return Arithmetic(
        fill=NO_OP_MESSAGE,
        initial=lambda view: program.initial_state(view, degree_bound),
        update=lambda _vid, state, messages: program.float_update(
            state, messages, degree_bound
        ),
        observe=lambda states: sum(state[register] for state in states.values()),
        decode=lambda state: state,
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
    registers = set(program.state_registers(degree_bound))

    def initial(view: VertexView) -> Dict[str, int]:
        state = program.initial_state(view, degree_bound)
        missing = registers - set(state)
        if missing:
            raise ConfigurationError(f"initial state missing registers {missing}")
        return program.encode_state(state)

    return Arithmetic(
        fill=fmt.encode(NO_OP_MESSAGE),
        initial=initial,
        update=lambda _vid, state, messages: program.circuit_update(
            state, messages, degree_bound, circuit
        ),
        observe=lambda states: fmt.decode(sum(raw[register] for raw in states.values())),
        decode=program.decode_state,
    )


class PlaintextEngine:
    """Executes vertex programs in the clear.

    ``transport`` (default: the shared in-memory bus) is the message bus
    rounds are routed over; a
    :class:`~repro.core.transport.SimulatedWanTransport` meters the same
    execution's traffic and link delays without changing any payload.
    """

    def __init__(
        self, program: VertexProgram, transport: Optional[Transport] = None
    ) -> None:
        self.program = program
        self.transport = transport

    def start(
        self,
        graph: DistributedGraph,
        fixed: bool = False,
        phases: Optional[PhaseTimer] = None,
        superstep: Optional[Superstep] = None,
    ) -> RoundLoop:
        """Initialize a resumable round loop (§3.6 setup) in float or
        fixed-point arithmetic.

        ``advance(n)`` on the returned loop runs ``n`` computation steps;
        :meth:`finish` packages the loop into a :class:`PlaintextRun`.
        :meth:`run_float` / :meth:`run_fixed` are the one-shot
        compositions; release policies interleave stages between windows.
        """
        with timed_phase(phases, "initialization"):
            make = fixed_arithmetic if fixed else float_arithmetic
            arithmetic = make(self.program, graph.degree_bound)
            if fixed and superstep is None:
                # a computation step is one walk of the circuit, a lane per
                # vertex (the async pipelines keep arithmetic.update)
                program, degree_bound = self.program, graph.degree_bound
                circuit = compiled_update_circuit(program, degree_bound)
                superstep = batched_superstep(
                    graph.vertex_ids,
                    lambda states, inboxes: program.circuit_update_many(
                        states, inboxes, degree_bound, circuit
                    ),
                )
            if self.transport is not None:
                # one execution = one bus session: resets per-run transport
                # state (round counters, fault accounting, mailboxes)
                self.transport.open(graph, arithmetic.fill)
            return RoundLoop(graph, arithmetic, phases, self.transport, superstep)

    def finish(self, loop: RoundLoop) -> PlaintextRun:
        """Package a loop's current state as a result, in real units."""
        decode = loop.arithmetic.decode
        return PlaintextRun(
            aggregate=loop.aggregate(),
            final_states={vid: decode(state) for vid, state in loop.states.items()},
            trajectory=loop.trajectory,
            phases=loop.phases,
        )

    def run_float(self, graph: DistributedGraph, iterations: int) -> PlaintextRun:
        """Reference execution over floats."""
        return self._run(graph, iterations, fixed=False)

    def run_fixed(self, graph: DistributedGraph, iterations: int) -> PlaintextRun:
        """Clear evaluation of the MPC circuits — the secure-engine oracle.

        Aggregate and states are reported in decoded (real-valued) units.
        """
        return self._run(graph, iterations, fixed=True)

    def _run(self, graph: DistributedGraph, iterations: int, fixed: bool) -> PlaintextRun:
        loop = self.start(graph, fixed, PhaseTimer())
        loop.advance(iterations)
        return self.finish(loop)
