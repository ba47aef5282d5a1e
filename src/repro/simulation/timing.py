"""Calibrated cost model for DStress deployments.

The paper's scalability numbers (Figure 6, the 4.8-hour headline) are not
measured at N = 1750 — they are *projected* from microbenchmarks. This
module reproduces that estimation pipeline: measure the unit costs of the
two expensive primitives (a GMW AND-gate OT and a group exponentiation) on
this machine, then combine them with protocol operation counts.

Calibration constants can also be injected, which is how the benchmark
suite reports projections in the paper's own regime (their per-OT and
per-exponentiation costs on 2014 EC2 hardware) next to ours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.group import CyclicGroup, default_group
from repro.obs.clock import now as clock_now
from repro.crypto.rng import DeterministicRNG
from repro.mpc.builder import CircuitBuilder
from repro.mpc.gmw import GMWEngine

__all__ = [
    "CostConstants",
    "measure_cost_constants",
    "PAPER_COST_CONSTANTS",
    "PAPER_OTS_PER_AND_PAIR",
]

#: 1-out-of-2 OTs the paper's GMW backend runs per AND gate and counterpart
#: (one as sender, one as receiver): the unit ``seconds_per_ot`` prices.
#: The engine runs one 1-out-of-4 OT per party pair instead, which stands
#: for two of these.
PAPER_OTS_PER_AND_PAIR = 2

#: Lanes of the GMW batch :func:`measure_cost_constants` times: a secure
#: run evaluates a step's blocks as lanes of one walk, so a single lane
#: would price the per-walk overhead a run spreads over many.
CALIBRATION_LANES = 8


@dataclass(frozen=True)
class CostConstants:
    """Unit costs everything else is projected from.

    Attributes
    ----------
    seconds_per_ot:
        Wall time of one GMW AND-gate OT (amortized, extension-style), in
        the paper's unit: a 1-out-of-2 OT, ``PAPER_OTS_PER_AND_PAIR`` per
        AND gate and counterpart.
    seconds_per_exp:
        Wall time of one group exponentiation.
    seconds_per_share:
        Generating and delivering one share word (init step).
    label:
        Where these constants came from (machine or paper regime).
    """

    seconds_per_ot: float
    seconds_per_exp: float
    seconds_per_share: float = 2e-6
    label: str = "measured"


#: Constants back-solved from the paper's §5.2 microbenchmarks: a 20-node
#: EN step (D=100) took ~60 s over ~5M per-party OT invocations
#: (~1.3e-5 s each), and a 20-node single-message transfer took 610 ms
#: over ~870 critical-path exponentiations (~7e-4 s each on 2014 EC2
#: m3.xlarge with OpenSSL secp384r1).
PAPER_COST_CONSTANTS = CostConstants(
    seconds_per_ot=1.3e-5,
    seconds_per_exp=7e-4,
    seconds_per_share=2e-6,
    label="paper (EC2 m3.xlarge, Wysteria/OpenSSL)",
)


def measure_cost_constants(
    group: Optional[CyclicGroup] = None,
    gmw_parties: int = 3,
    sample_and_gates: int = 64,
) -> CostConstants:
    """Measure unit costs on the current machine, on the paths a secure
    run takes.

    Times a small GMW batch the way the secure engine evaluates a step's
    blocks: ``CALIBRATION_LANES`` evaluations of a pure-AND circuit as the
    lanes of one :meth:`~repro.mpc.gmw.GMWEngine.evaluate_batch` walk, its
    offline pool included (division by its 1-out-of-4 OTs, two paper OTs
    each, gives the per-OT cost). Then one 1 x 32
    :meth:`~repro.crypto.group.CyclicGroup.exp_grid` in the given group,
    the call every transfer exponentiates through. Takes well under a
    second — cheap enough to run at benchmark startup.
    """
    group = group if group is not None else default_group()
    rng = DeterministicRNG("calibration")

    # --- per-OT cost from a pure-AND circuit ------------------------------
    builder = CircuitBuilder()
    a = builder.input_bus("a", sample_and_gates)
    b = builder.input_bus("b", sample_and_gates)
    builder.output_bus("out", builder.bitwise_and(a, b))
    circuit = builder.circuit
    circuit.compile()  # a run compiles its circuits once, at setup
    engine = GMWEngine(gmw_parties)
    lanes = [
        {
            name: engine.share_input(rng.randbits(sample_and_gates), sample_and_gates, rng)
            for name in ("a", "b")
        }
        for _ in range(CALIBRATION_LANES)
    ]
    started = clock_now()
    results = engine.evaluate_batch(circuit, lanes, rng)
    elapsed = clock_now() - started
    ots = sum(result.traffic.ot_count for result in results)
    seconds_per_ot = elapsed / max(1, PAPER_OTS_PER_AND_PAIR * ots)

    # --- per-exponentiation cost ------------------------------------------
    exponents = [group.random_scalar(rng) for _ in range(32)]
    started = clock_now()
    group.exp_grid([group.generator], exponents)
    per_exp = (clock_now() - started) / len(exponents)

    return CostConstants(
        seconds_per_ot=seconds_per_ot,
        seconds_per_exp=per_exp,
        label=f"measured ({group.name})",
    )
