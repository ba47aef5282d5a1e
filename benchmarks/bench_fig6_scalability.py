"""Figure 6: projected cost of full-scale deployments, with validation.

The paper's headline: running Eisenberg-Noe over the whole U.S. banking
system (N=1750, D=100, block 20, I = log2 N) would take about 4.8 hours
and ~750 MB of traffic per bank; both metrics grow linearly in D and the
time grows with N through the iteration count. The numbers are projected
from microbenchmarks, with real runs at N=20 and N=100 as validation
points (the red circles).

We reproduce the whole pipeline: the same projection arithmetic fed by
(a) the paper's back-solved unit costs and (b) unit costs measured on this
machine, plus validation by executing the real engine at simulation scale
and comparing against the estimator's prediction for those parameters.
"""

from __future__ import annotations

import math

import pytest

from repro import StressTest
from repro.core.config import DStressConfig
from repro.core.program import compiled_update_circuit
from repro.core.secure_engine import run_bill
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.rng import DeterministicRNG
from repro.finance import EisenbergNoeProgram
from repro.graphgen import RandomNetworkParams, random_network
from repro.mpc.cost import bill_for
from repro.mpc.fixedpoint import FixedPointFormat
from repro.simulation import PAPER_COST_CONSTANTS, ScalabilityEstimator, measure_cost_constants
from tables import emit_table

FMT = FixedPointFormat(16, 8)


def test_fig6_projection_paper_regime(benchmark):
    """Project the paper's sweep: D in {10,40,70,100}, N up to 2000."""
    program = EisenbergNoeProgram(FMT)
    estimator = ScalabilityEstimator(
        program, PAPER_COST_CONSTANTS, collusion_bound=19, element_bytes=97
    )
    rows = []
    headline = None
    for num_nodes in (100, 500, 1000, 1750, 2000):
        iterations = max(1, math.ceil(math.log2(num_nodes)))
        row = [num_nodes, iterations]
        for degree in (10, 40, 70, 100):
            estimate = estimator.estimate(num_nodes, degree, iterations)
            row.append(estimate.minutes_total)
            if num_nodes == 1750 and degree == 100:
                headline = estimate
        rows.append(row)

    # Headline claim: 4.8 hours and high-hundreds-of-MB per node. The
    # computation term is exactly the compiled D = 100 circuit's bill at
    # the paper's per-OT cost; that circuit is smaller than the paper's,
    # so the projection lands under 4.8 h (DESIGN.md, "Known deviations").
    assert headline is not None
    block = estimator.block_size
    bill = bill_for([compiled_update_circuit(program, 100).stats()], block)
    # the paper's backend: two 1-out-of-2 OTs per AND gate and counterpart
    step = 2 * (block - 1) * bill.and_gates * PAPER_COST_CONSTANTS.seconds_per_ot * block
    assert headline.seconds_computation == headline.iterations * step
    assert headline.hours_total < 4.8, headline.hours_total
    assert 300 < headline.traffic_per_node_mb < 3000

    # Linear-in-D at fixed N (compare D=100 vs D=10 cost ratio ~ 10x
    # within generous slack; constant terms damp it).
    last = rows[-1]  # columns: N, I, D=10, D=40, D=70, D=100
    assert 4 < last[5] / last[2] < 14

    emit_table(
        "Figure 6 (left) - projected completion time [minutes], paper cost regime",
        ["N", "I=log2N", "D=10", "D=40", "D=70", "D=100"],
        rows,
        [
            "paper: up to ~400 min at N=2000/D=100; N=1750/D=100 ~ 4.8 h",
            f"our projection at N=1750/D=100: {headline.hours_total:.2f} h, "
            f"{headline.traffic_per_node_mb:.0f} MB/node (paper: ~750 MB)",
        ],
    )

    traffic_rows = []
    for degree in (10, 40, 70, 100):
        estimate = estimator.estimate(1750, degree, 11)
        traffic_rows.append([degree, estimate.traffic_per_node_mb])
    assert traffic_rows[-1][1] > traffic_rows[0][1] * 4
    emit_table(
        "Figure 6 (right) - projected traffic per node [MB], N=1750",
        ["D", "MB/node"],
        traffic_rows,
        ["paper: ~10 MB (D=10) up to ~750 MB (D=100), linear in D"],
    )
    benchmark.pedantic(
        lambda: estimator.estimate(1750, 100, 11), rounds=3, iterations=1
    )


def test_fig6_validation_points(benchmark):
    """The red circles: run the real engine and compare to the estimator
    fed with unit costs measured on this machine."""
    program = EisenbergNoeProgram(FMT)
    constants = measure_cost_constants(TOY_GROUP_64)

    rows = []
    for num_banks in (6, 10):
        degree, iterations, block = 2, 2, 3
        network = random_network(
            RandomNetworkParams(num_banks=num_banks, mean_degree=1.5, degree_cap=degree),
            DeterministicRNG(f"fig6-val-{num_banks}"),
        )
        graph = network.to_en_graph(degree)
        config = DStressConfig(
            collusion_bound=block - 1,
            fmt=FMT,
            group=TOY_GROUP_64,
            output_epsilon=0.5,
            seed=1,
        )
        result = (
            StressTest(graph)
            .program(program)
            .engine("secure")
            .configure(config)
            .run(iterations=iterations)
        )
        measured_minutes = result.wall_seconds / 60.0

        estimator = ScalabilityEstimator(
            program,
            constants,
            collusion_bound=block - 1,
            element_bytes=TOY_GROUP_64.element_size_bytes,
        )
        predicted = estimator.estimate(num_banks, degree, iterations)
        # The simulation serializes all blocks on one core, so measured
        # wall time corresponds to ~N x the per-node projection. The
        # estimator prices the paper's per-iteration ElGamal transfer; the
        # engine runs the pad transfer, whose only exponentiations are the
        # key agreements its bill counts, so those replace the projected
        # communication term.
        agreements = run_bill(program, config, graph, iterations).exponentiations
        predicted_serialized = (
            (predicted.seconds_total - predicted.seconds_communication) * num_banks
            + agreements * constants.seconds_per_exp
        ) / 60.0
        rows.append(
            [num_banks, measured_minutes * 60, predicted_serialized * 60,
             measured_minutes / predicted_serialized if predicted_serialized else float("nan")]
        )
        # Same order of magnitude — the paper's circles also sit below the
        # projected curves ("actual runs tend to be a bit faster").
        assert 0.1 < measured_minutes / predicted_serialized < 10

    emit_table(
        "Figure 6 validation - real engine runs vs projection [seconds, serialized]",
        ["N", "measured", "predicted", "ratio"],
        rows,
        [
            "paper validated at N=20 and N=100 on EC2; we validate the same",
            "estimation pipeline at simulation scale with measured unit costs",
        ],
    )
    benchmark.pedantic(
        lambda: measure_cost_constants(TOY_GROUP_64, gmw_parties=2, sample_and_gates=16),
        rounds=2,
        iterations=1,
    )
