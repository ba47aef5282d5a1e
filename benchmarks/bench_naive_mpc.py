"""§5.5 baseline: systemic risk as one monolithic MPC.

The paper's comparison: a straightforward MPC of the Eisenberg-Noe closed
form raises an N x N matrix to the I-th power; their Wysteria matmul took
1.8 min at N=10 and 40 min at N=25, and the O(N^3) extrapolation gives
(1750/25)^3 * 40 min * 11 multiplies ~ 287 years — versus DStress's ~5
hours, the motivating five-orders-of-magnitude gap.

We run the same experiment: GMW-evaluate fixed-point matrix multiplies at
small N, fit the cubic, extrapolate to the banking system, and print the
speedup over the Figure 6 DStress projection.
"""

from __future__ import annotations

import math

import pytest

from repro.finance import EisenbergNoeProgram
from repro.mpc.fixedpoint import FixedPointFormat
from repro.simulation import PAPER_COST_CONSTANTS, ScalabilityEstimator
from repro.simulation.naive_baseline import (
    fit_naive_baseline,
    matrix_multiply_circuit,
    measure_matmul_seconds,
)
from tables import emit_table

FMT = FixedPointFormat(16, 8)


def test_naive_matrix_power_extrapolation(benchmark):
    sizes = (2, 3, 4)
    fit = fit_naive_baseline(sizes, FMT, parties=2)

    rows = []
    for n, seconds in fit.sample_points:
        rows.append([n, seconds, fit.seconds_for_multiply(n)])
    for n in (10, 25):
        rows.append([n, "-", fit.seconds_for_multiply(n)])

    # Cubic shape, on exact counts rather than wall time: N^3
    # multiply-accumulates of 470 AND gates each, plus 15 per output cell.
    gates = {n: matrix_multiply_circuit(n, FMT).stats().and_gates for n in sizes}
    assert gates == {n: 470 * n**3 + 15 * n**2 for n in sizes} == {2: 3820, 3: 12825, 4: 30320}

    years = fit.years_end_to_end(1750, iterations=12)
    assert years > 1.0, "naive MPC must be utterly impractical at N=1750"

    # DStress (projected at the paper's regime) vs naive (our GMW).
    dstress_hours = (
        ScalabilityEstimator(
            EisenbergNoeProgram(FMT), PAPER_COST_CONSTANTS, collusion_bound=19
        )
        .estimate(1750, 100, 11)
        .hours_total
    )
    speedup = years * 365.25 * 24 / dstress_hours

    emit_table(
        "§5.5 naive monolithic MPC baseline - one N x N matrix multiply [seconds]",
        ["N", "measured", "cubic fit"],
        rows,
        [
            "paper: 1.8 min at N=10, 40 min at N=25 (Wysteria), O(N^3)",
            f"extrapolated full run (N=1750, 11 multiplies): {years:,.0f} years"
            " (paper: ~287 years on their faster backend)",
            f"DStress projection: {dstress_hours:.1f} h -> naive/DStress ratio ~ {speedup:,.0f}x",
        ],
    )
    benchmark.pedantic(
        lambda: measure_matmul_seconds(2, FMT, parties=2), rounds=2, iterations=1
    )


def test_naive_and_gate_count_cubic(benchmark):
    rows = []
    counts = []
    for n in (2, 3, 4, 5):
        ands = matrix_multiply_circuit(n, FMT).stats().and_gates
        counts.append(ands)
        rows.append([n, ands, ands / n**3])
    # AND-gates per N^3 roughly constant => cubic circuit growth.
    per_cubed = [row[2] for row in rows]
    assert max(per_cubed) / min(per_cubed) < 1.6
    emit_table(
        "Naive baseline circuit growth - AND gates of N x N matmul",
        ["N", "AND gates", "ANDs / N^3"],
        rows,
        ["data-dependent sparsity cannot help: the matrix is private (§5.5)"],
    )
    benchmark.pedantic(
        lambda: matrix_multiply_circuit(3, FMT).stats().and_gates, rounds=2, iterations=1
    )
