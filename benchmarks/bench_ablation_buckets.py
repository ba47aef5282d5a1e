"""Ablation: degree buckets (§3.7).

DStress pads every vertex's circuit to the global degree bound D, so one
highly connected bank makes *everyone's* MPC steps expensive. §3.7
proposes bucketing: vertices with small degree use a small-D circuit,
leaking approximate degree but shrinking most banks' computation.

This bench quantifies the trade on a core-periphery population, where the
bucket win is largest (a few high-degree core banks, many low-degree
peripheral banks).
"""

from __future__ import annotations

import pytest

from repro.finance import EisenbergNoeProgram
from repro.mpc.cost import bill_for
from repro.mpc.fixedpoint import FixedPointFormat
from tables import emit_table

FMT = FixedPointFormat(16, 8)


def _step_ots(degree_bounds, parties: int) -> int:
    """One computation step's OTs, a block per entry of ``degree_bounds``."""
    program = EisenbergNoeProgram(FMT)
    stats = {d: program.build_update_circuit(d).stats() for d in set(degree_bounds)}
    return bill_for([stats[d] for d in degree_bounds], parties).ots


def test_degree_buckets(benchmark):
    parties = 4
    # Stylized population: 10 core banks with degree <= 8, 90 peripheral
    # banks with degree <= 2 (the Appendix C shape).
    core_banks, periphery_banks = 10, 90
    big_d, small_d = 8, 2

    uniform_cost = _step_ots([big_d] * (core_banks + periphery_banks), parties)
    bucketed_cost = _step_ots([big_d] * core_banks + [small_d] * periphery_banks, parties)

    rows = [
        ["uniform D=8", uniform_cost / 1e6],
        ["buckets {2, 8}", bucketed_cost / 1e6],
        ["savings", (1 - bucketed_cost / uniform_cost) * 100],
    ]
    # §3.7's claim: "the MPC block computations for most banks would be
    # much faster" — expect a large win.
    assert bucketed_cost < 0.55 * uniform_cost

    emit_table(
        "Ablation - §3.7 degree buckets (EN step OTs per iteration, millions / % saved)",
        ["configuration", "value"],
        rows,
        [
            "100 banks: 10 core (degree <= 8), 90 peripheral (degree <= 2)",
            "cost: revealing one bit of approximate degree per bank",
        ],
    )
    benchmark.pedantic(lambda: _step_ots([2], parties), rounds=2, iterations=1)


def test_bucket_crossover(benchmark):
    """Where buckets stop paying: as the population becomes uniformly
    high-degree the savings vanish."""
    parties = 4
    big_d, small_d = 6, 2
    big_cost = _step_ots([big_d], parties)
    small_cost = _step_ots([small_d], parties)

    rows = []
    savings = []
    for high_fraction in (0.1, 0.5, 0.9):
        uniform = big_cost
        bucketed = high_fraction * big_cost + (1 - high_fraction) * small_cost
        saved = 1 - bucketed / uniform
        savings.append(saved)
        rows.append([high_fraction, saved * 100])
    assert savings[0] > savings[1] > savings[2]
    emit_table(
        "Ablation - bucket savings vs fraction of high-degree banks [%]",
        ["high-degree fraction", "savings"],
        rows,
        ["savings decay linearly as the high-degree bucket fills"],
    )
    benchmark.pedantic(lambda: _step_ots([2], parties), rounds=2, iterations=1)
