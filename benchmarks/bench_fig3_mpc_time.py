"""Figure 3: computation time of the MPC building blocks.

Left plot: time of each MPC circuit (initialization, EN step, EGJ step,
aggregation, noising) as a function of block size — the paper reports
linear growth (GMW total cost is quadratic but parties work in parallel;
time tracks per-party work).

Right plot: EN/EGJ step time vs the degree bound D and aggregation time vs
the number of inputs N — linear, because these circuits' gate counts are
dominated by their input counts.

We sweep scaled-down parameters (see conftest) and fit/verify the same
shapes, printing measured times alongside the paper's reported regime.
"""

from __future__ import annotations

import time

import pytest

from conftest import AGG_SIZES, BLOCK_SIZES, DEGREE_BOUNDS
from repro.crypto.rng import DeterministicRNG
from repro.finance import EisenbergNoeProgram, ElliottGolubJacksonProgram
from repro.mpc.fixedpoint import FixedPointFormat
from repro.mpc.gmw import GMWEngine
from repro.mpc.noise_circuit import build_noised_sum_bits_circuit, build_partial_sum_circuit
from repro.sharing import share_value
from tables import emit_table

FMT = FixedPointFormat(16, 8)
BENCH_DEGREE = 3


def _run_gmw(circuit, parties: int, rng):
    """Seconds of one evaluation and the OTs each party takes part in."""
    engine = GMWEngine(parties)
    shares = {
        name: engine.share_input(rng.randbits(len(wires)), len(wires), rng)
        for name, wires in circuit.input_buses.items()
    }
    started = time.perf_counter()
    result = engine.evaluate(circuit, shares, rng)
    elapsed = time.perf_counter() - started
    # every OT has one sender and one receiver among the parties
    return elapsed, 2 * result.traffic.ot_count // parties


def _time_gmw(circuit, parties: int, rng) -> float:
    return _run_gmw(circuit, parties, rng)[0]


def _time_init(parties: int, registers: int, rng) -> float:
    started = time.perf_counter()
    for _ in range(registers):
        share_value(rng.randbits(FMT.total_bits), FMT.total_bits, parties, rng)
    return time.perf_counter() - started


def _linearity(xs, ys) -> float:
    """Correlation between y and a linear fit in x (1.0 = perfectly linear)."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x * var_y) ** 0.5


def test_fig3_left_block_size_sweep(benchmark):
    """Figure 3 (left): MPC step time vs block size — expect linear."""
    rng = DeterministicRNG("fig3-left")
    en_circuit = EisenbergNoeProgram(FMT).build_update_circuit(BENCH_DEGREE)
    egj_circuit = ElliottGolubJacksonProgram(FMT).build_update_circuit(BENCH_DEGREE)
    agg_circuit = build_partial_sum_circuit(8, FMT.total_bits, FMT.total_bits + 4)
    noise_circuit = build_noised_sum_bits_circuit(
        4, FMT.total_bits, alpha=0.99, magnitude_bits=10, precision_bits=12
    )
    registers = len(EisenbergNoeProgram(FMT).state_registers(BENCH_DEGREE)) + BENCH_DEGREE

    circuits = {"EN": en_circuit, "EGJ": egj_circuit, "agg": agg_circuit, "noise": noise_circuit}

    rows = []
    series = {name: [] for name in circuits}
    party_ots = {name: [] for name in circuits}
    for parties in BLOCK_SIZES:
        row = [parties, _time_init(parties, registers, rng)]
        for name, circuit in circuits.items():
            seconds, ots = _run_gmw(circuit, parties, rng)
            series[name].append(seconds)
            party_ots[name].append(ots)
            row.append(seconds)
        rows.append(row)

    notes = [
        "paper (Fig. 3 left): blocks 8-20, times up to ~80 s, linear in block size",
        f"scaled sweep: blocks {BLOCK_SIZES}, D={BENCH_DEGREE}, L={FMT.total_bits}",
    ]
    for name, ys in series.items():
        r = _linearity(list(BLOCK_SIZES), ys)
        notes.append(f"linearity({name} vs block size) r = {r:.3f}")
        # Time tracks per-party work, checked on its exact count rather
        # than wall-clock (too jittery at sub-100ms runs): each AND puts a
        # party in one 1-out-of-4 OT per other party.
        ands = circuits[name].stats().and_gates
        assert party_ots[name] == [(k - 1) * ands for k in BLOCK_SIZES], (
            f"{name} OTs per party not linear in block size"
        )
    emit_table(
        "Figure 3 (left) - MPC computation time vs block size [seconds]",
        ["block", "init", "EN step", "EGJ step", "aggregation", "noising"],
        rows,
        notes,
    )

    benchmark.pedantic(
        lambda: _time_gmw(en_circuit, 3, rng), rounds=3, iterations=1
    )


def test_fig3_right_degree_and_n_sweep(benchmark):
    """Figure 3 (right): step time vs D; aggregation time vs N — linear."""
    rng = DeterministicRNG("fig3-right")
    parties = 3

    # Time tracks per-party work, asserted on its exact count: a party
    # takes one OT per AND per other party, at every D and N.
    def timed(circuit):
        seconds, ots = _run_gmw(circuit, parties, rng)
        assert ots == (parties - 1) * circuit.stats().and_gates
        return seconds

    degree_rows = []
    en_times = []
    for degree in DEGREE_BOUNDS:
        en_s = timed(EisenbergNoeProgram(FMT).build_update_circuit(degree))
        egj_s = timed(ElliottGolubJacksonProgram(FMT).build_update_circuit(degree))
        en_times.append(en_s)
        degree_rows.append([degree, en_s, egj_s])

    agg_rows = []
    agg_times = []
    for n in AGG_SIZES:
        agg_s = timed(build_partial_sum_circuit(n, FMT.total_bits, FMT.total_bits + 6))
        agg_times.append(agg_s)
        agg_rows.append([n, agg_s])

    r_degree = _linearity(list(DEGREE_BOUNDS), en_times)
    r_agg = _linearity(list(AGG_SIZES), agg_times)
    emit_table(
        "Figure 3 (right) - EN/EGJ step time vs degree bound D [seconds]",
        ["D", "EN step", "EGJ step"],
        degree_rows,
        [
            "paper: D in 10-100, roughly linear (circuit inputs dominate)",
            f"linearity(EN vs D) r = {r_degree:.3f}",
        ],
    )
    emit_table(
        "Figure 3 (right) - aggregation time vs N inputs [seconds]",
        ["N", "aggregation"],
        agg_rows,
        [
            "paper: N in 50-200, roughly linear",
            f"linearity(agg vs N) r = {r_agg:.3f}",
        ],
    )
    # EN has a division, EGJ two multiplications per slot: at larger D the
    # EGJ step overtakes EN, as in the paper's Fig. 3 bars.

    benchmark.pedantic(
        lambda: _time_gmw(
            EisenbergNoeProgram(FMT).build_update_circuit(2), parties, rng
        ),
        rounds=3,
        iterations=1,
    )
