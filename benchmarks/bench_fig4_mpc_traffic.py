"""Figure 4: per-node traffic generated by the MPC computation steps.

The paper reports per-node traffic roughly proportional to the block size
(GMW total traffic grows quadratically but is shared by k+1 nodes) with
absolute numbers under ~6 MB per node, the noising circuit being largest.

Traffic here is exact protocol arithmetic (no wall clock): we run the GMW
engine with its byte accounting and cross-check against the circuit's
bill (:mod:`repro.mpc.cost`), then print the per-node bytes for each circuit and block size.
"""

from __future__ import annotations

import pytest

from conftest import BLOCK_SIZES
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.ot import SimulatedObliviousTransfer
from repro.crypto.rng import DeterministicRNG
from repro.finance import EisenbergNoeProgram, ElliottGolubJacksonProgram
from repro.mpc.cost import bill_for
from repro.mpc.fixedpoint import FixedPointFormat
from repro.mpc.gmw import GMWEngine
from repro.mpc.noise_circuit import build_noised_sum_bits_circuit, build_partial_sum_circuit
from tables import emit_table

FMT = FixedPointFormat(16, 8)
BENCH_DEGREE = 3


def _measured_bytes_per_node(circuit, parties: int, rng) -> float:
    ot = SimulatedObliviousTransfer(TOY_GROUP_64)
    engine = GMWEngine(parties, ot=ot)
    shares = {
        name: engine.share_input(rng.randbits(len(wires)), len(wires), rng)
        for name, wires in circuit.input_buses.items()
    }
    result = engine.evaluate(circuit, shares, rng)
    return sum(result.traffic.per_party_bytes) / parties


def test_fig4_traffic_per_node(benchmark):
    rng = DeterministicRNG("fig4")
    circuits = {
        "EN step": EisenbergNoeProgram(FMT).build_update_circuit(BENCH_DEGREE),
        "EGJ step": ElliottGolubJacksonProgram(FMT).build_update_circuit(BENCH_DEGREE),
        "aggregation": build_partial_sum_circuit(8, FMT.total_bits, FMT.total_bits + 4),
        "noising": build_noised_sum_bits_circuit(
            4, FMT.total_bits, alpha=0.99, magnitude_bits=10, precision_bits=12
        ),
    }
    ot_bytes = SimulatedObliviousTransfer(TOY_GROUP_64).and_gate_bytes()

    rows = []
    for parties in BLOCK_SIZES:
        row = [parties]
        for name, circuit in circuits.items():
            measured = _measured_bytes_per_node(circuit, parties, rng)
            predicted = bill_for([circuit.stats()], parties, ot_bytes=ot_bytes)
            assert measured == pytest.approx(predicted.party_sent_bytes, rel=1e-9), name
            row.append(measured / 1e6)
        rows.append(row)

    # Linear-in-block-size shape: per-party bytes scale with (parties - 1).
    for column in range(1, 5):
        base = rows[0][column] / (BLOCK_SIZES[0] - 1)
        for row, parties in zip(rows, BLOCK_SIZES):
            assert row[column] == pytest.approx(base * (parties - 1), rel=0.01)

    emit_table(
        "Figure 4 - per-node MPC traffic vs block size [MB/node]",
        ["block", "EN step", "EGJ step", "aggregation", "noising"],
        rows,
        [
            "paper: <= 6 MB/node at blocks 8-20 with OT extension; linear in block size",
            "ours: per-AND base-OT message sizes (no bit packing), linear in block size",
            "the bill verified equal to engine accounting",
        ],
    )

    benchmark.pedantic(
        lambda: _measured_bytes_per_node(circuits["aggregation"], 3, rng),
        rounds=3,
        iterations=1,
    )


def test_fig4_extension_vs_base_ot_traffic(benchmark):
    """§5.3 attribution: OT extension is why the paper's numbers are low.
    Compare per-node bytes under base-OT accounting vs IKNP accounting."""
    from repro.crypto.ot import DDHObliviousTransfer
    from repro.crypto.ot_extension import IKNPOTExtension

    from repro.crypto.group import GROUP_256

    rng = DeterministicRNG("fig4-ext")
    circuit = EisenbergNoeProgram(FMT).build_update_circuit(2)
    # Account at a production group size: base OT ships group elements,
    # extension ships hashes/bits, which is the whole point.
    base = DDHObliviousTransfer(GROUP_256)
    ext = IKNPOTExtension(base, kappa=80, batch_size=1024)
    rows = []
    stats = [circuit.stats()]

    def per_party(ot, parties):
        return bill_for(stats, parties, ot_bytes=ot.and_gate_bytes()).party_sent_bytes

    for parties in (2, 3, 4):
        cost_base, cost_ext = per_party(base, parties), per_party(ext, parties)
        rows.append([parties, cost_base / 1e6, cost_ext / 1e6, cost_base / cost_ext])
        assert cost_ext < cost_base / 2
    emit_table(
        "Figure 4 companion - base OT vs IKNP extension per-node traffic [MB]",
        ["block", "base OT", "IKNP ext", "ratio"],
        rows,
        ["the paper credits OT extension [41, 46] for its low MPC traffic"],
    )
    benchmark.pedantic(lambda: per_party(ext, 3), rounds=5, iterations=1)
