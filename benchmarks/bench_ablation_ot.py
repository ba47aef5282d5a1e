"""Ablation: OT backends under the GMW engine.

The paper's GMW inherits OT extension from Choi et al.; this bench prices
the alternatives on the same circuit: DDH base OT (public-key per AND
gate), IKNP extension (amortized symmetric crypto), the fast simulated
backend, and trusted-dealer Beaver triples.
"""

from __future__ import annotations

import time

import pytest

from repro.crypto.elgamal import CountingGroup
from repro.crypto.group import GROUP_256, TOY_GROUP_64
from repro.crypto.ot import DDHObliviousTransfer, SimulatedObliviousTransfer
from repro.crypto.ot_extension import IKNPOTExtension
from repro.crypto.rng import DeterministicRNG
from repro.mpc.builder import CircuitBuilder
from repro.mpc.gmw import GMWEngine
from tables import emit_table

#: Chou-Orlandi exponentiations per OT: g^a, g^b, B^a, (B/A)^a, A^b.
EXPS_PER_OT = 5


def _small_circuit():
    builder = CircuitBuilder()
    a = builder.input_bus("a", 8)
    b = builder.input_bus("b", 8)
    builder.output_bus("prod", builder.mul(a, b))
    return builder.circuit


def _run(engine: GMWEngine, circuit, rng) -> float:
    shares = {
        "a": engine.share_input(123, 8, rng),
        "b": engine.share_input(45, 8, rng),
    }
    started = time.perf_counter()
    result = engine.evaluate(circuit, shares, rng)
    elapsed = time.perf_counter() - started
    assert result.reveal("prod") == (123 * 45) & 0xFF
    return elapsed


def test_ot_backend_ablation(benchmark):
    rng = DeterministicRNG("ot-ablation")
    circuit = _small_circuit()
    parties = 3
    ands = circuit.stats().and_gates
    ots = ands * parties * (parties - 1)

    groups = {
        "simulated": CountingGroup(TOY_GROUP_64),
        # Base OT priced at a production group size — the whole reason
        # extension exists. (The toy group makes base OT artificially cheap.)
        "DDH base OT": CountingGroup(GROUP_256),
        "IKNP extension": CountingGroup(TOY_GROUP_64),
    }
    iknp = IKNPOTExtension(
        DDHObliviousTransfer(groups["IKNP extension"]), kappa=32, batch_size=2048
    )
    backends = [
        ("simulated", GMWEngine(parties, ot=SimulatedObliviousTransfer(groups["simulated"]))),
        ("DDH base OT", GMWEngine(parties, ot=DDHObliviousTransfer(groups["DDH base OT"]))),
        ("IKNP extension", GMWEngine(parties, ot=iknp)),
        ("Beaver dealer", GMWEngine(parties, mode="beaver")),
    ]
    rows = []
    exps = {}
    for label, engine in backends:
        elapsed = _run(engine, circuit, rng)
        exps[label] = groups[label].exp_count if label in groups else 0
        rows.append([label, elapsed * 1000, elapsed / ots * 1e6, exps[label]])

    # Ordering claims, on counted exponentiations rather than wall-clock:
    # base OT pays public-key work for every OT, extension only for its
    # kappa base OTs (one extension phase covers the circuit), the
    # simulated backend none; outputs are identical (asserted in _run).
    assert exps["DDH base OT"] == EXPS_PER_OT * ots
    assert exps["IKNP extension"] == EXPS_PER_OT * iknp.kappa
    assert exps["simulated"] == 0

    emit_table(
        f"Ablation - GMW OT backends (8x8 multiplier, {ands} ANDs, 3 parties)",
        ["backend", "time [ms]", "per-OT cost [us]", "exps"],
        rows,
        [
            "all backends produce bit-identical outputs",
            "the paper's backend = extension regime; base OT per AND is untenable",
        ],
    )
    benchmark.pedantic(
        lambda: _run(GMWEngine(parties, ot=SimulatedObliviousTransfer(TOY_GROUP_64)), circuit, rng),
        rounds=3,
        iterations=1,
    )


def test_iknp_base_ot_amortization(benchmark):
    """Base-OT count is kappa per batch regardless of AND count."""
    rng = DeterministicRNG("amortize")
    circuit = _small_circuit()
    base = DDHObliviousTransfer(TOY_GROUP_64)
    ext = IKNPOTExtension(base, kappa=32, batch_size=4096)
    engine = GMWEngine(2, ot=ext)
    _run(engine, circuit, rng)
    total_ots = circuit.stats().and_gates * 2
    rows = [[total_ots, ext.base_ot_count, total_ots / max(1, ext.base_ot_count)]]
    assert ext.base_ot_count == 32  # exactly one extension phase
    emit_table(
        "Ablation - IKNP amortization (one batch)",
        ["extended OTs", "base OTs", "amortization factor"],
        rows,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
