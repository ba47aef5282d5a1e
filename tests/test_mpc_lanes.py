"""Parity-locked tests for the int-lane GMW evaluator.

``GMWEngine.evaluate_batch`` runs a batch of instances as one walk of the
gate list, one Python ``int`` per wire (bit ``lane * n + p`` is party
``p``'s prefix share in lane ``lane``). It is the default ``secure``
engine's only block evaluator and needs no numpy, so its bar is the one
the numpy engine meets: the same output **shares**, ``pair_bits`` (insertion
order included), OT stats and parent RNG position as back-to-back
``evaluate`` calls, the per-gate oracle, and as the numpy engine.
"""

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.crypto.group import TOY_GROUP_64
from repro.crypto.ot import DDHObliviousTransfer
from repro.crypto.ot_extension import IKNPOTExtension
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import OfflinePoolExhaustedError, ProtocolError
from repro.finance.eisenberg_noe import EisenbergNoeProgram
from repro.mpc.builder import CircuitBuilder
from repro.mpc.circuit import Circuit, GateOp
from repro.mpc.fixedpoint import FixedPointFormat
from repro.mpc.bitslice import HAVE_NUMPY, BitslicedGMWEngine
from repro.mpc.gmw import GMWEngine, LanePools
from repro.mpc.noise_circuit import build_noised_sum_bits_circuit

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy engine not available")

FMT = FixedPointFormat(8, 4)
LANES = (1, 3, 64, 65)  # 64: exactly one full numpy word


def _circuits():
    program = EisenbergNoeProgram(FMT)
    return {
        "update": program.build_update_circuit(2),
        "update-d1": program.build_update_circuit(1),
        "noise": build_noised_sum_bits_circuit(3, 12, 0.8, 5, 8),
    }


CIRCUITS = _circuits()


def random_inputs(engine, circuit, lanes, seed="inputs"):
    rng = DeterministicRNG(seed)
    return [
        {
            bus: engine.share_input(rng.randbits(len(wires)), len(wires), rng)
            for bus, wires in circuit.input_buses.items()
        }
        for _ in range(lanes)
    ]


def assert_same_results(got, ref):
    assert len(got) == len(ref)
    for lane, (g, r) in enumerate(zip(got, ref)):
        assert g.output_shares == r.output_shares, lane
        assert g.bus_widths == r.bus_widths
        assert list(g.traffic.pair_bits.items()) == list(r.traffic.pair_bits.items())
        assert g.traffic.sent_bits == r.traffic.sent_bits
        assert g.traffic.received_bits == r.traffic.received_bits
        assert (g.traffic.ot_count, g.traffic.rounds) == (r.traffic.ot_count, r.traffic.rounds)


def ot_stats(engine):
    stats = engine.ot.stats
    return stats.transfers, stats.sender_bytes, stats.receiver_bytes


_ORACLE = {}


def oracle(circuit_name, parties):
    """Back-to-back per-gate ``evaluate`` calls on ``max(LANES)`` instances,
    with the parent RNG state and OT stats after every prefix in
    ``LANES`` (a batch of ``L`` equals the first ``L`` calls)."""
    key = (circuit_name, parties)
    if key not in _ORACLE:
        circuit = CIRCUITS[circuit_name]
        engine = GMWEngine(parties)
        inputs = random_inputs(engine, circuit, max(LANES))
        rng = DeterministicRNG("lanes")
        results, after = [], {}
        for count, shares in enumerate(inputs, 1):
            results.append(engine.evaluate(circuit, shares, rng))
            if count in LANES:
                after[count] = (rng.getstate(), ot_stats(engine))
        _ORACLE[key] = (inputs, results, after)
    return _ORACLE[key]


# ---------------------------------------------------------- parity matrix --


class TestParityMatrix:
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    @pytest.mark.parametrize("circuit_name", ["update", "noise"])
    def test_int_lanes_match_the_oracle(self, circuit_name, parties, lanes):
        inputs, results, after = oracle(circuit_name, parties)
        engine = GMWEngine(parties)
        rng = DeterministicRNG("lanes")
        got = engine.evaluate_batch(CIRCUITS[circuit_name], inputs[:lanes], rng)
        assert_same_results(got, results[:lanes])
        assert (rng.getstate(), ot_stats(engine)) == after[lanes]

    @needs_numpy
    @pytest.mark.parametrize("lanes", LANES)
    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    @pytest.mark.parametrize("circuit_name", ["update", "noise"])
    def test_int_lanes_match_the_numpy_engine(self, circuit_name, parties, lanes):
        circuit = CIRCUITS[circuit_name]
        lane_engine = GMWEngine(parties)
        numpy_engine = BitslicedGMWEngine(parties)
        inputs = random_inputs(lane_engine, circuit, lanes, seed=f"numpy-{lanes}")
        lane_rng, numpy_rng = DeterministicRNG("numpy"), DeterministicRNG("numpy")
        got = lane_engine.evaluate_batch(circuit, inputs, lane_rng)
        ref = numpy_engine.evaluate_batch(circuit, inputs, numpy_rng)
        assert_same_results(got, ref)
        assert lane_rng.getstate() == numpy_rng.getstate()
        assert ot_stats(lane_engine) == ot_stats(numpy_engine)

    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_interleaved_degree_buckets_keep_transcript_order(self, parties):
        """Two circuits' builders filled in one mixed vertex order, as a
        §3.7 bucketed step does, equal per-gate calls in that order."""
        engine = GMWEngine(parties)
        order = ["update", "update-d1", "update-d1", "update", "update-d1"]
        inputs = [random_inputs(engine, CIRCUITS[name], 1, seed=f"mix-{i}")[0]
                  for i, name in enumerate(order)]
        oracle_rng = DeterministicRNG("mixed")
        refs = [engine.evaluate(CIRCUITS[name], shares, oracle_rng)
                for name, shares in zip(order, inputs)]

        rng = DeterministicRNG("mixed")
        builders = {name: engine.pool_builder(CIRCUITS[name]) for name in ("update", "update-d1")}
        for name in order:
            builders[name].add_instance(rng)
        assert rng.getstate() == oracle_rng.getstate()
        for name, builder in builders.items():
            lanes = [i for i, n in enumerate(order) if n == name]
            got = engine.evaluate_batch(
                CIRCUITS[name], [inputs[i] for i in lanes], pools=builder.build()
            )
            assert_same_results(got, [refs[i] for i in lanes])

    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_zero_and_circuit_and_empty_output_bus(self, parties):
        circuit = Circuit()
        x = circuit.add_input_bus("x", 3)
        y = circuit.add_input_bus("y", 70)  # wider than a machine word
        not_x = circuit.add_gate(GateOp.NOT, x[0])
        circuit.mark_output_bus("out", [circuit.add_gate(GateOp.XOR, not_x, y[69]), circuit.one])
        circuit.mark_output_bus("none", [])
        circuit.mark_output_bus("wide", list(y))
        engine = GMWEngine(parties)
        inputs = random_inputs(engine, circuit, 4)
        oracle_rng, rng = DeterministicRNG("zero"), DeterministicRNG("zero")
        refs = [engine.evaluate(circuit, shares, oracle_rng) for shares in inputs]
        pools = engine.precompute(circuit, 4, rng)
        assert pools.and_gates == 0 and pools.seeds == []
        assert_same_results(engine.evaluate_batch(circuit, inputs, pools=pools), refs)
        assert rng.getstate() == oracle_rng.getstate()
        assert all(r.output_shares["none"] == [0] * parties for r in refs)

    def test_one_bill_per_batch_and_each_lane_owns_its_traffic(self, monkeypatch):
        circuit = CIRCUITS["update"]
        inputs, results, _after = oracle("update", 3)
        engine = GMWEngine(3)
        bills = []
        closed_form = engine._closed_form_traffic
        monkeypatch.setattr(
            engine, "_closed_form_traffic", lambda stats: bills.append(stats) or closed_form(stats)
        )
        got = engine.evaluate_batch(circuit, inputs[:3], DeterministicRNG("lanes"))
        assert len(bills) == 1
        assert_same_results(got, results[:3])
        first, second, _third = (result.traffic for result in got)
        assert first == second and first is not second
        first.sent_bits[0] += 1
        first.received_bits[1] += 1
        first.pair_bits[(0, 1)] += 1
        assert second == results[1].traffic

    def test_empty_batch(self):
        engine = GMWEngine(3)
        rng = DeterministicRNG("empty")
        assert engine.evaluate_batch(CIRCUITS["update"], [], rng) == []
        assert rng.getstate() == DeterministicRNG("empty").getstate()


# ------------------------------------------------------------ pool guards --


class TestPools:
    def test_a_second_claim_raises_named_error(self):
        circuit = CIRCUITS["noise"]
        engine = GMWEngine(3)
        inputs = random_inputs(engine, circuit, 2)
        pools = engine.precompute(circuit, 2, DeterministicRNG("again"))
        assert isinstance(pools, LanePools) and pools.remaining == pools.and_gates
        engine.evaluate_batch(circuit, inputs, pools=pools)
        assert pools.remaining == 0
        with pytest.raises(OfflinePoolExhaustedError):
            engine.evaluate_batch(circuit, inputs, pools=pools)

    def test_pool_for_another_circuit_raises_named_error(self):
        engine = GMWEngine(3)
        pools = engine.precompute(CIRCUITS["update-d1"], 1, DeterministicRNG("other"))
        inputs = random_inputs(engine, CIRCUITS["update"], 1)
        with pytest.raises(OfflinePoolExhaustedError):
            engine.evaluate_batch(CIRCUITS["update"], inputs, pools=pools)

    @pytest.mark.parametrize("pool_parties", [2, 4])
    def test_instance_count_and_party_count_mismatch(self, pool_parties):
        circuit = CIRCUITS["noise"]
        engine = GMWEngine(3)
        inputs = random_inputs(engine, circuit, 3)
        with pytest.raises(OfflinePoolExhaustedError):
            engine.evaluate_batch(
                circuit, inputs, pools=engine.precompute(circuit, 2, DeterministicRNG("n"))
            )
        other_pools = GMWEngine(pool_parties).precompute(circuit, 3, DeterministicRNG("m"))
        with pytest.raises(ProtocolError):
            engine.evaluate_batch(circuit, inputs, pools=other_pools)
        with pytest.raises(ProtocolError):
            engine.evaluate_batch(circuit, inputs)  # neither rng nor pools


class TestSimulatedOTOnly:
    """Lanes compute what a correct OT returns and never run the backend,
    so an engine over a backend that draws per transfer must refuse to
    build or run lanes (its ``evaluate`` still works)."""

    @pytest.mark.parametrize(
        "backend",
        [lambda: DDHObliviousTransfer(TOY_GROUP_64), lambda: IKNPOTExtension(TOY_GROUP_64)],
        ids=["ddh", "iknp"],
    )
    def test_drawing_backends_refused(self, backend):
        circuit = CIRCUITS["noise"]
        engine = GMWEngine(2, ot=backend())
        inputs = random_inputs(engine, circuit, 1)
        with pytest.raises(ProtocolError):
            engine.pool_builder(circuit)
        with pytest.raises(ProtocolError):
            engine.evaluate_batch(circuit, inputs, DeterministicRNG("ddh"))
        assert engine.ot.stats.transfers == 0


# ---------------------------------------------------------- typed refusal --


@pytest.mark.parametrize(
    "evaluator",
    [
        pytest.param(lambda c, s: GMWEngine(3).evaluate(c, s, DeterministicRNG(1)), id="oracle"),
        pytest.param(
            lambda c, s: GMWEngine(3).evaluate_batch(c, [s], DeterministicRNG(1)), id="int-lanes"
        ),
        pytest.param(
            lambda c, s: BitslicedGMWEngine(3).evaluate_batch(c, [s], DeterministicRNG(1)),
            id="numpy",
            marks=needs_numpy,
        ),
    ],
)
@pytest.mark.parametrize("bad", [1.0, "1", None], ids=["float", "str", "none"])
def test_a_non_int_share_is_a_protocol_error(evaluator, bad):
    builder = CircuitBuilder()
    x = builder.input_bus("x", 4)
    y = builder.input_bus("y", 4)
    builder.output_bus("and", builder.bitwise_and(x, y))
    with pytest.raises(ProtocolError, match="int"):
        evaluator(builder.circuit, {"x": [1, 2, 3], "y": [4, bad, 6]})


# ------------------------------------------------------------- speed gate --


def test_int_lanes_are_at_least_five_times_the_per_gate_oracle():
    """Both timings come from this run on this machine, interleaved, so the
    ratio is portable where a committed wall-clock figure would not be.
    Parity comes first: a speedup of a different transcript means nothing."""
    circuit = CIRCUITS["update"]
    engine = GMWEngine(3)
    inputs = random_inputs(engine, circuit, 8, seed="speed")

    def oracle_run():
        rng = DeterministicRNG("gate")
        return [engine.evaluate(circuit, shares, rng) for shares in inputs]

    def lanes_run():
        return engine.evaluate_batch(circuit, inputs, DeterministicRNG("gate"))

    assert_same_results(lanes_run(), oracle_run())
    best = {oracle_run: float("inf"), lanes_run: float("inf")}
    for _ in range(3):
        for run in best:
            started = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - started)
    ratio = best[oracle_run] / best[lanes_run]
    assert ratio >= 5.0, f"int lanes only {ratio:.1f}x the per-gate oracle"


# ------------------------------------------------------ numpy-free default --

def released_by_default_engines():
    """What ``secure`` on the default backend releases on a four-bank
    cascade, drained on the memory bus and scheduled on the WAN bus, as
    JSON text."""
    from repro import Bank, FinancialNetwork, StressTest

    net = FinancialNetwork()
    for bank, cash in enumerate((2.0, 1.0, 1.0, 0.5)):
        net.add_bank(Bank(bank, cash=cash))
    for src, dst, amount in ((0, 1, 4.0), (0, 2, 2.0), (1, 3, 3.0), (2, 3, 1.0)):
        net.add_debt(src, dst, amount)
    template = StressTest(net).program("eisenberg-noe").preset("demo").seed(5)
    released = {}
    for transport in ("memory", "wan"):
        result = template.clone().engine("secure", transport=transport).run(iterations=2)
        released[transport] = [
            result.aggregate,
            result.pre_noise_aggregate,
            result.noise_raw,
            list(result.trajectory),
            result.traffic.summary(),
        ]
    return json.dumps(released, sort_keys=True)


def test_default_secure_engines_need_no_numpy():
    """``secure`` on the default backend, on both buses, in a child
    interpreter where ``import numpy`` fails, release what they release
    here."""
    body = f"""
        import sys
        sys.modules["numpy"] = None
        sys.path.insert(0, {os.path.dirname(__file__)!r})
        from test_mpc_lanes import released_by_default_engines
        from repro.mpc import bitslice
        assert not bitslice.HAVE_NUMPY
        print(released_by_default_engines())
    """
    child = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == released_by_default_engines()
