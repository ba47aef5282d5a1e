"""Tests for the GMW engine: correctness, secrecy structure, accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.group import TOY_GROUP_64
from repro.crypto.ot import DDHObliviousTransfer, SimulatedObliviousTransfer
from repro.crypto.ot_extension import IKNPOTExtension
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CircuitError, ProtocolError
from repro.mpc.builder import CircuitBuilder
from repro.mpc.circuit import Circuit
from repro.mpc.cost import gmw_cost
from repro.mpc.gmw import GMWEngine
from repro.sharing import xor_all


def adder_circuit(width=8):
    builder = CircuitBuilder()
    a = builder.input_bus("a", width)
    b = builder.input_bus("b", width)
    builder.output_bus("sum", builder.add(a, b))
    builder.output_bus("lt", [builder.lt_unsigned(a, b)])
    return builder.circuit


class TestCorrectness:
    @pytest.mark.parametrize("parties", [2, 3, 5])
    def test_adder_matches_plaintext(self, parties, rng):
        circuit = adder_circuit()
        engine = GMWEngine(parties)
        for a, b in [(0, 0), (255, 1), (100, 200), (7, 7)]:
            shares = {
                "a": engine.share_input(a, 8, rng),
                "b": engine.share_input(b, 8, rng),
            }
            result = engine.evaluate(circuit, shares, rng)
            assert result.reveal("sum") == (a + b) & 0xFF
            assert result.reveal("lt") == (1 if a < b else 0)

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=scale(15), deadline=None)
    def test_property_random_inputs(self, a, b):
        rng = DeterministicRNG(a * 257 + b)
        circuit = adder_circuit()
        engine = GMWEngine(3)
        shares = {
            "a": engine.share_input(a, 8, rng),
            "b": engine.share_input(b, 8, rng),
        }
        result = engine.evaluate(circuit, shares, rng)
        assert result.reveal("sum") == (a + b) & 0xFF

    def test_beaver_mode_matches_ot_mode(self, rng):
        circuit = adder_circuit()
        for a, b in [(13, 200), (0, 255)]:
            for mode in ("ot", "beaver"):
                engine = GMWEngine(4, mode=mode)
                shares = {
                    "a": engine.share_input(a, 8, rng),
                    "b": engine.share_input(b, 8, rng),
                }
                assert engine.evaluate(circuit, shares, rng).reveal("sum") == (a + b) & 0xFF

    def test_real_ddh_ot_backend(self, rng):
        """Full public-key OT under every AND gate (slow; tiny circuit)."""
        builder = CircuitBuilder()
        a = builder.input_bus("a", 2)
        b = builder.input_bus("b", 2)
        builder.output_bus("and", builder.bitwise_and(a, b))
        engine = GMWEngine(2, ot=DDHObliviousTransfer(TOY_GROUP_64))
        shares = {
            "a": engine.share_input(3, 2, rng),
            "b": engine.share_input(2, 2, rng),
        }
        assert engine.evaluate(builder.circuit, shares, rng).reveal("and") == 2

    def test_iknp_backend(self, rng):
        circuit = adder_circuit(4)
        ot = IKNPOTExtension(DDHObliviousTransfer(TOY_GROUP_64), kappa=16, batch_size=256)
        engine = GMWEngine(3, ot=ot)
        shares = {
            "a": engine.share_input(9, 4, rng),
            "b": engine.share_input(5, 4, rng),
        }
        assert engine.evaluate(circuit, shares, rng).reveal("sum") == 14


class TestShapeAndErrors:
    def test_single_party_rejected(self):
        with pytest.raises(ProtocolError):
            GMWEngine(1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProtocolError):
            GMWEngine(3, mode="magic")

    def test_missing_input_shares(self, rng):
        circuit = adder_circuit()
        engine = GMWEngine(3)
        with pytest.raises(CircuitError):
            engine.evaluate(circuit, {"a": engine.share_input(1, 8, rng)}, rng)

    def test_wrong_share_count(self, rng):
        circuit = adder_circuit()
        engine = GMWEngine(3)
        shares = {"a": [1, 2], "b": [1, 2, 3]}
        with pytest.raises(ProtocolError):
            engine.evaluate(circuit, shares, rng)


class TestSecrecyStructure:
    def test_outputs_stay_shared(self, rng):
        """No single party's output share equals the plaintext — DStress
        never reveals intermediate values (§3.3)."""
        circuit = adder_circuit()
        engine = GMWEngine(4)
        plaintext_hits = 0
        for trial in range(20):
            a, b = rng.randbits(8), rng.randbits(8)
            shares = {
                "a": engine.share_input(a, 8, rng),
                "b": engine.share_input(b, 8, rng),
            }
            result = engine.evaluate(circuit, shares, rng)
            expected = (a + b) & 0xFF
            for party_share in result.output_shares["sum"]:
                if party_share == expected:
                    plaintext_hits += 1
        # Coincidental hits are possible (1/256 per share); systematic
        # leakage would produce ~80.
        assert plaintext_hits < 10

    def test_any_k_output_shares_not_determining(self, rng):
        """XOR of any strict subset of output shares varies run to run."""
        circuit = adder_circuit()
        engine = GMWEngine(3)
        partials = set()
        for _ in range(30):
            shares = {
                "a": engine.share_input(50, 8, rng),
                "b": engine.share_input(60, 8, rng),
            }
            result = engine.evaluate(circuit, shares, rng)
            partials.add(xor_all(result.output_shares["sum"][:2]))
        assert len(partials) > 10


class TestAccounting:
    def test_ot_count_formula(self, rng):
        """One OT per AND gate per ordered party pair."""
        circuit = adder_circuit()
        ands = circuit.stats().and_gates
        for parties in (2, 3, 5):
            engine = GMWEngine(parties)
            shares = {
                "a": engine.share_input(1, 8, rng),
                "b": engine.share_input(2, 8, rng),
            }
            result = engine.evaluate(circuit, shares, rng)
            assert result.traffic.ot_count == ands * parties * (parties - 1)

    def test_rounds_equal_and_depth(self, rng):
        circuit = adder_circuit()
        engine = GMWEngine(2)
        shares = {
            "a": engine.share_input(1, 8, rng),
            "b": engine.share_input(2, 8, rng),
        }
        result = engine.evaluate(circuit, shares, rng)
        assert result.traffic.rounds == circuit.stats().and_depth

    def test_per_party_traffic_linear_total_quadratic(self, rng):
        """The Figure 3/4 shape: per-party linear in block size, total
        quadratic."""
        circuit = adder_circuit()
        per_party = {}
        total = {}
        for parties in (2, 4, 8):
            engine = GMWEngine(parties)
            shares = {
                "a": engine.share_input(1, 8, rng),
                "b": engine.share_input(2, 8, rng),
            }
            traffic = engine.evaluate(circuit, shares, rng).traffic
            per_party[parties] = traffic.sent_bits[0]
            total[parties] = sum(traffic.sent_bits)
        assert per_party[4] == pytest.approx(per_party[2] * 3, rel=0.01)
        assert per_party[8] == pytest.approx(per_party[2] * 7, rel=0.01)
        assert total[4] == pytest.approx(total[2] * 6, rel=0.01)

    def test_matches_cost_model(self, rng):
        circuit = adder_circuit()
        parties = 3
        ot = SimulatedObliviousTransfer(TOY_GROUP_64)
        engine = GMWEngine(parties, ot=ot)
        shares = {
            "a": engine.share_input(1, 8, rng),
            "b": engine.share_input(2, 8, rng),
        }
        result = engine.evaluate(circuit, shares, rng)
        predicted = gmw_cost(
            circuit,
            parties,
            ot.sender_bytes_per_transfer(1),
            ot.receiver_bytes_per_transfer(1),
        )
        assert result.traffic.ot_count == predicted.total_ots
        assert sum(result.traffic.sent_bits) == predicted.parties * predicted.sent_bits_per_party

    @pytest.mark.parametrize("mode", ["ot", "beaver"])
    @pytest.mark.parametrize("parties", [2, 3, 4])
    def test_cost_model_matches_transcript_counts(self, mode, parties, rng):
        """Every ``gmw_cost`` field cross-checked against what the engine
        actually did — the bit-sliced offline phase sizes its randomness
        pools from these counts, so drift here would mis-provision pools
        (caught as ``OfflinePoolExhaustedError``) rather than just skew a
        projection. The historical drift: the model only described ``ot``
        mode, so beaver traffic/round predictions did not exist at all."""
        circuit = adder_circuit()
        engine = GMWEngine(parties, mode=mode)
        predicted = gmw_cost(
            circuit,
            parties,
            engine.ot.sender_bytes_per_transfer(1),
            engine.ot.receiver_bytes_per_transfer(1),
            mode=mode,
        )
        shares = {
            "a": engine.share_input(9, 8, rng),
            "b": engine.share_input(5, 8, rng),
        }
        traffic = engine.evaluate(circuit, shares, rng).traffic
        stats = circuit.stats()
        assert predicted.and_gates == stats.and_gates
        assert predicted.xor_gates == stats.xor_gates
        assert traffic.ot_count == predicted.total_ots
        assert traffic.rounds == predicted.rounds
        for party in range(parties):
            assert traffic.sent_bits[party] == predicted.sent_bits_per_party
        assert sum(traffic.sent_bits) == parties * predicted.sent_bits_per_party
        expected_triples = stats.and_gates if mode == "beaver" else 0
        assert predicted.beaver_triples == expected_triples
        # the reported traffic is closed-form; the backend's own record,
        # one per transfer_bit call, is the gate-for-gate count behind it
        backend = engine.ot.stats
        assert backend.transfers == predicted.total_ots
        if mode == "ot":
            assert 8 * backend.total_bytes == sum(traffic.sent_bits)

    def test_pair_traffic_pinned_by_hand(self, rng):
        """The closed form is the only traffic source in both engines, so
        its per-pair attribution, insertion order and rounds are pinned
        here as literals worked out from the per-gate rule: two chained AND
        gates, three parties, TOY_GROUP_64 (8-byte elements). ``ot``: per
        gate and ordered pair ``(i, j)`` the sender puts 8 + 2 bytes = 80
        bits on ``i -> j`` and the receiver 8 bytes = 64 bits on
        ``j -> i``, visited for ``i``, for ``j != i``: ``(i, j)`` then
        ``(j, i)``; every link carries both directions' share, 144 a gate.
        ``beaver``: per gate every party opens 2 bits to every other."""
        circuit = Circuit()
        a, b, c = circuit.add_input_bus("x", 3)
        circuit.mark_output_bus("out", [circuit.and_(circuit.and_(a, b), c)])
        expected = {
            "ot": ([(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)], 288, 12),
            "beaver": ([(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)], 4, 0),
        }
        for mode, (order, bits, ots) in expected.items():
            engine = GMWEngine(3, ot=SimulatedObliviousTransfer(TOY_GROUP_64), mode=mode)
            shares = {"x": engine.share_input(5, 3, rng)}
            traffic = engine.evaluate(circuit, shares, rng).traffic
            assert list(traffic.pair_bits.items()) == [(pair, bits) for pair in order]
            assert traffic.sent_bits == traffic.received_bits == [2 * bits] * 3
            assert traffic.rounds == 2
            assert traffic.ot_count == ots

    def test_sent_received_balance(self, rng):
        circuit = adder_circuit()
        engine = GMWEngine(3)
        shares = {
            "a": engine.share_input(1, 8, rng),
            "b": engine.share_input(2, 8, rng),
        }
        traffic = engine.evaluate(circuit, shares, rng).traffic
        assert sum(traffic.sent_bits) == sum(traffic.received_bits)


class TestPairAttribution:
    """Block-granular traffic: the per-ordered-pair view must tile the
    per-party totals exactly, in both AND-gate backends — it is what the
    secure-async scheduler puts on the wire."""

    @pytest.mark.parametrize("mode", ["ot", "beaver"])
    @pytest.mark.parametrize("parties", [2, 3, 4])
    def test_pair_bits_sum_to_party_totals(self, parties, mode, rng):
        circuit = adder_circuit()
        engine = GMWEngine(parties, mode=mode)
        shares = {
            "a": engine.share_input(77, 8, rng),
            "b": engine.share_input(180, 8, rng),
        }
        result = engine.evaluate(circuit, shares, rng)
        traffic = result.traffic
        assert traffic.pair_bits, "an adder has AND gates, so bits must flow"
        for i in range(parties):
            sent = sum(bits for (src, _), bits in traffic.pair_bits.items() if src == i)
            received = sum(
                bits for (_, dst), bits in traffic.pair_bits.items() if dst == i
            )
            assert sent == traffic.sent_bits[i]
            assert received == traffic.received_bits[i]
        # no self-links, every pair is an ordered pair of distinct parties
        assert all(i != j for (i, j) in traffic.pair_bits)

    def test_pair_bytes_match_pair_bits(self, rng):
        circuit = adder_circuit()
        engine = GMWEngine(3)
        shares = {
            "a": engine.share_input(5, 8, rng),
            "b": engine.share_input(9, 8, rng),
        }
        traffic = engine.evaluate(circuit, shares, rng).traffic
        for pair, num_bytes in traffic.pair_bytes().items():
            assert num_bytes == traffic.pair_bits[pair] / 8.0

    def test_ot_mode_covers_all_ordered_pairs(self, rng):
        """OT-based AND gates touch every ordered pair of parties —
        exactly the quadratic cost structure of Figures 3-5."""
        circuit = adder_circuit()
        parties = 4
        engine = GMWEngine(parties)
        shares = {
            "a": engine.share_input(255, 8, rng),
            "b": engine.share_input(255, 8, rng),
        }
        traffic = engine.evaluate(circuit, shares, rng).traffic
        expected = {(i, j) for i in range(parties) for j in range(parties) if i != j}
        assert set(traffic.pair_bits) == expected
