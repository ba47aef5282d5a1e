"""Tests for the GMW engine: correctness, secrecy structure, accounting."""

import dataclasses
import inspect
import itertools

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
from repro.mpc.cost import bill_for
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
    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
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

    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    def test_and_truth_table_over_real_ddh_ot(self, parties):
        """One AND gate under public-key 1-out-of-4 OT, over every way of
        sharing both inputs: each pair's sender offers all four choices
        across the table, and the output shares must XOR to ``x AND y``."""
        circuit = Circuit()
        (x_wire,) = circuit.add_input_bus("x", 1)
        (y_wire,) = circuit.add_input_bus("y", 1)
        circuit.mark_output_bus("z", [circuit.and_(x_wire, y_wire)])
        ot = DDHObliviousTransfer(TOY_GROUP_64)
        engine = GMWEngine(parties, ot=ot)
        rng = DeterministicRNG(b"and-truth-table")
        sharings = list(itertools.product((0, 1), repeat=parties))
        for x_shares in sharings:
            for y_shares in sharings:
                result = engine.evaluate(circuit, {"x": x_shares, "y": y_shares}, rng)
                assert result.reveal("z") == xor_all(x_shares) & xor_all(y_shares)
        assert ot.stats.transfers == len(sharings) ** 2 * parties * (parties - 1) // 2

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

    def test_one_and_protocol(self):
        """OT is the only AND protocol: no evaluator, pool builder or bill
        takes a mode, and no pool carries one."""
        from repro.mpc.bitslice import BitslicedGMWEngine, OfflinePoolBuilder
        from repro.mpc.gmw import LanePools, PoolBuilder

        for api in (GMWEngine, PoolBuilder, BitslicedGMWEngine, OfflinePoolBuilder, bill_for):
            assert "mode" not in inspect.signature(api).parameters, api
        # both lane types build the one pool type
        assert "mode" not in {f.name for f in dataclasses.fields(LanePools)}
        with pytest.raises(TypeError):
            GMWEngine(3, mode="ot")

    @pytest.mark.parametrize(
        "api", ["GMWEngine", "PoolBuilder", "BitslicedGMWEngine", "OfflinePoolBuilder", "bill_for"]
    )
    def test_a_mode_keyword_is_refused(self, api):
        """Each entry point works with the arguments it takes and refuses a
        ``mode`` on top of them, rather than quietly ignoring it."""
        from repro.mpc import bitslice, gmw

        circuit = adder_circuit()
        calls = {
            "GMWEngine": (gmw.GMWEngine, (3,)),
            "PoolBuilder": (gmw.PoolBuilder, (circuit, 3)),
            "BitslicedGMWEngine": (bitslice.BitslicedGMWEngine, (3,)),
            "OfflinePoolBuilder": (bitslice.OfflinePoolBuilder, (circuit, 3)),
            "bill_for": (bill_for, ([circuit.stats()], 3)),
        }
        target, args = calls[api]
        target(*args)
        with pytest.raises(TypeError, match="mode"):
            target(*args, mode="ot")

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
        """One 1-out-of-4 OT per AND gate per unordered party pair."""
        circuit = adder_circuit()
        ands = circuit.stats().and_gates
        for parties in (2, 3, 5):
            engine = GMWEngine(parties)
            shares = {
                "a": engine.share_input(1, 8, rng),
                "b": engine.share_input(2, 8, rng),
            }
            result = engine.evaluate(circuit, shares, rng)
            assert result.traffic.ot_count == ands * parties * (parties - 1) // 2

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
        predicted = bill_for([circuit.stats()], parties, ot_bytes=ot.and_gate_bytes())
        assert result.traffic.ot_count == predicted.ots
        pairs = parties * (parties - 1) // 2
        assert sum(result.traffic.sent_bits) == pairs * sum(predicted.pair_bits)

    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    def test_cost_model_matches_transcript_counts(self, parties, rng):
        """Every bill line cross-checked against what the engine
        actually did — the bit-sliced offline phase sizes its randomness
        pools from these counts, so drift here would mis-provision pools
        (caught as ``OfflinePoolExhaustedError``) rather than just skew a
        projection."""
        circuit = adder_circuit()
        engine = GMWEngine(parties)
        predicted = bill_for([circuit.stats()], parties, ot_bytes=engine.ot.and_gate_bytes())
        shares = {
            "a": engine.share_input(9, 8, rng),
            "b": engine.share_input(5, 8, rng),
        }
        traffic = engine.evaluate(circuit, shares, rng).traffic
        stats = circuit.stats()
        assert predicted.and_gates == stats.and_gates
        assert traffic.ot_count == predicted.ots
        assert traffic.rounds == predicted.and_rounds
        for party in range(parties):
            assert traffic.sent_bits[party] == predicted.sent_bits(party)
            assert traffic.received_bits[party] == predicted.received_bits(party)
        assert 8 * predicted.party_sent_bytes * parties == sum(traffic.sent_bits)
        assert predicted.ots_per_party == (parties - 1) * stats.and_gates
        # the reported traffic is closed-form; the backend's own record,
        # one per transfer4 call, is the gate-for-gate count behind it
        backend = engine.ot.stats
        assert backend.transfers == predicted.ots
        assert 8 * backend.total_bytes == sum(traffic.sent_bits)

    def test_pair_traffic_pinned_by_hand(self, rng):
        """The closed form is the only traffic source in both engines, so
        its per-pair attribution, insertion order and rounds are pinned
        here as literals worked out from the per-gate rule: two chained AND
        gates, three parties, TOY_GROUP_64 (8-byte elements). Per gate and
        pair ``{i < j}`` the sender puts A and four padded bits, 8 + 4
        bytes = 96 bits, on ``i -> j`` and the receiver B, 8 bytes = 64
        bits, on ``j -> i``, visited pair by pair: ``(i, j)`` then
        ``(j, i)``."""
        circuit = Circuit()
        a, b, c = circuit.add_input_bus("x", 3)
        circuit.mark_output_bus("out", [circuit.and_(circuit.and_(a, b), c)])
        engine = GMWEngine(3, ot=SimulatedObliviousTransfer(TOY_GROUP_64))
        shares = {"x": engine.share_input(5, 3, rng)}
        traffic = engine.evaluate(circuit, shares, rng).traffic
        assert list(traffic.pair_bits.items()) == [
            ((0, 1), 192), ((1, 0), 128),
            ((0, 2), 192), ((2, 0), 128),
            ((1, 2), 192), ((2, 1), 128),
        ]
        assert traffic.sent_bits == [384, 320, 256]
        assert traffic.received_bits == [256, 320, 384]
        assert traffic.rounds == 2
        assert traffic.ot_count == 6

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
    per-party totals exactly — it is what the secure engine hands its bus
    to put on the wire."""

    @pytest.mark.parametrize("parties", [2, 3, 4, 5])
    def test_pair_bits_sum_to_party_totals(self, parties, rng):
        circuit = adder_circuit()
        engine = GMWEngine(parties)
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
        """OT-based AND gates put bytes on both directions of every pair
        of parties — exactly the quadratic cost structure of Figures 3-5."""
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
