"""Tests for oblivious transfer: base OT, simulated OT, IKNP extension."""

import itertools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.elgamal import CountingGroup
from repro.crypto.group import GROUP_256, TOY_GROUP_64
from repro.crypto.ot import DDHObliviousTransfer, SimulatedObliviousTransfer
from repro.crypto.ot_extension import IKNPOTExtension
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError


def backends():
    return [
        DDHObliviousTransfer(TOY_GROUP_64),
        SimulatedObliviousTransfer(TOY_GROUP_64),
        IKNPOTExtension(DDHObliviousTransfer(TOY_GROUP_64), kappa=32, batch_size=64),
    ]


class TestCorrectness:
    @pytest.mark.parametrize("ot", backends(), ids=lambda o: type(o).__name__)
    def test_byte_messages(self, ot, rng):
        for choice in (0, 1):
            m0, m1 = b"message-zero!", b"message-one!!"
            assert ot.transfer(m0, m1, choice, rng) == (m1 if choice else m0)

    @pytest.mark.parametrize("ot", backends(), ids=lambda o: type(o).__name__)
    def test_bit_transfers_exhaustive(self, ot, rng):
        for b0 in (0, 1):
            for b1 in (0, 1):
                for c in (0, 1):
                    got = ot.transfer(bytes([b0]), bytes([b1]), c, rng)
                    assert got == bytes([b1 if c else b0])

    @pytest.mark.parametrize("ot", backends(), ids=lambda o: type(o).__name__)
    def test_one_of_four_every_choice(self, ot, rng):
        messages = [b"message-zero!", b"message-one!!", b"message-two!!", b"message-3!!!!"]
        for choice in range(4):
            assert ot.transfer4(messages, choice, rng) == messages[choice]

    @pytest.mark.parametrize("ot", backends(), ids=lambda o: type(o).__name__)
    def test_one_of_four_bit_messages_exhaustive(self, ot, rng):
        # every table a GMW AND sender can offer, under every choice
        for table in itertools.product((0, 1), repeat=4):
            messages = [bytes([bit]) for bit in table]
            for choice in range(4):
                assert ot.transfer4(messages, choice, rng) == messages[choice]

    @pytest.mark.parametrize("ot", backends(), ids=lambda o: type(o).__name__)
    @pytest.mark.parametrize(
        "messages,choice",
        [
            ([b"a", b"b"], 0),
            ([b"a", b"b", b"c", b"d", b"e"], 0),
            ([b"a", b"b", b"cc", b"d"], 0),
            ([b"a", b"b", b"c", b"d"], 4),
            ([b"a", b"b", b"c", b"d"], -1),
        ],
        ids=["two-messages", "five-messages", "ragged", "choice-4", "choice-minus-1"],
    )
    def test_one_of_four_malformed_rejected(self, ot, messages, choice, rng):
        with pytest.raises(ProtocolError):
            ot.transfer4(messages, choice, rng)

    @pytest.mark.parametrize("ot", backends(), ids=lambda o: type(o).__name__)
    def test_length_mismatch_rejected(self, ot, rng):
        with pytest.raises(ProtocolError):
            ot.transfer(b"ab", b"abc", 0, rng)

    @pytest.mark.parametrize("ot", backends(), ids=lambda o: type(o).__name__)
    def test_bad_choice_rejected(self, ot, rng):
        with pytest.raises(ProtocolError):
            ot.transfer(b"a", b"b", 2, rng)

    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    @settings(max_examples=scale(20))
    def test_ddh_ot_arbitrary_messages(self, m0, m1):
        if len(m0) != len(m1):
            m = min(len(m0), len(m1))
            m0, m1 = m0[:m], m1[:m]
        ot = DDHObliviousTransfer(TOY_GROUP_64)
        rng = DeterministicRNG(m0 + m1)
        assert ot.transfer(m0, m1, 0, rng) == m0
        assert ot.transfer(m0, m1, 1, rng) == m1


class TestAccounting:
    def test_stats_accumulate(self, rng):
        ot = DDHObliviousTransfer(TOY_GROUP_64)
        for _ in range(5):
            ot.transfer(b"x", b"y", 1, rng)
        assert ot.stats.transfers == 5
        assert ot.stats.sender_bytes == 5 * ot.sender_bytes_per_transfer(1)
        assert ot.stats.receiver_bytes == 5 * ot.receiver_bytes_per_transfer(1)

    def test_simulated_reports_real_protocol_bytes(self):
        real = DDHObliviousTransfer(TOY_GROUP_64)
        fake = SimulatedObliviousTransfer(TOY_GROUP_64)
        for n in (1, 13, 100):
            assert fake.sender_bytes_per_transfer(n) == real.sender_bytes_per_transfer(n)
            assert fake.receiver_bytes_per_transfer(n) == real.receiver_bytes_per_transfer(n)
            assert fake.sender_bytes_per_transfer4(n) == real.sender_bytes_per_transfer4(n)
            assert fake.receiver_bytes_per_transfer4(n) == real.receiver_bytes_per_transfer4(n)

    @pytest.mark.parametrize("group", [TOY_GROUP_64, GROUP_256], ids=lambda g: g.name)
    def test_simulated_one_of_four_stats_equal_the_real_protocol(self, group, rng):
        real = DDHObliviousTransfer(group)
        fake = SimulatedObliviousTransfer(group)
        for choice in (0, 1, 2, 3, 3, 1):
            for ot in (real, fake):
                ot.transfer4([b"\x00", b"\x01", b"\x01", b"\x00"], choice, rng)
        assert fake.stats.transfers == real.stats.transfers == 6
        assert fake.stats.sender_bytes == real.stats.sender_bytes
        assert fake.stats.receiver_bytes == real.stats.receiver_bytes
        # Chou-Orlandi: A and four padded bytes one way, B the other
        element = group.element_size_bytes
        assert fake.and_gate_bytes() == real.and_gate_bytes() == (element + 4, element)

    def test_one_of_four_is_cheaper_than_two_one_of_two(self):
        for ot in (DDHObliviousTransfer(TOY_GROUP_64), DDHObliviousTransfer(GROUP_256)):
            four = sum(ot.and_gate_bytes())
            two = 2 * (ot.sender_bytes_per_transfer(1) + ot.receiver_bytes_per_transfer(1))
            assert four == two - 2 * ot.group.element_size_bytes

    def test_sender_cost_grows_with_message(self):
        ot = DDHObliviousTransfer(TOY_GROUP_64)
        assert ot.sender_bytes_per_transfer(100) > ot.sender_bytes_per_transfer(1)

    def test_receiver_cost_message_independent(self):
        ot = DDHObliviousTransfer(TOY_GROUP_64)
        assert ot.receiver_bytes_per_transfer(1) == ot.receiver_bytes_per_transfer(1000)

    @pytest.mark.parametrize("choice", [0, 1])
    def test_ddh_ot_costs_five_exponentiations(self, rng, choice):
        # Chou-Orlandi: g^a, g^b, B^a, (B/A)^a, A^b -- the per-OT price the
        # OT-backend ablation table is checked against.
        group = CountingGroup(TOY_GROUP_64)
        ot = DDHObliviousTransfer(group)
        for _ in range(7):
            ot.transfer(b"x", b"y", choice, rng)
        assert group.exp_count == 5 * 7

    @pytest.mark.parametrize("choice", [0, 1, 2, 3])
    def test_ddh_one_of_four_costs_seven_exponentiations(self, rng, choice):
        # g^a, g^b, (B/A^i)^a for four i, A^b; A^c and A^i are products
        group = CountingGroup(TOY_GROUP_64)
        ot = DDHObliviousTransfer(group)
        for _ in range(7):
            ot.transfer4([b"w", b"x", b"y", b"z"], choice, rng)
        assert group.exp_count == 7 * 7

    def test_simulated_ot_does_no_public_key_work(self, rng):
        group = CountingGroup(TOY_GROUP_64)
        ot = SimulatedObliviousTransfer(group)
        for i in range(7):
            assert ot.transfer(b"x", b"y", i & 1, rng) == (b"y" if i & 1 else b"x")
            assert ot.transfer4([b"w", b"x", b"y", b"z"], i % 4, rng) == b"wxyz"[i % 4 : i % 4 + 1]
        assert group.exp_count == 0

    def test_simulated_one_of_four_draws_no_randomness(self):
        rng = DeterministicRNG(b"silent")
        untouched = DeterministicRNG(b"silent")
        SimulatedObliviousTransfer(TOY_GROUP_64).transfer4([b"a", b"b", b"c", b"d"], 2, rng)
        assert rng.randbytes(32) == untouched.randbytes(32)


class TestIKNPExtension:
    def test_base_ots_amortized(self, rng):
        base = DDHObliviousTransfer(TOY_GROUP_64)
        ext = IKNPOTExtension(base, kappa=16, batch_size=128)
        for i in range(200):
            ext.transfer(bytes([i & 1]), bytes([(i >> 1) & 1]), i % 2, rng)
        # 200 transfers crossed one batch boundary: 2 extension phases,
        # each costing kappa base OTs.
        assert ext.extension_phases == 2
        assert ext.base_ot_count == 32
        assert base.stats.transfers == 32

    def test_public_key_work_is_kappa_base_ots_per_phase(self, rng):
        group = CountingGroup(TOY_GROUP_64)
        ext = IKNPOTExtension(DDHObliviousTransfer(group), kappa=16, batch_size=128)
        for i in range(100):
            ext.transfer(bytes([i & 1]), bytes([(i >> 1) & 1]), i % 2, rng)
        # 100 extended OTs fit in one batch: only the kappa base OTs pay
        # exponentiations, five each.
        assert ext.extension_phases == 1
        assert group.exp_count == 5 * ext.kappa

    def test_extension_bytes_cheaper_than_base(self):
        base = DDHObliviousTransfer(TOY_GROUP_64)
        ext = IKNPOTExtension(base, kappa=16, batch_size=64)
        assert ext.sender_bytes_per_transfer(1) < base.sender_bytes_per_transfer(1)

    def test_one_of_four_takes_two_pooled_ots(self, rng):
        ext = IKNPOTExtension(DDHObliviousTransfer(TOY_GROUP_64), kappa=16, batch_size=64)
        ext.ensure(64, rng)
        for i in range(32):
            ext.transfer4([b"\x00", b"\x01", b"\x01", b"\x00"], i % 4, rng)
        assert ext.pooled == 0
        assert ext.extension_phases == 1

    def test_one_of_four_costs_two_bit_ots_of_bytes(self):
        # the extension regime neither gains nor loses from 1-out-of-4
        ext = IKNPOTExtension(DDHObliviousTransfer(TOY_GROUP_64), kappa=128, batch_size=64)
        assert ext.sender_bytes_per_transfer4(1) == 2 * ext.sender_bytes_per_transfer(1)
        assert ext.receiver_bytes_per_transfer4(1) == 2 * ext.receiver_bytes_per_transfer(1)

    def test_small_kappa_rejected(self):
        with pytest.raises(ProtocolError):
            IKNPOTExtension(DDHObliviousTransfer(TOY_GROUP_64), kappa=4)

    @pytest.mark.parametrize("batch_size", [0, -1, -64])
    def test_empty_batch_rejected_not_hung(self, batch_size):
        """A batch of no OTs would never fill the pool: ``transfer``
        indexed an empty pool and ``ensure`` looped forever. The thread
        bounds the test should the refusal regress."""
        outcome = []

        def provision():
            try:
                ext = IKNPOTExtension(
                    DDHObliviousTransfer(TOY_GROUP_64), kappa=16, batch_size=batch_size
                )
                ext.ensure(1, DeterministicRNG(b"empty-batch"))
                outcome.append(None)
            except Exception as exc:  # noqa: BLE001 - reported below
                outcome.append(exc)

        worker = threading.Thread(target=provision, daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "ensure() never returned"
        (error,) = outcome
        assert isinstance(error, ProtocolError)
        assert "batch_size" in str(error)

    def test_long_messages(self, rng):
        ext = IKNPOTExtension(DDHObliviousTransfer(TOY_GROUP_64), kappa=16, batch_size=8)
        m0, m1 = b"A" * 100, b"B" * 100
        assert ext.transfer(m0, m1, 0, rng) == m0
        assert ext.transfer(m0, m1, 1, rng) == m1
