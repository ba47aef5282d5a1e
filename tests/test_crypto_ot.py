"""Tests for oblivious transfer: base OT, simulated OT, IKNP extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.elgamal import CountingGroup
from repro.crypto.group import TOY_GROUP_64
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
                    assert ot.transfer_bit(b0, b1, c, rng) == (b1 if c else b0)

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

    def test_simulated_ot_does_no_public_key_work(self, rng):
        group = CountingGroup(TOY_GROUP_64)
        ot = SimulatedObliviousTransfer(group)
        for i in range(7):
            assert ot.transfer(b"x", b"y", i & 1, rng) == (b"y" if i & 1 else b"x")
        assert group.exp_count == 0


class TestIKNPExtension:
    def test_base_ots_amortized(self, rng):
        base = DDHObliviousTransfer(TOY_GROUP_64)
        ext = IKNPOTExtension(base, kappa=16, batch_size=128)
        for i in range(200):
            ext.transfer_bit(i & 1, (i >> 1) & 1, i % 2, rng)
        # 200 transfers crossed one batch boundary: 2 extension phases,
        # each costing kappa base OTs.
        assert ext.extension_phases == 2
        assert ext.base_ot_count == 32
        assert base.stats.transfers == 32

    def test_public_key_work_is_kappa_base_ots_per_phase(self, rng):
        group = CountingGroup(TOY_GROUP_64)
        ext = IKNPOTExtension(DDHObliviousTransfer(group), kappa=16, batch_size=128)
        for i in range(100):
            ext.transfer_bit(i & 1, (i >> 1) & 1, i % 2, rng)
        # 100 extended OTs fit in one batch: only the kappa base OTs pay
        # exponentiations, five each.
        assert ext.extension_phases == 1
        assert group.exp_count == 5 * ext.kappa

    def test_extension_bytes_cheaper_than_base(self):
        base = DDHObliviousTransfer(TOY_GROUP_64)
        ext = IKNPOTExtension(base, kappa=16, batch_size=64)
        assert ext.sender_bytes_per_transfer(1) < base.sender_bytes_per_transfer(1)

    def test_small_kappa_rejected(self):
        with pytest.raises(ProtocolError):
            IKNPOTExtension(DDHObliviousTransfer(TOY_GROUP_64), kappa=4)

    def test_long_messages(self, rng):
        ext = IKNPOTExtension(DDHObliviousTransfer(TOY_GROUP_64), kappa=16, batch_size=8)
        m0, m1 = b"A" * 100, b"B" * 100
        assert ext.transfer(m0, m1, 0, rng) == m0
        assert ext.transfer(m0, m1, 1, rng) == m1
