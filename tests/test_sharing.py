"""Tests for XOR secret sharing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError
from repro.sharing import (
    reconstruct_bit,
    reconstruct_value,
    share_bit,
    share_bits,
    share_value,
    xor_all,
)


class TestXorSharing:
    @given(st.integers(min_value=0, max_value=2**16 - 1), st.integers(min_value=1, max_value=8))
    @settings(max_examples=scale(50))
    def test_roundtrip(self, value, parties):
        rng = DeterministicRNG(value * 31 + parties)
        shares = share_value(value, 16, parties, rng)
        assert len(shares) == parties
        assert reconstruct_value(shares, 16) == value

    def test_single_party_share_is_value(self, rng):
        assert share_value(0xBEEF, 16, 1, rng) == [0xBEEF]

    def test_negative_value_twos_complement(self, rng):
        shares = share_value(-5, 8, 3, rng)
        assert reconstruct_value(shares, 8, signed=True) == -5
        assert reconstruct_value(shares, 8, signed=False) == 251

    def test_bit_sharing(self, rng):
        for bit in (0, 1):
            shares = share_bit(bit, 5, rng)
            assert reconstruct_bit(shares) == bit

    def test_bad_bit_rejected(self, rng):
        with pytest.raises(ProtocolError):
            share_bit(2, 3, rng)

    def test_bad_party_count(self, rng):
        with pytest.raises(ProtocolError):
            share_value(1, 8, 0, rng)

    def test_share_bits_matrix(self, rng):
        value = 0b1011
        matrix = share_bits(value, 4, 3, rng)
        assert len(matrix) == 4
        for t, row in enumerate(matrix):
            assert xor_all(row) == (value >> t) & 1

    def test_any_k_shares_uniform(self):
        """Information-theoretic hiding: dropping any one share leaves the
        remaining shares' XOR uniform across repeated sharings."""
        rng = DeterministicRNG("hiding")
        observed = set()
        for _ in range(200):
            shares = share_value(0xAA, 8, 3, rng)
            observed.add(xor_all(shares[:2]))
        # With 200 draws over an 8-bit space we expect wide coverage.
        assert len(observed) > 100

    def test_reconstruct_bit_validates(self):
        with pytest.raises(ProtocolError):
            reconstruct_bit([0, 2])

