"""Tests for ElGamal: homomorphism, re-randomization, Kurosawa packing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.dlog import BabyStepGiantStep
from repro.crypto.ec import P256
from repro.crypto.elgamal import ElGamal, ExponentialElGamal
from repro.crypto.group import GROUP_256, TOY_GROUP_64
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CryptoError, DecryptionError


@pytest.fixture
def eg(toy_elgamal):
    return toy_elgamal


class TestBasicElGamal:
    def test_encrypt_decrypt_group_element(self, rng):
        scheme = ElGamal(TOY_GROUP_64)
        kp = scheme.keygen(rng)
        message = TOY_GROUP_64.power_of_g(12345)
        ct = scheme.encrypt(kp.public, message, rng)
        assert scheme.decrypt(kp.secret, ct) == message

    def test_multiplicative_homomorphism(self, rng):
        scheme = ElGamal(TOY_GROUP_64)
        kp = scheme.keygen(rng)
        m1 = TOY_GROUP_64.power_of_g(3)
        m2 = TOY_GROUP_64.power_of_g(5)
        product = scheme.multiply(
            scheme.encrypt(kp.public, m1, rng), scheme.encrypt(kp.public, m2, rng)
        )
        assert scheme.decrypt(kp.secret, product) == TOY_GROUP_64.power_of_g(8)

    def test_ciphertexts_randomized(self, rng):
        scheme = ElGamal(TOY_GROUP_64)
        kp = scheme.keygen(rng)
        m = TOY_GROUP_64.power_of_g(7)
        assert scheme.encrypt(kp.public, m, rng) != scheme.encrypt(kp.public, m, rng)

    def test_wrong_key_garbles(self, rng):
        scheme = ElGamal(TOY_GROUP_64)
        kp1 = scheme.keygen(rng)
        kp2 = scheme.keygen(rng)
        m = TOY_GROUP_64.power_of_g(9)
        ct = scheme.encrypt(kp1.public, m, rng)
        assert scheme.decrypt(kp2.secret, ct) != m


class TestExponentialElGamal:
    @given(st.integers(min_value=-500, max_value=500))
    @settings(max_examples=scale(25))
    def test_int_roundtrip(self, value):
        rng = DeterministicRNG(value)
        eg = ExponentialElGamal(TOY_GROUP_64, dlog_half_width=512)
        kp = eg.keygen(rng)
        assert eg.decrypt_int(kp.secret, eg.encrypt_int(kp.public, value, rng)) == value

    def test_additive_homomorphism(self, eg, rng):
        kp = eg.keygen(rng)
        total = eg.add(
            eg.encrypt_int(kp.public, 100, rng), eg.encrypt_int(kp.public, -40, rng)
        )
        assert eg.decrypt_int(kp.secret, total) == 60

    def test_add_plain(self, eg, rng):
        kp = eg.keygen(rng)
        ct = eg.encrypt_int(kp.public, 10, rng)
        assert eg.decrypt_int(kp.secret, eg.add_plain(ct, 17)) == 27

    def test_sum_many(self, eg, rng):
        kp = eg.keygen(rng)
        values = [1, -2, 3, -4, 5, 100]
        cts = [eg.encrypt_int(kp.public, v, rng) for v in values]
        assert eg.decrypt_int(kp.secret, eg.sum_ciphertexts(cts)) == sum(values)

    def test_sum_empty_rejected(self, eg):
        with pytest.raises(CryptoError):
            eg.sum_ciphertexts([])

    def test_out_of_window_fails(self, eg, rng):
        # Appendix B: sums outside the dlog table are the failure event.
        kp = eg.keygen(rng)
        ct = eg.encrypt_int(kp.public, 513, rng)  # window is +-512
        with pytest.raises(DecryptionError):
            eg.decrypt_int(kp.secret, ct)


class TestReRandomization:
    """The §3 requirement: re-randomized keys decrypt after Adjust."""

    def test_rerandomized_key_roundtrip(self, eg, rng):
        kp = eg.keygen(rng)
        r = eg.group.random_scalar(rng)
        pk_r = eg.rerandomize_key(kp.public, r)
        ct = eg.encrypt_int(pk_r, 42, rng)
        assert eg.decrypt_int(kp.secret, eg.adjust(ct, r)) == 42

    def test_without_adjust_fails(self, eg, rng):
        kp = eg.keygen(rng)
        r = eg.group.random_scalar(rng)
        ct = eg.encrypt_int(eg.rerandomize_key(kp.public, r), 42, rng)
        with pytest.raises(DecryptionError):
            eg.decrypt_int(kp.secret, ct)

    def test_rerandomized_key_unlinkable_value(self, eg, rng):
        # g^(xr) is just another random-looking element; at minimum it
        # must differ from g^x for r != 1.
        kp = eg.keygen(rng)
        r = 2 + rng.randbelow(eg.group.order - 2)
        assert eg.rerandomize_key(kp.public, r) != kp.public

    def test_zero_neighbor_key_rejected(self, eg, rng):
        kp = eg.keygen(rng)
        with pytest.raises(CryptoError):
            eg.rerandomize_key(kp.public, 0)

    def test_homomorphism_survives_adjust(self, eg, rng):
        # The final protocol sums ciphertexts under a re-randomized key and
        # adjusts the aggregate — the whole §3.5 pipeline in miniature.
        kp = eg.keygen(rng)
        r = eg.group.random_scalar(rng)
        pk_r = eg.rerandomize_key(kp.public, r)
        cts = [eg.encrypt_int(pk_r, v, rng) for v in (5, 6, 7)]
        total = eg.sum_ciphertexts(cts)
        assert eg.decrypt_int(kp.secret, eg.adjust(total, r)) == 18


class TestOverOtherGroups:
    def test_over_256_bit_group(self, rng):
        eg = ExponentialElGamal(GROUP_256, dlog_half_width=64)
        kp = eg.keygen(rng)
        assert eg.decrypt_int(kp.secret, eg.encrypt_int(kp.public, -33, rng)) == -33

    def test_over_nist_curve(self, rng):
        # The paper's actual deployment group.
        eg = ExponentialElGamal(P256, dlog_half_width=16)
        kp = eg.keygen(rng)
        ct = eg.add(
            eg.encrypt_int(kp.public, 7, rng), eg.encrypt_int(kp.public, 8, rng)
        )
        assert eg.decrypt_int(kp.secret, ct) == 15


class TestBabyStepGiantStep:
    @given(st.integers(min_value=-300, max_value=300))
    @settings(max_examples=scale(25))
    def test_recovers_in_window(self, value):
        bsgs = BabyStepGiantStep(TOY_GROUP_64, half_width=300)
        assert bsgs.recover(TOY_GROUP_64.power_of_g(value)) == value

    def test_outside_window_fails(self):
        bsgs = BabyStepGiantStep(TOY_GROUP_64, half_width=10)
        with pytest.raises(DecryptionError):
            bsgs.recover(TOY_GROUP_64.power_of_g(5000))
