"""Tests for Schnorr groups and the group interface."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.group import (
    GROUP_160,
    GROUP_256,
    GROUP_512,
    TOY_GROUP_64,
    SchnorrGroup,
    default_group,
)
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CryptoError

ALL_GROUPS = [TOY_GROUP_64, GROUP_160, GROUP_256, GROUP_512]


class TestGroupLaws:
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_generator_has_order_q(self, group):
        assert group.exp(group.generator, group.order) == group.identity

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_associativity_and_identity(self, group):
        rng = DeterministicRNG(group.name)
        a = group.power_of_g(group.random_scalar(rng))
        b = group.power_of_g(group.random_scalar(rng))
        c = group.power_of_g(group.random_scalar(rng))
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, group.identity) == a

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_inverse(self, group):
        rng = DeterministicRNG(group.name)
        a = group.power_of_g(group.random_scalar(rng))
        assert group.mul(a, group.inv(a)) == group.identity

    def test_exponent_addition_homomorphism(self):
        group = TOY_GROUP_64
        rng = DeterministicRNG(0)
        x = group.random_scalar(rng)
        y = group.random_scalar(rng)
        assert group.mul(group.power_of_g(x), group.power_of_g(y)) == group.power_of_g(
            (x + y) % group.order
        )

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=scale(40))
    def test_exp_reduces_mod_order(self, e):
        group = TOY_GROUP_64
        assert group.power_of_g(e) == group.power_of_g(e + group.order)


class TestSerialization:
    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_roundtrip(self, group):
        rng = DeterministicRNG(group.name + "ser")
        element = group.power_of_g(group.random_scalar(rng))
        data = group.element_to_bytes(element)
        assert len(data) == group.element_size_bytes
        assert group.element_from_bytes(data) == element

    def test_bad_length_rejected(self):
        with pytest.raises(CryptoError):
            TOY_GROUP_64.element_from_bytes(b"\x01")

    def test_non_element_rejected(self):
        # p-1 is not a quadratic residue for a safe prime group
        bad = (TOY_GROUP_64.p - 1).to_bytes(TOY_GROUP_64.element_size_bytes, "big")
        with pytest.raises(CryptoError):
            TOY_GROUP_64.element_from_bytes(bad)


class TestPickle:
    """A group crosses a process boundary as its four parameters: the
    fixed-base table it may have built stays behind."""

    @pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
    def test_named_group_unpickles_as_the_module_instance(self, group):
        group.power_of_g(12345)  # builds the table (278 KB pickled at 256 bits)
        data = pickle.dumps(group)
        assert len(data) < 1024
        assert pickle.loads(data) is group

    def test_ad_hoc_group_round_trips_by_value(self):
        group = SchnorrGroup(TOY_GROUP_64.p, TOY_GROUP_64.order, 16, name="ad-hoc")
        expected = group.power_of_g(12345)
        data = pickle.dumps(group)
        assert len(data) < 1024
        loaded = pickle.loads(data)
        assert loaded is not group
        assert (loaded.p, loaded.order, loaded.generator, loaded.name) == (
            group.p, group.order, 16, "ad-hoc",
        )  # fmt: skip
        assert loaded.power_of_g(12345) == expected

    def test_a_name_alone_does_not_select_the_module_instance(self):
        impostor = SchnorrGroup(TOY_GROUP_64.p, TOY_GROUP_64.order, 16, name="toy-64")
        loaded = pickle.loads(pickle.dumps(impostor))
        assert loaded is not TOY_GROUP_64 and loaded.generator == 16


class TestValidation:
    def test_is_element_accepts_generator_powers(self):
        rng = DeterministicRNG("val")
        for _ in range(10):
            e = TOY_GROUP_64.power_of_g(TOY_GROUP_64.random_scalar(rng))
            assert TOY_GROUP_64.is_element(e)

    def test_is_element_rejects_non_residue(self):
        assert not TOY_GROUP_64.is_element(TOY_GROUP_64.p - 1)

    def test_bad_safe_prime_rejected(self):
        with pytest.raises(CryptoError):
            SchnorrGroup(p=23, q=7, g=2)  # 23 != 2*7+1

    def test_bad_generator_rejected(self):
        # p=23, q=11 is a safe-prime pair; 5 is not a QR mod 23
        with pytest.raises(CryptoError):
            SchnorrGroup(p=23, q=11, g=5)

    def test_random_scalar_nonzero(self):
        rng = DeterministicRNG("scalar")
        for _ in range(50):
            s = TOY_GROUP_64.random_scalar(rng)
            assert 1 <= s < TOY_GROUP_64.order


class TestDefaults:
    def test_default_group_is_ddh_sized(self):
        group = default_group()
        assert group.order.bit_length() >= 250

    def test_hash_to_scalar_in_range(self):
        for data in (b"", b"a", b"x" * 1000):
            s = TOY_GROUP_64.hash_to_scalar(data)
            assert 0 <= s < TOY_GROUP_64.order

    def test_div(self):
        rng = DeterministicRNG("div")
        g = TOY_GROUP_64
        a = g.power_of_g(g.random_scalar(rng))
        b = g.power_of_g(g.random_scalar(rng))
        assert g.mul(g.div(a, b), b) == a
