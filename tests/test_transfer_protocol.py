"""Tests for the full L-bit message transfer protocol (§3.5)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto import modexp
from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.keys import SchnorrSigner
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CryptoError, DecryptionError, ProtocolError
from repro.sharing import share_value
from repro.transfer.certificates import (
    BlockCertificate,
    MemberKeys,
    build_certificate,
    generate_member_keys,
    verify_certificate,
)
from repro.transfer.protocol import (
    AggregatedShare,
    EncryptedSubshare,
    MessageTransferProtocol,
    TransferTraffic,
)

BITS = 8
BLOCK = 3


@pytest.fixture
def setup(toy_elgamal, rng):
    signer = SchnorrSigner(TOY_GROUP_64)
    tp_key = signer.keygen(rng)
    members = [generate_member_keys(toy_elgamal, BITS, rng) for _ in range(BLOCK)]
    neighbor_key = TOY_GROUP_64.random_scalar(rng)
    cert = build_certificate(
        toy_elgamal, signer, tp_key, owner=5, edge_slot=1,
        member_keys=members, neighbor_key=neighbor_key, rng=rng,
    )
    return signer, tp_key, members, neighbor_key, cert


class TestEndToEnd:
    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=scale(15), deadline=None)
    def test_any_message_survives(self, message):
        rng = DeterministicRNG(message)
        eg = ExponentialElGamal(TOY_GROUP_64, dlog_half_width=512)
        signer = SchnorrSigner(TOY_GROUP_64)
        tp_key = signer.keygen(rng)
        members = [generate_member_keys(eg, BITS, rng) for _ in range(BLOCK)]
        nk = TOY_GROUP_64.random_scalar(rng)
        cert = build_certificate(eg, signer, tp_key, 0, 0, members, nk, rng)
        proto = MessageTransferProtocol(eg, BITS, noise_alpha=0.5)
        shares = share_value(message, BITS, BLOCK, rng)
        result = proto.execute(shares, cert, nk, members, rng)
        assert result.reconstruct(BITS) == message

    def test_no_noise_mode(self, toy_elgamal, setup, rng):
        _, _, members, nk, cert = setup
        proto = MessageTransferProtocol(toy_elgamal, BITS, noise_alpha=None)
        shares = share_value(123, BITS, BLOCK, rng)
        result = proto.execute(shares, cert, nk, members, rng)
        assert result.reconstruct(BITS) == 123
        assert all(n == 0 for row in result.noise_terms for n in row)

    def test_receiver_shares_fresh(self, toy_elgamal, setup, rng):
        _, _, members, nk, cert = setup
        proto = MessageTransferProtocol(toy_elgamal, BITS, noise_alpha=0.5)
        shares = share_value(55, BITS, BLOCK, rng)
        result = proto.execute(shares, cert, nk, members, rng)
        assert result.receiver_shares != shares  # overwhelmingly likely

    def test_block_size_mismatch(self, toy_elgamal, setup, rng):
        _, _, members, nk, cert = setup
        proto = MessageTransferProtocol(toy_elgamal, BITS, noise_alpha=0.5)
        with pytest.raises(ProtocolError):
            proto.execute([1, 2], cert, nk, members, rng)

    def test_certificate_width_mismatch(self, toy_elgamal, setup, rng):
        _, _, members, nk, cert = setup
        proto = MessageTransferProtocol(toy_elgamal, 16, noise_alpha=0.5)
        with pytest.raises(ProtocolError):
            proto.sender_encrypt(1, cert, rng)

    def test_dlog_window_failure_injection(self, setup, rng):
        """Appendix B failure event: a tiny dlog table makes heavy noise
        overflow the window and the transfer fails detectably."""
        _, _, _, _, _ = setup
        tiny = ExponentialElGamal(TOY_GROUP_64, dlog_half_width=3)
        signer = SchnorrSigner(TOY_GROUP_64)
        tp_key = signer.keygen(rng)
        members = [generate_member_keys(tiny, BITS, rng) for _ in range(BLOCK)]
        nk = TOY_GROUP_64.random_scalar(rng)
        cert = build_certificate(tiny, signer, tp_key, 0, 0, members, nk, rng)
        proto = MessageTransferProtocol(tiny, BITS, noise_alpha=0.95)
        failures = 0
        for trial in range(10):
            shares = share_value(trial, BITS, BLOCK, rng)
            try:
                proto.execute(shares, cert, nk, members, rng)
            except DecryptionError:
                failures += 1
        assert failures > 0


@pytest.fixture(params=["libcrypto", "pow"])
def either_kernel(request):
    """Both modexp kernels: the batch path must refuse a malformed vector
    itself, whichever loop would have run under it."""
    if request.param == "pow":
        with mock.patch.object(modexp, "_LIB", None):
            yield
    else:
        yield


def resized(vector, width):
    """``vector`` cut or padded (with its own last element) to ``width``."""
    return (list(vector) + [vector[-1]] * width)[:width]


@pytest.mark.usefixtures("either_kernel")
class TestMalformedRoleInputs:
    """A per-bit vector of the wrong width is a ``ProtocolError`` at the
    role that receives it: a short one never reaches an index, a long one
    is never silently cut, and nothing is drawn before the refusal."""

    WIDTHS = [0, 1, BITS - 1, BITS + 1, 2 * BITS]

    @pytest.fixture
    def transcript(self, toy_elgamal, setup, rng):
        _, _, members, nk, cert = setup
        proto = MessageTransferProtocol(toy_elgamal, BITS, noise_alpha=0.5)
        bundles = [proto.sender_encrypt(s, cert, rng) for s in share_value(9, BITS, BLOCK, rng)]
        aggregates, _ = proto.aggregate(bundles, rng)
        return proto, bundles, aggregates, proto.adjust(aggregates, nk), members, cert

    @pytest.mark.parametrize("width", WIDTHS)
    def test_receiver_refuses_a_short_or_long_aggregate(self, transcript, width):
        proto, _, _, adjusted, members, _ = transcript
        bad = AggregatedShare(c1=adjusted[0].c1, c2=resized(adjusted[0].c2, width))
        with pytest.raises(ProtocolError, match=f"holds {width} elements"):
            proto.receiver_decrypt(bad, members[0])
        assert proto.receiver_decrypt(adjusted[0], members[0]) >= 0

    @pytest.mark.parametrize("width", WIDTHS)
    def test_v_refuses_a_short_or_long_aggregate(self, transcript, setup, width):
        proto, _, aggregates, _, _, _ = transcript
        bad = list(aggregates)
        bad[1] = AggregatedShare(c1=bad[1].c1, c2=resized(bad[1].c2, width))
        with pytest.raises(ProtocolError, match=f"holds {width} elements"):
            proto.adjust(bad, setup[3])

    @pytest.mark.parametrize("width", WIDTHS)
    def test_u_refuses_a_ragged_subshare_matrix(self, transcript, rng, width):
        proto, bundles, _, _, _, _ = transcript
        ragged = [list(row) for row in bundles]
        ragged[2][1] = EncryptedSubshare(c1=ragged[2][1].c1, c2=resized(ragged[2][1].c2, width))
        before = rng.getstate()
        with pytest.raises(ProtocolError, match=f"holds {width} elements"):
            proto.aggregate(ragged, rng)
        with pytest.raises(ProtocolError, match="square"):
            proto.aggregate([row[:-1] for row in bundles], rng)
        with pytest.raises(ProtocolError, match="square"):
            proto.aggregate(bundles[:-1], rng)
        assert rng.getstate() == before

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("row", [1, 2])
    def test_sender_refuses_a_key_row_of_the_wrong_width(self, transcript, rng, row, width):
        proto, _, _, _, _, cert = transcript
        keys = [list(member) for member in cert.keys]
        keys[row] = resized(keys[row], width)
        bad = BlockCertificate(cert.owner, cert.edge_slot, keys, cert.signature)
        assert bad.bits == BITS  # the first row alone would pass
        before = rng.getstate()
        with pytest.raises(ProtocolError, match=f"holds {width} elements"):
            proto.sender_encrypt(5, bad, rng)
        assert rng.getstate() == before

    def test_execute_refuses_a_missing_receiver_and_a_short_key_set(self, transcript, setup, rng):
        proto, _, _, _, members, cert = transcript
        before = rng.getstate()
        with pytest.raises(ProtocolError, match="equal size"):
            proto.execute([1, 2, 3], cert, setup[3], members[:-1], rng)
        assert rng.getstate() == before  # refused before any role ran
        short = MemberKeys(pairs=members[0].pairs[:-1])
        with pytest.raises(ProtocolError, match="key count"):
            proto.execute([1, 2, 3], cert, setup[3], [short] + members[1:], rng)


class TestEdgePrivacyMechanics:
    def test_wrong_neighbor_key_breaks_decryption(self, toy_elgamal, setup, rng):
        """Without the right Adjust scalar, the sums are garbage — the
        certificate binds the transfer to the edge owner."""
        _, _, members, nk, cert = setup
        proto = MessageTransferProtocol(toy_elgamal, BITS, noise_alpha=None)
        shares = share_value(77, BITS, BLOCK, rng)
        bundles = [proto.sender_encrypt(s, cert, rng) for s in shares]
        aggregates, _ = proto.aggregate(bundles, rng)
        wrong_key = nk + 1
        adjusted = proto.adjust(aggregates, wrong_key)
        garbled = 0
        for agg, member in zip(adjusted, members):
            try:
                proto.receiver_decrypt(agg, member)
            except DecryptionError:
                garbled += 1
        assert garbled > 0

    def test_aggregates_contain_no_sender_bytes(self, toy_elgamal, setup, rng):
        """Strawman #2's recognizability leak is closed: the ciphertext
        halves forwarded to B_v differ from everything the senders sent."""
        _, _, members, nk, cert = setup
        group = toy_elgamal.group
        proto = MessageTransferProtocol(toy_elgamal, BITS, noise_alpha=0.5)
        shares = share_value(200, BITS, BLOCK, rng)
        bundles = [proto.sender_encrypt(s, cert, rng) for s in shares]
        sent = set()
        for bundle in bundles:
            for sub in bundle:
                sent.add(group.element_to_bytes(sub.c1))
                sent.update(group.element_to_bytes(c) for c in sub.c2)
        aggregates, _ = proto.aggregate(bundles, rng)
        adjusted = proto.adjust(aggregates, nk)
        forwarded = set()
        for agg in adjusted:
            forwarded.add(group.element_to_bytes(agg.c1))
            forwarded.update(group.element_to_bytes(c) for c in agg.c2)
        assert not (sent & forwarded)

    def test_noise_terms_even(self, toy_elgamal, setup, rng):
        _, _, members, nk, cert = setup
        proto = MessageTransferProtocol(toy_elgamal, BITS, noise_alpha=0.7)
        shares = share_value(14, BITS, BLOCK, rng)
        result = proto.execute(shares, cert, nk, members, rng)
        assert all(n % 2 == 0 for row in result.noise_terms for n in row)


class TestCertificates:
    def test_signature_verifies(self, toy_elgamal, setup):
        signer, tp_key, _, _, cert = setup
        verify_certificate(toy_elgamal, signer, tp_key.public, cert)

    def test_tampered_certificate_rejected(self, toy_elgamal, setup, rng):
        signer, tp_key, members, nk, cert = setup
        tampered = type(cert)(
            owner=cert.owner,
            edge_slot=cert.edge_slot,
            keys=[list(reversed(row)) for row in cert.keys],
            signature=cert.signature,
        )
        with pytest.raises(CryptoError):
            verify_certificate(toy_elgamal, signer, tp_key.public, tampered)

    def test_certificate_keys_rerandomized(self, toy_elgamal, setup):
        """Certificate keys must differ from the members' raw public keys
        (otherwise senders could identify receivers, §3.4)."""
        _, _, members, _, cert = setup
        raw = {
            toy_elgamal.group.element_to_bytes(pk)
            for member in members
            for pk in member.publics
        }
        randomized = {
            toy_elgamal.group.element_to_bytes(pk)
            for row in cert.keys
            for pk in row
        }
        assert not (raw & randomized)


class TestTrafficProfile:
    """§5.3 role asymmetry: u quadratic, members linear, receivers flat."""

    def test_roles_formula(self):
        t = TransferTraffic(element_bytes=9, block_size=4, message_bits=8)
        assert t.subshare_bytes == 9 * 9
        assert t.node_u_received_bytes == 16 * t.subshare_bytes
        assert t.sender_member_bytes == 4 * t.subshare_bytes
        assert t.receiver_member_bytes == t.subshare_bytes

    def test_u_role_quadratic_in_block(self):
        small = TransferTraffic(element_bytes=9, block_size=8, message_bits=12)
        large = TransferTraffic(element_bytes=9, block_size=20, message_bits=12)
        assert large.node_u_received_bytes / small.node_u_received_bytes == pytest.approx(
            (20 / 8) ** 2
        )

    def test_member_roles_linear_in_block(self):
        small = TransferTraffic(element_bytes=9, block_size=8, message_bits=12)
        large = TransferTraffic(element_bytes=9, block_size=20, message_bits=12)
        assert large.sender_member_bytes / small.sender_member_bytes == pytest.approx(20 / 8)

    def test_receiver_constant_in_block(self):
        small = TransferTraffic(element_bytes=9, block_size=8, message_bits=12)
        large = TransferTraffic(element_bytes=9, block_size=20, message_bits=12)
        assert small.receiver_member_bytes == large.receiver_member_bytes

    def test_paper_regime_magnitudes(self):
        """With 97-byte (uncompressed secp384r1) elements and 12-bit
        messages, the numbers land near §5.3's 97 kB - 595 kB range."""
        for block, low, high in ((8, 70e3, 120e3), (20, 450e3, 700e3)):
            t = TransferTraffic(element_bytes=97, block_size=block, message_bits=12)
            assert low < t.node_u_received_bytes < high

    def test_encryption_count(self, toy_elgamal, setup, rng):
        _, _, members, nk, cert = setup
        proto = MessageTransferProtocol(toy_elgamal, BITS, noise_alpha=0.5)
        shares = share_value(1, BITS, BLOCK, rng)
        result = proto.execute(shares, cert, nk, members, rng)
        assert result.encryptions == BLOCK * BLOCK * (BITS + 1)
