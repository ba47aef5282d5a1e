"""The full DStress message transfer protocol for L-bit messages (§3.5).

This is the production form of the Appendix A scheme: it moves an L-bit
message, XOR-shared across the sending block ``B_u``, into fresh XOR shares
across the receiving block ``B_v``, with all communication routed through
the edge endpoints ``u`` and ``v``:

1. every member of ``B_u`` splits its share into ``k+1`` subshares and
   encrypts each subshare *bit by bit* for one member of ``B_v``, using the
   re-randomized keys from the block certificate and the Kurosawa trick
   (one ephemeral scalar, hence one ``c1``, for all ``L`` bits);
2. node ``u`` homomorphically sums the ``(k+1)^2`` encrypted subshares into
   ``k+1`` per-receiver aggregates and adds an even two-sided-geometric
   offset to every bit (the edge-privacy noise of Appendix B);
3. node ``v`` adjusts the ephemeral halves with its neighbor key and hands
   each aggregate to the right member of ``B_v``;
4. each receiver decrypts ``L`` small sums through the bounded dlog table
   and takes parities as its fresh share bits.

The traffic profile matches §5.3: ``u`` handles ``(k+1)^2`` subshares, the
members of ``B_u`` and node ``v`` are linear in ``k``, and each member of
``B_v`` receives a constant-size aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError
from repro.privacy.mechanisms import two_sided_geometric_samples
from repro.sharing.xor import share_value, xor_all
from repro.transfer.certificates import BlockCertificate, MemberKeys

__all__ = [
    "EncryptedSubshare",
    "AggregatedShare",
    "TransferTraffic",
    "TransferResult",
    "MessageTransferProtocol",
]


@dataclass(frozen=True)
class EncryptedSubshare:
    """One sender's subshare for one receiver: Kurosawa-packed bits.

    ``c1`` is the shared ephemeral half ``g**y``; ``c2[t]`` encrypts bit
    ``t`` under the receiver's ``t``-th (re-randomized) public key.
    """

    c1: Any
    c2: List[Any]

    def num_elements(self) -> int:
        """Group elements on the wire: 1 + L."""
        return 1 + len(self.c2)


@dataclass(frozen=True)
class AggregatedShare:
    """Per-receiver homomorphic aggregate; same wire shape as a subshare."""

    c1: Any
    c2: List[Any]

    def num_elements(self) -> int:
        return 1 + len(self.c2)


@dataclass
class TransferTraffic:
    """Byte counts per §5.3 role for one edge transfer."""

    element_bytes: int
    block_size: int
    message_bits: int

    @property
    def subshare_bytes(self) -> int:
        """Wire size of one Kurosawa-packed subshare: (L+1) elements."""
        return (self.message_bits + 1) * self.element_bytes

    @property
    def sender_member_bytes(self) -> int:
        """Each member of B_u sends k+1 encrypted subshares to u."""
        return self.block_size * self.subshare_bytes

    @property
    def node_u_received_bytes(self) -> int:
        """u receives (k+1)^2 encrypted subshares — the hot spot."""
        return self.block_size * self.block_size * self.subshare_bytes

    @property
    def node_u_sent_bytes(self) -> int:
        """u forwards k+1 aggregates to v."""
        return self.block_size * self.subshare_bytes

    @property
    def node_v_sent_bytes(self) -> int:
        """v forwards one adjusted aggregate to each member of B_v."""
        return self.block_size * self.subshare_bytes

    @property
    def receiver_member_bytes(self) -> int:
        """Each member of B_v receives one aggregate — constant in k."""
        return self.subshare_bytes


@dataclass
class TransferResult:
    """Outcome of one L-bit transfer."""

    receiver_shares: List[int]
    noise_terms: List[List[int]]
    traffic: TransferTraffic
    #: number of exponential-ElGamal encryptions performed (cost model)
    encryptions: int = 0

    def reconstruct(self, bits: int) -> int:
        return xor_all(self.receiver_shares) & ((1 << bits) - 1)


class MessageTransferProtocol:
    """Executes §3.5 transfers over a given ElGamal instance.

    Parameters
    ----------
    elgamal:
        Exponential ElGamal; its dlog window must cover
        ``k + 1 + max_noise`` (see Appendix B for the failure analysis).
    message_bits:
        The message width ``L`` (the paper uses 12-bit shares; Appendix B
        uses L = 16).
    noise_alpha:
        Parameter of the two-sided geometric edge-privacy noise; ``None``
        disables it (strawman #3 behaviour, for the ablation).
    """

    def __init__(
        self,
        elgamal: ExponentialElGamal,
        message_bits: int,
        noise_alpha: Optional[float] = None,
    ) -> None:
        if message_bits < 1:
            raise ProtocolError("messages need at least one bit")
        self.elgamal = elgamal
        self.message_bits = message_bits
        self.noise_alpha = noise_alpha

    def _check_width(self, vector: Sequence[Any], what: str) -> None:
        """Refuse a per-bit vector that is not exactly ``message_bits`` long
        (a short one would fail untyped, a long one be silently cut)."""
        if len(vector) != self.message_bits:
            raise ProtocolError(
                f"{what} holds {len(vector)} elements, the protocol moves {self.message_bits} bits"
            )

    # -- role: member of the sending block B_u -------------------------------

    def sender_encrypt(
        self,
        share_word: int,
        certificate: BlockCertificate,
        rng: DeterministicRNG,
    ) -> List[EncryptedSubshare]:
        """Split an L-bit share into subshares and encrypt one per receiver.

        Returns one :class:`EncryptedSubshare` per member of ``B_v``; the
        Kurosawa optimization spends ``L + 1`` exponentiations per
        receiver instead of ``2L``: the receiver's whole key row goes to
        the one ephemeral scalar in a single batch, and ``g**bit`` is a
        multiplication by ``g`` where the bit is set.
        """
        if certificate.bits != self.message_bits:
            raise ProtocolError("certificate bit width does not match the protocol")
        for row in certificate.keys:
            self._check_width(row, "a certificate key row")
        group = self.elgamal.group
        g = group.generator
        subshares = share_value(share_word, self.message_bits, certificate.block_size, rng)
        encrypted = []
        for y, subshare in enumerate(subshares):
            ephemeral = group.random_scalar(rng)
            c1 = group.power_of_g(ephemeral)
            masks = group.exp_bases(certificate.keys[y], ephemeral)
            c2 = [
                group.mul(mask, g) if (subshare >> t) & 1 else mask
                for t, mask in enumerate(masks)
            ]
            encrypted.append(EncryptedSubshare(c1=c1, c2=c2))
        return encrypted

    # -- role: edge endpoint u ------------------------------------------------

    def aggregate(
        self,
        bundles: Sequence[Sequence[EncryptedSubshare]],
        rng: DeterministicRNG,
    ) -> tuple[List[AggregatedShare], List[List[int]]]:
        """Node ``u``: combine subshares per receiver and add even noise.

        ``bundles[x][y]`` is sender ``x``'s subshare for receiver ``y``.
        The Kurosawa ``c1`` halves multiply once per receiver (they are
        shared across bits), and every bit ciphertext receives an
        independent even geometric offset; the ``b * L`` offsets come
        from one read of the stream, in receiver-then-bit order.
        """
        group = self.elgamal.group
        bits = self.message_bits
        block_size = len(bundles)
        for row in bundles:
            if len(row) != block_size:
                raise ProtocolError("subshare matrix must be square (k+1 x k+1)")
            for sub in row:
                self._check_width(sub.c2, "an encrypted subshare")
        count = block_size * bits
        if self.noise_alpha is None:
            offsets = [0] * count
        else:
            draws = two_sided_geometric_samples(self.noise_alpha, count, rng)
            offsets = [2 * draw for draw in draws]
        aggregates = []
        noise_terms: List[List[int]] = []
        for y in range(block_size):
            column = [bundles[x][y] for x in range(block_size)]
            c1 = column[0].c1
            for sub in column[1:]:
                c1 = group.mul(c1, sub.c1)
            noises = offsets[y * bits : (y + 1) * bits]
            c2 = []
            for t, noise in enumerate(noises):
                acc = column[0].c2[t]
                for sub in column[1:]:
                    acc = group.mul(acc, sub.c2[t])
                if self.noise_alpha is not None:
                    acc = group.mul(acc, group.power_of_g(noise))
                c2.append(acc)
            aggregates.append(AggregatedShare(c1=c1, c2=c2))
            noise_terms.append(noises)
        return aggregates, noise_terms

    # -- role: edge endpoint v ---------------------------------------------------

    def adjust(self, aggregates: Sequence[AggregatedShare], neighbor_key: int) -> List[AggregatedShare]:
        """Node ``v``: raise each shared ephemeral half to the neighbor key
        so the receivers' original secret keys apply."""
        for agg in aggregates:
            self._check_width(agg.c2, "an aggregate")
        adjusted = self.elgamal.group.exp_bases([agg.c1 for agg in aggregates], neighbor_key)
        return [
            AggregatedShare(c1=c1, c2=list(agg.c2)) for c1, agg in zip(adjusted, aggregates)
        ]

    # -- role: member of the receiving block B_v ------------------------------------

    def receiver_decrypt(self, aggregate: AggregatedShare, member: MemberKeys) -> int:
        """Decrypt the L noised sums and take parities as fresh share bits.

        Raises :class:`~repro.exceptions.DecryptionError` when a noised sum
        escapes the dlog window — the Appendix B failure event.
        """
        if len(member.pairs) != self.message_bits:
            raise ProtocolError("receiver key count does not match message bits")
        self._check_width(aggregate.c2, "an aggregate")
        group = self.elgamal.group
        # one base, L secrets: c1**(q - x_t) is already the inverse mask
        masks = group.exp_many(
            aggregate.c1, [group.order - pair.secret for pair in member.pairs]
        )
        share = 0
        for t, mask in enumerate(masks):
            total = self.elgamal.dlog_table.recover(group.mul(aggregate.c2[t], mask))
            share |= (total & 1) << t
        return share

    # -- full edge transfer ----------------------------------------------------------

    def execute(
        self,
        sender_shares: Sequence[int],
        certificate: BlockCertificate,
        neighbor_key: int,
        receiver_keys: Sequence[MemberKeys],
        rng: DeterministicRNG,
    ) -> TransferResult:
        """Run the whole §3.5 pipeline for one edge.

        ``sender_shares`` are the L-bit XOR shares held by ``B_u``;
        ``receiver_keys`` are the original (un-randomized) key pairs of
        ``B_v``'s members; ``neighbor_key`` is the scalar ``v`` used for
        this certificate slot.
        """
        block_size = len(sender_shares)
        if certificate.block_size != block_size or len(receiver_keys) != block_size:
            raise ProtocolError("sending and receiving blocks must have equal size")

        bundles = [
            self.sender_encrypt(share, certificate, rng) for share in sender_shares
        ]
        aggregates, noise_terms = self.aggregate(bundles, rng)
        adjusted = self.adjust(aggregates, neighbor_key)
        receiver_shares = [
            self.receiver_decrypt(agg, member)
            for agg, member in zip(adjusted, receiver_keys)
        ]

        traffic = TransferTraffic(
            element_bytes=self.elgamal.group.element_size_bytes,
            block_size=block_size,
            message_bits=self.message_bits,
        )
        encryptions = block_size * block_size * (self.message_bits + 1)
        return TransferResult(
            receiver_shares=receiver_shares,
            noise_terms=noise_terms,
            traffic=traffic,
            encryptions=encryptions,
        )
