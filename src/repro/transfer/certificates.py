"""Block certificates: the key material behind edge-private transfers (§3.4).

During setup, the trusted party builds ``D`` certificates for every node's
block. Certificate ``j`` of node ``v`` contains the public keys of every
member of ``B_v`` — each member contributes ``L`` keys for the Kurosawa
optimization — re-randomized with ``v``'s ``j``-th neighbor key. ``v``
forwards each certificate to a different neighbor, so the neighbor's block
can encrypt *to* ``B_v`` without ever seeing an original public key (which
would identify the members).

Certificates are signed by the trusted party so a malicious intermediary
cannot substitute its own keys.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, List, Sequence

from repro.crypto.elgamal import ElGamal, KeyPair
from repro.crypto.group import CyclicGroup
from repro.crypto.keys import SchnorrSignature, SchnorrSigner, SigningKeyPair
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CryptoError, ProtocolError

__all__ = [
    "MemberKeys",
    "BlockCertificate",
    "build_certificate",
    "build_certificates",
    "certificate_digest",
    "verify_certificate",
    "generate_member_keys",
]


def generate_member_keys(elgamal: "ElGamal", bits: int, rng: "DeterministicRNG") -> "MemberKeys":
    """Generate one member's ``L`` key pairs (one per message bit)."""
    if bits < 1:
        raise ProtocolError("need at least one bit position")
    return MemberKeys(pairs=[elgamal.keygen(rng) for _ in range(bits)])


@dataclass(frozen=True)
class MemberKeys:
    """One block member's ElGamal key pairs: ``L`` pairs, one per message
    bit position (Kurosawa multi-recipient encryption, §5.1)."""

    pairs: List[KeyPair]

    @property
    def publics(self) -> List[Any]:
        return [kp.public for kp in self.pairs]

    @property
    def secrets(self) -> List[int]:
        return [kp.secret for kp in self.pairs]


@dataclass(frozen=True)
class BlockCertificate:
    """Re-randomized public keys of one block, for one edge slot.

    ``keys[y][t]`` is the re-randomized ``t``-th public key of the block's
    ``y``-th member. ``edge_slot`` says which of the owner's ``D`` neighbor
    keys produced it (the owner knows the matching scalar; nobody else
    does).
    """

    owner: int
    edge_slot: int
    keys: List[List[Any]]
    signature: SchnorrSignature

    @property
    def block_size(self) -> int:
        return len(self.keys)

    @property
    def bits(self) -> int:
        return len(self.keys[0]) if self.keys else 0


def certificate_digest(group: CyclicGroup, owner: int, edge_slot: int, keys: Sequence[Sequence[Any]]) -> bytes:
    """Canonical byte digest of a certificate body for signing."""
    hasher = hashlib.sha256()
    hasher.update(f"cert|{owner}|{edge_slot}|".encode())
    for member_keys in keys:
        for key in member_keys:
            hasher.update(group.element_to_bytes(key))
    return hasher.digest()


def build_certificates(
    elgamal: ElGamal,
    signer: SchnorrSigner,
    tp_key: SigningKeyPair,
    owner: int,
    member_keys: Sequence[MemberKeys],
    neighbor_keys: Sequence[int],
    rng: DeterministicRNG,
    first_slot: int = 0,
) -> List[BlockCertificate]:
    """Trusted-party construction of a block's certificates, one per
    neighbor key, for edge slots ``first_slot, first_slot + 1, ...``.

    The members' ``b * L`` public keys are raised to the owner's ``D``
    neighbor keys in one ``exp_grid`` call; each slot's table is then
    signed, slot by slot, in the order the keys were given.
    """
    if not member_keys:
        raise ProtocolError("a certificate needs at least one member")
    group = elgamal.group
    for neighbor_key in neighbor_keys:
        if not (0 < neighbor_key < group.order):
            raise CryptoError("neighbor key must be a nonzero scalar")
    # randomized[y][t][slot]
    rows = iter(group.exp_grid([pk for m in member_keys for pk in m.publics], neighbor_keys))
    randomized = [[next(rows) for _pk in member.publics] for member in member_keys]
    certificates = []
    for index in range(len(neighbor_keys)):
        keys = [[per_slot[index] for per_slot in member] for member in randomized]
        edge_slot = first_slot + index
        signature = signer.sign(tp_key, certificate_digest(group, owner, edge_slot, keys), rng)
        certificates.append(
            BlockCertificate(owner=owner, edge_slot=edge_slot, keys=keys, signature=signature)
        )
    return certificates


def build_certificate(
    elgamal: ElGamal,
    signer: SchnorrSigner,
    tp_key: SigningKeyPair,
    owner: int,
    edge_slot: int,
    member_keys: Sequence[MemberKeys],
    neighbor_key: int,
    rng: DeterministicRNG,
) -> BlockCertificate:
    """The single certificate for ``edge_slot``; see :func:`build_certificates`."""
    return build_certificates(
        elgamal, signer, tp_key, owner, member_keys, [neighbor_key], rng, first_slot=edge_slot
    )[0]


def verify_certificate(
    elgamal: ElGamal,
    signer: SchnorrSigner,
    tp_public: Any,
    certificate: BlockCertificate,
) -> None:
    """Raise :class:`CryptoError` unless the TP signature checks out."""
    digest = certificate_digest(
        elgamal.group, certificate.owner, certificate.edge_slot, certificate.keys
    )
    if not signer.verify(tp_public, digest, certificate.signature):
        raise CryptoError("block certificate signature is invalid")
