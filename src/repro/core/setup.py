"""The one-time trusted-party setup step (§3.4).

The trusted party (e.g. the Federal Reserve) performs exactly two duties
and then leaves:

1. **Block assignment** — picks the ``k+1`` members of every node's block
   (plus the aggregation block) at random, preventing Sybil-stuffed
   blocks, and publishes the signed list.
2. **Certificate generation** — for each node ``v``, builds ``D``
   certificates containing the public keys of ``B_v``'s members
   re-randomized with ``v``'s ``D`` neighbor keys, and signs them.

Critically, the TP's inputs are node identities, public keys and neighbor
keys — *never edges* — so its transcript is independent of the graph
topology. The test suite asserts this structurally: the TP object has no
code path that accepts edge information.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.crypto.elgamal import ExponentialElGamal
from repro.crypto.keys import SchnorrSigner, SchnorrSignature, SigningKeyPair
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, CryptoError
from repro.transfer.certificates import BlockCertificate, MemberKeys, build_certificates

__all__ = ["BlockAssignment", "TrustedParty", "AGGREGATION_BLOCK_ID"]

#: Pseudo-id under which the aggregation block appears in the block list.
AGGREGATION_BLOCK_ID = -1


@dataclass
class BlockAssignment:
    """The signed output of the block-assignment step.

    ``blocks[i]`` lists the ``k+1`` member node ids of ``B_i`` (node ``i``
    included); ``blocks[AGGREGATION_BLOCK_ID]`` is ``B_A`` (§3.6).
    """

    blocks: Dict[int, List[int]]
    signature: SchnorrSignature

    def digest(self) -> bytes:
        return _assignment_digest(self.blocks)

    def members_of(self, block_id: int) -> List[int]:
        return list(self.blocks[block_id])


def _assignment_digest(blocks: Dict[int, List[int]]) -> bytes:
    hasher = hashlib.sha256()
    for block_id in sorted(blocks):
        hasher.update(f"{block_id}:{','.join(map(str, blocks[block_id]))};".encode())
    return hasher.digest()


class TrustedParty:
    """Runs §3.4 setup. Holds no state between calls beyond its signing key.

    The API deliberately has no parameter through which edge information
    could flow: assignment takes node ids, certificate generation takes
    public keys and neighbor keys.
    """

    def __init__(self, elgamal: ExponentialElGamal, rng: DeterministicRNG) -> None:
        self.elgamal = elgamal
        self.signer = SchnorrSigner(elgamal.group)
        self._rng = rng.fork("trusted-party")
        self.signing_key: SigningKeyPair = self.signer.keygen(self._rng)

    @property
    def public_key(self):
        """The TP verification key every participant knows."""
        return self.signing_key.public

    # -- duty 1: block assignment ------------------------------------------------

    def assign_blocks(self, node_ids: Sequence[int], collusion_bound: int) -> BlockAssignment:
        """Randomly pick ``k+1`` members for every block and for ``B_A``.

        Each node's own block contains the node itself (it coordinates the
        block, §3.3) plus ``k`` distinct others chosen uniformly.
        """
        node_ids = list(node_ids)
        k = collusion_bound
        if len(node_ids) < k + 1:
            raise ConfigurationError(
                f"need at least k+1 = {k + 1} nodes, got {len(node_ids)}"
            )
        blocks: Dict[int, List[int]] = {}
        for node_id in node_ids:
            others = [n for n in node_ids if n != node_id]
            members = [node_id] + self._rng.sample(others, k)
            blocks[node_id] = members
        blocks[AGGREGATION_BLOCK_ID] = self._rng.sample(node_ids, k + 1)
        signature = self.signer.sign(
            self.signing_key, _assignment_digest(blocks), self._rng
        )
        return BlockAssignment(blocks=blocks, signature=signature)

    def verify_assignment(self, assignment: BlockAssignment) -> None:
        """Participant-side check of the signed block list."""
        if not self.signer.verify(self.public_key, assignment.digest(), assignment.signature):
            raise CryptoError("block assignment signature invalid")

    # -- duty 2: block certificates ------------------------------------------------

    def build_block_certificates(
        self,
        owner: int,
        block_member_keys: Sequence[MemberKeys],
        neighbor_keys: Sequence[int],
    ) -> List[BlockCertificate]:
        """``D`` certificates for ``B_owner``, one per neighbor key.

        The TP learns the neighbor keys but not which neighbor will receive
        which certificate — the owner forwards them privately — so the TP
        still learns nothing about edges.
        """
        return build_certificates(
            self.elgamal,
            self.signer,
            self.signing_key,
            owner,
            block_member_keys,
            neighbor_keys,
            self._rng,
        )
