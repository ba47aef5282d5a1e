"""The one-time trusted-party setup step (§3.4).

The trusted party (e.g. the Federal Reserve) performs exactly two duties
and then leaves:

1. **Block assignment** — picks the ``k+1`` members of every node's block
   (plus the aggregation block) at random, preventing Sybil-stuffed
   blocks, and publishes the signed list.
2. **Certificate generation** — for each node ``v``, builds ``D``
   certificates containing the public key of each of ``B_v``'s members
   re-randomized with ``v``'s ``D`` neighbor keys, and signs them.

Critically, the TP's inputs are node identities, public keys and neighbor
keys — *never edges* — so its transcript is independent of the graph
topology. The test suite asserts this structurally: the TP object has no
code path that accepts edge information.

One-time means one time: what setup leaves behind is a :class:`Deployment`,
a sealed value that is a pure function of *(the root generator's state,
the group, the ordered party ids, D, k)* and of nothing a stress test
varies — edges, balance sheets, shocks, the program, epsilon.
:func:`deployment_for` keeps the ones this process (or its fork parent) has
already set up in :data:`DEPLOYMENTS`, a :class:`~repro.mpc.plan.SealedTable`
under that table's rules (content key, ``None`` token never published, no
lock, least recently used out, inherited across ``fork``), and moves the
caller's generator to where setup left it, so the transcript after setup
cannot tell whether setup was built or found. There is no switch: a miss
builds, publishes and then proceeds exactly as a hit does.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.crypto.elgamal import ElGamal
from repro.crypto.group import CyclicGroup
from repro.crypto.keys import SchnorrSigner, SchnorrSignature, SigningKeyPair
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, CryptoError
from repro.mpc.plan import SealedTable
from repro.transfer.certificates import (
    BlockCertificate,
    MemberKeys,
    build_certificates,
    generate_member_keys,
    verify_certificate,
)

__all__ = [
    "AGGREGATION_BLOCK_ID",
    "BlockAssignment",
    "DEPLOYMENTS",
    "DEPLOYMENT_ELEMENT_BOUND",
    "Deployment",
    "TrustedParty",
    "build_deployment",
    "deployment_for",
]

#: Pseudo-id under which the aggregation block appears in the block list.
AGGREGATION_BLOCK_ID = -1


@dataclass(frozen=True)
class BlockAssignment:
    """The signed output of the block-assignment step.

    ``blocks[i]`` lists the ``k+1`` member node ids of ``B_i`` (node ``i``
    included); ``blocks[AGGREGATION_BLOCK_ID]`` is ``B_A`` (§3.6).
    """

    blocks: Mapping[int, Sequence[int]]
    signature: SchnorrSignature

    def digest(self) -> bytes:
        return _assignment_digest(self.blocks)

    def members_of(self, block_id: int) -> List[int]:
        return list(self.blocks[block_id])


def _assignment_digest(blocks: Mapping[int, Sequence[int]]) -> bytes:
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

    def __init__(self, elgamal: ElGamal, rng: DeterministicRNG) -> None:
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


# ------------------------------------------------------------ deployments --


@dataclass(frozen=True)
class Deployment:
    """Everything §3.4 leaves behind, sealed: every container is a tuple or
    a read-only mapping, so runs, threads and forked children share one
    object and nothing a run does can write to it.

    ``certificates[v][slot]`` is the TP's certificate for ``B_v`` under
    ``neighbor_keys[v][slot]``: what ``v`` forwards to the in-neighbor on
    that slot, or keeps when the slot is unused (a padded self-transfer
    agrees its keys under it). ``member_keys[v]`` is one key pair.
    ``rng_state`` is where the root generator stood
    when the trusted party left.
    """

    member_keys: Mapping[int, MemberKeys]
    neighbor_keys: Mapping[int, Tuple[int, ...]]
    assignment: BlockAssignment
    certificates: Mapping[int, Tuple[BlockCertificate, ...]]
    tp_public: Any
    rng_state: Tuple[bytes, int, bytes]
    #: public keys plus re-randomized certificate keys held: the table's weight
    group_elements: int


def build_deployment(
    group: CyclicGroup,
    rng_state: Tuple[bytes, int, bytes],
    node_ids: Sequence[int],
    degree_bound: int,
    collusion_bound: int,
) -> Deployment:
    """Run §3.4 from a root generator in ``rng_state``: each node's key
    pair and ``D`` neighbor keys, the block assignment, all ``N × D`` block
    certificates — then what every node does on receipt: check the
    assignment and each certificate under the TP's public key. A signature
    that does not verify is a :class:`CryptoError` and no deployment.

    Takes ids and a degree bound, never a graph: like the TP's own API it
    has no parameter through which an edge could flow.
    """
    rng = DeterministicRNG()
    rng.setstate(rng_state)
    elgamal = ElGamal(group)
    member_keys: Dict[int, MemberKeys] = {}
    neighbor_keys: Dict[int, Tuple[int, ...]] = {}
    for node_id in node_ids:
        node_rng = rng.fork(f"node-{node_id}")
        member_keys[node_id] = MemberKeys(
            pairs=tuple(generate_member_keys(elgamal, 1, node_rng).pairs)
        )
        neighbor_keys[node_id] = tuple(
            group.random_scalar(node_rng) for _ in range(degree_bound)
        )
    tp = TrustedParty(elgamal, rng)
    assigned = tp.assign_blocks(node_ids, collusion_bound)
    assignment = BlockAssignment(
        blocks=MappingProxyType({b: tuple(m) for b, m in assigned.blocks.items()}),
        signature=assigned.signature,
    )
    tp.verify_assignment(assignment)
    certificates: Dict[int, Tuple[BlockCertificate, ...]] = {}
    for node_id in node_ids:
        certificates[node_id] = tuple(
            replace(certificate, keys=tuple(map(tuple, certificate.keys)))
            for certificate in tp.build_block_certificates(
                node_id,
                [member_keys[m] for m in assignment.blocks[node_id]],
                neighbor_keys[node_id],
            )
        )
        for certificate in certificates[node_id]:
            verify_certificate(elgamal, tp.signer, tp.public_key, certificate)
    return Deployment(
        member_keys=MappingProxyType(member_keys),
        neighbor_keys=MappingProxyType(neighbor_keys),
        assignment=assignment,
        certificates=MappingProxyType(certificates),
        tp_public=tp.public_key,
        rng_state=rng.getstate(),
        group_elements=len(member_keys) * (1 + degree_bound * (collusion_bound + 1)),
    )


#: Total group elements :data:`DEPLOYMENTS` may hold (≈ 25 MB of 256-bit
#: integers). A constant, not an option: ten banks at D = 10, k = 2 are
#: 310 elements, a thousand at the paper's k = 7 are 81 k, and an eviction
#: costs one rebuild. A deployment above the bound is built for its run
#: and not kept.
DEPLOYMENT_ELEMENT_BOUND = 1 << 18

#: Process-wide: the deployments this process or its fork parent set up
#: (``core.setup.builds`` / ``core.setup.hits`` under a recorder).
DEPLOYMENTS = SealedTable(
    "core.setup", DEPLOYMENT_ELEMENT_BOUND, weigh=lambda d: d.group_elements
)


def deployment_for(
    group: CyclicGroup,
    rng: DeterministicRNG,
    node_ids: Sequence[int],
    degree_bound: int,
    collusion_bound: int,
) -> Deployment:
    """The deployment a root generator in ``rng``'s state sets up, found or
    built, with ``rng`` moved to where setup leaves it either way.

    The key is everything :func:`build_deployment` reads. The generator's
    state stands in for the seed (``49`` and ``"1"`` seed one stream, ``1``
    another); a group without a :attr:`~repro.crypto.group.CyclicGroup.token`
    — a ``CountingGroup``, any wrapper that observes calls — has no key and
    is built every time.
    """
    parts = (rng.getstate(), tuple(node_ids), degree_bound, collusion_bound)
    token = group.token
    deployment = DEPLOYMENTS.get(
        None if token is None else (token,) + parts,
        lambda: build_deployment(group, *parts),
    )
    rng.setstate(deployment.rng_state)
    return deployment
