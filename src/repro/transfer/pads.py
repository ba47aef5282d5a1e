"""The setup-once §3.5 transfer: agree one key per sender–receiver pair at
run setup, then move every step's subshares under XOR pads.

The private-stream-aggregation pattern ("Private Stream Aggregation
Revisited", Valovich & Aldà): keys are fixed once, and each period uses one
mask per key. Here the masks combine by XOR.

**Setup, once per run and edge slot** (:func:`agree_keys`). The slot's
certificate holds ``pk'_y = pk_y^nk`` for every member ``y`` of ``B_v``,
``nk`` the neighbor key ``v`` keeps for the slot.

1. Sender ``x`` of ``B_u`` draws ``r_x`` and publishes ``g^(r_x)``; it
   derives ``K_xy = H(pk'_y^(r_x))`` for each receiver ``y``.
2. ``u`` forwards the b halves to ``v``, which raises each to ``nk`` once.
3. Receiver ``y`` derives ``K_xy = H((g^(r_x·nk))^(sk_y))``, the same key.

That is 2b² + 2b exponentiations per slot, and nothing afterwards.

**Each step** (:class:`PadTransfer`). Sender ``x`` splits its share into
b subshares (in a secure run from its own derived stream,
:meth:`PadTransfer.deliver`) and sends ``s_xy ⊕ PRF(K_xy, step)`` (L bits, one
``shake_256`` read) to ``u``; ``u`` XORs the b senders' words per
receiver; ``v`` forwards them; ``y`` XORs out its b pads and holds
``⊕_x s_xy``, its fresh share. Receivers learn fresh share bits and
nothing else: no sum, no noise, no discrete log.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Any, List, Sequence, Tuple

from repro.crypto.group import CyclicGroup
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError
from repro.sharing.xor import share_value
from repro.transfer.certificates import BlockCertificate

__all__ = ["PadTransfer", "SlotKeys", "agree_keys", "pad"]

_KEY_DOMAIN = b"dstress.transfer.pad-key|"


@dataclass(frozen=True)
class SlotKeys:
    """One edge slot's agreed keys, each side's own derivation.

    ``senders[x][y]`` is what sender ``x`` derived for receiver ``y`` from
    the certificate; ``receivers[y][x]`` what receiver ``y`` derived from
    the half ``v`` adjusted. :func:`agree_keys` only returns the pair when
    the two agree.
    """

    senders: Tuple[Tuple[bytes, ...], ...]
    receivers: Tuple[Tuple[bytes, ...], ...]

    @property
    def block_size(self) -> int:
        return len(self.senders)


def _key(group: CyclicGroup, shared: Any) -> bytes:
    return hashlib.sha256(_KEY_DOMAIN + group.element_to_bytes(shared)).digest()


def agree_keys(
    group: CyclicGroup,
    certificate: BlockCertificate,
    neighbor_key: int,
    receiver_secrets: Sequence[int],
    rng: DeterministicRNG,
) -> SlotKeys:
    """Run one slot's key agreement; b senders draw their ``r`` from
    ``rng`` in block order.

    ``certificate`` carries one re-randomized key per member of ``B_v``;
    ``receiver_secrets`` are those members' secret keys, in block order.
    A certificate that does not match the receivers' keys leaves the two
    sides with different keys: a :class:`ProtocolError`, before any share
    moves.
    """
    if certificate.bits != 1:
        raise ProtocolError("a pad transfer's certificate holds one key per member")
    if len(receiver_secrets) != certificate.block_size:
        raise ProtocolError("sending and receiving blocks must have equal size")
    ephemerals = [group.random_scalar(rng) for _ in range(certificate.block_size)]
    # senders: g ** r_x, then pk'_y ** r_x row by receiver, in one grid
    halves, *sent = group.exp_grid(
        [group.generator] + [row[0] for row in certificate.keys], ephemerals
    )
    # v: each half to the neighbor key, once
    adjusted = [cell for (cell,) in group.exp_grid(halves, [neighbor_key])]
    # receivers: each adjusted half to each secret key, row by sender
    received = group.exp_grid(adjusted, list(receiver_secrets))
    senders = tuple(
        tuple(_key(group, row[x]) for row in sent) for x in range(len(ephemerals))
    )
    receivers = tuple(
        tuple(_key(group, row[y]) for row in received) for y in range(len(receiver_secrets))
    )
    if senders != tuple(zip(*receivers)):
        raise ProtocolError("key agreement failed: the certificate is not the receiving block's")
    return SlotKeys(senders=senders, receivers=receivers)


def pad(key: bytes, step: int, bits: int) -> int:
    """``PRF(key, step)``: the L-bit pad of one key in one step."""
    stream = hashlib.shake_256(key + step.to_bytes(8, "big")).digest((bits + 7) // 8)
    return int.from_bytes(stream, "big") & ((1 << bits) - 1)


class PadTransfer:
    """Moves L-bit shares from ``B_u`` to fresh shares at ``B_v`` on keys
    agreed at setup, role by role."""

    def __init__(self, message_bits: int) -> None:
        if message_bits < 1:
            raise ProtocolError("messages need at least one bit")
        self.message_bits = message_bits

    def mask(
        self, share_words: Sequence[int], keys: SlotKeys, step: int, rng: DeterministicRNG
    ) -> List[List[int]]:
        """The members of ``B_u``: each sender splits its share from
        ``rng`` (in block order), then :meth:`seal`."""
        bits, size = self.message_bits, keys.block_size
        return self.seal([share_value(w, bits, size, rng) for w in share_words], keys, step)

    def seal(self, splits: Sequence[Sequence[int]], keys: SlotKeys, step: int) -> List[List[int]]:
        """The members of ``B_u``, given their splits (``splits[x]``, one
        subshare per receiver): ``words[x][y] = s_xy ⊕ PRF(K_xy, step)``."""
        if len(splits) != keys.block_size:
            raise ProtocolError("one share per member of the sending block")
        bits = self.message_bits
        return [
            [sub ^ pad(key, step, bits) for sub, key in zip(split, row)]
            for split, row in zip(splits, keys.senders)
        ]

    @staticmethod
    def combine(words: Sequence[Sequence[int]]) -> List[int]:
        """Node ``u``: XOR the senders' words per receiver."""
        return [reduce(xor, column) for column in zip(*words)]

    def unmask(self, combined: Sequence[int], keys: SlotKeys, step: int) -> List[int]:
        """The members of ``B_v``: XOR out the b pads, keep the fresh share."""
        if len(combined) != keys.block_size:
            raise ProtocolError("one combined word per member of the receiving block")
        bits = self.message_bits
        return [
            reduce(xor, (pad(key, step, bits) for key in row), word)
            for word, row in zip(combined, keys.receivers)
        ]

    def execute(
        self, share_words: Sequence[int], keys: SlotKeys, step: int, rng: DeterministicRNG
    ) -> List[int]:
        """One edge's transfer in step ``step``, the senders splitting from
        ``rng`` in block order: the receivers' fresh shares."""
        return self.unmask(self.combine(self.mask(share_words, keys, step, rng)), keys, step)

    def deliver(self, splits: Sequence[Sequence[int]], keys: SlotKeys, step: int) -> List[int]:
        """One edge's transfer in step ``step`` from the senders' own splits
        (``v`` forwards each combined word unchanged)."""
        return self.unmask(self.combine(self.seal(splits, keys, step)), keys, step)
