"""The setup-once §3.5 transfer: agree one element per sender–receiver
pair at run setup, hash it into a pad stream for every step of the run,
then move each step's subshares under XOR pads.

The private-stream-aggregation pattern ("Private Stream Aggregation
Revisited", Valovich & Aldà): keys are fixed once, and each period uses one
mask per key. Here the masks combine by XOR.

**Setup, once per run and edge slot** (:func:`agree_pads`). The slot's
certificate holds ``pk'_y = pk_y^nk`` for every member ``y`` of ``B_v``,
``nk`` the neighbor key ``v`` keeps for the slot.

1. Sender ``x`` of ``B_u`` brings an ephemeral ``r_x`` (in a secure run
   drawn from its own derived stream) and publishes ``g^(r_x)``; it
   computes ``e_xy = pk'_y^(r_x)`` for each receiver ``y``.
2. ``u`` forwards the b halves to ``v``, which raises each to ``nk`` once.
3. Receiver ``y`` computes ``e_xy = (g^(r_x·nk))^(sk_y)``, the same element.

That is 2b² + 2b exponentiations per slot, and nothing afterwards. Each
pair's element becomes its **pad stream** (:func:`pad_stream`): one
``shake_256(domain ‖ e_xy)`` read of S·⌈L/8⌉ bytes for the run's S
communication steps, step ``s``'s pad its ``s``-th ⌈L/8⌉-byte word.

**Each step** (:class:`PadTransfer`). Sender ``x`` splits its share into
b subshares and sends ``s_xy ⊕ pad_xy[step]`` to ``u``; ``u`` XORs the b
senders' words per receiver; ``v`` forwards them; ``y`` XORs out its b
pads and holds ``⊕_x s_xy``, its fresh share. A step is slices and XORs.
Receivers learn fresh share bits and nothing else: no sum, no noise, no
discrete log.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import List, Sequence, Tuple

from repro.crypto.group import CyclicGroup
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError
from repro.sharing.xor import share_value, unpack_words
from repro.transfer.certificates import BlockCertificate

__all__ = ["PadTransfer", "SlotPads", "agree_pads", "pad_stream"]

_PAD_DOMAIN = b"dstress.transfer.pad-stream|"


def pad_stream(element: bytes, steps: int, bits: int) -> Tuple[int, ...]:
    """One agreed element's pads for ``steps`` steps: step ``s``'s is the
    ``s``-th ⌈bits/8⌉-byte big-endian word of ``shake_256(domain ‖
    element)``, masked to ``bits``."""
    size = (bits + 7) // 8
    words = unpack_words(hashlib.shake_256(_PAD_DOMAIN + element).digest(steps * size), size)
    if bits % 8:
        mask = (1 << bits) - 1
        return tuple([word & mask for word in words])
    return tuple(words)


@dataclass(frozen=True)
class SlotPads:
    """One edge slot's pad streams, by role: ``senders[x][y]`` is sender
    ``x``'s stream for receiver ``y``, ``receivers[y][x]`` receiver
    ``y``'s for sender ``x``; each holds one pad per step of the run."""

    senders: Tuple[Tuple[Sequence[int], ...], ...]
    receivers: Tuple[Tuple[Sequence[int], ...], ...]

    @property
    def block_size(self) -> int:
        return len(self.senders)

    @property
    def steps(self) -> int:
        return len(self.senders[0][0]) if self.senders else 0


def agree_pads(
    group: CyclicGroup,
    certificate: BlockCertificate,
    neighbor_key: int,
    receiver_secrets: Sequence[int],
    ephemerals: Sequence[int],
    steps: int,
    bits: int,
) -> SlotPads:
    """Run one slot's key agreement and hash each pair's element into its
    pad stream of ``steps`` L-bit pads (``bits`` = L).

    ``certificate`` carries one re-randomized key per member of ``B_v``;
    ``receiver_secrets`` are those members' secret keys and ``ephemerals``
    the senders' ``r``, both in block order. A certificate that does not
    match the receivers' keys leaves the two sides with different
    elements: a :class:`ProtocolError`, before any share moves. Equal
    elements hash to equal streams, so each pair's stream is computed
    once and both roles hold it.
    """
    size = certificate.block_size
    if certificate.bits != 1:
        raise ProtocolError("a pad transfer's certificate holds one key per member")
    if len(receiver_secrets) != size:
        raise ProtocolError("sending and receiving blocks must have equal size")
    if len(ephemerals) != size:
        raise ProtocolError("one ephemeral per member of the sending block")
    # senders: g ** r_x, then pk'_y ** r_x row by receiver, in one grid
    halves, *sent = group.exp_grid(
        [group.generator] + [row[0] for row in certificate.keys], list(ephemerals)
    )
    # v: each half to the neighbor key, once
    adjusted = [cell for (cell,) in group.exp_grid(halves, [neighbor_key])]
    # receivers: each adjusted half to each secret key, row by sender
    received = group.exp_grid(adjusted, list(receiver_secrets))
    # sender x's element for each receiver, row by sender as received
    elements = list(zip(*sent))
    if elements != [tuple(row) for row in received]:
        raise ProtocolError("key agreement failed: the certificate is not the receiving block's")
    to_bytes = group.element_to_bytes
    senders = tuple(tuple(pad_stream(to_bytes(e), steps, bits) for e in row) for row in elements)
    return SlotPads(senders=senders, receivers=tuple(zip(*senders)))


class PadTransfer:
    """Moves L-bit shares from ``B_u`` to fresh shares at ``B_v`` on pad
    streams agreed at setup, role by role."""

    def __init__(self, message_bits: int) -> None:
        if message_bits < 1:
            raise ProtocolError("messages need at least one bit")
        self.message_bits = message_bits

    @staticmethod
    def _check_step(pads: SlotPads, step: int) -> None:
        if not 0 <= step < pads.steps:
            raise ProtocolError(f"no pads agreed for step {step} (the run has {pads.steps})")

    def mask(
        self, share_words: Sequence[int], pads: SlotPads, step: int, rng: DeterministicRNG
    ) -> List[List[int]]:
        """The members of ``B_u``: each sender splits its share from
        ``rng`` (in block order), then :meth:`seal`."""
        bits, size = self.message_bits, pads.block_size
        return self.seal([share_value(w, bits, size, rng) for w in share_words], pads, step)

    def seal(self, splits: Sequence[Sequence[int]], pads: SlotPads, step: int) -> List[List[int]]:
        """The members of ``B_u``, given their splits (``splits[x]``, one
        subshare per receiver): ``words[x][y] = s_xy ⊕ pad_xy[step]``."""
        if len(splits) != pads.block_size:
            raise ProtocolError("one share per member of the sending block")
        self._check_step(pads, step)
        return [
            [sub ^ stream[step] for sub, stream in zip(split, row)]
            for split, row in zip(splits, pads.senders)
        ]

    @staticmethod
    def combine(words: Sequence[Sequence[int]]) -> List[int]:
        """Node ``u``: XOR the senders' words per receiver."""
        return [reduce(xor, column) for column in zip(*words)]

    def unmask(self, combined: Sequence[int], pads: SlotPads, step: int) -> List[int]:
        """The members of ``B_v``: XOR out the b pads, keep the fresh share."""
        if len(combined) != pads.block_size:
            raise ProtocolError("one combined word per member of the receiving block")
        self._check_step(pads, step)
        fresh = []
        for word, row in zip(combined, pads.receivers):
            for stream in row:
                word ^= stream[step]
            fresh.append(word)
        return fresh

    def execute(
        self, share_words: Sequence[int], pads: SlotPads, step: int, rng: DeterministicRNG
    ) -> List[int]:
        """One edge's transfer in step ``step``, the senders splitting from
        ``rng`` in block order: the receivers' fresh shares."""
        return self.unmask(self.combine(self.mask(share_words, pads, step, rng)), pads, step)

    def deliver(self, splits: Sequence[Sequence[int]], pads: SlotPads, step: int) -> List[int]:
        """One edge's transfer in step ``step`` from the senders' own splits
        (``v`` forwards each combined word unchanged)."""
        return self.unmask(self.combine(self.seal(splits, pads, step)), pads, step)
