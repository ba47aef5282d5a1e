"""The three strawman transfer protocols of §3.5 and their leaks.

The paper derives the final transfer protocol through three broken
intermediates. Implementing them pays off twice: the test suite
*demonstrates* each leak (so the final protocol's fixes are evidenced, not
asserted), and the ablation benchmark prices each refinement.

* **Strawman #1** — each sender encrypts its whole share for one receiver.
  Leak: a single node sitting in (or colluding across) both blocks learns
  whole shares.
* **Strawman #2** — subshare splitting restores collusion resistance, but
  ciphertexts travel unchanged, so a sender/receiver pair can recognize
  a ciphertext and infer the edge.
* **Strawman #3** — per-bit encryption plus homomorphic summation destroys
  recognizability, but the decrypted sums are correlated with the sent
  subshares, so a coalition can statistically test for the edge.

The final protocol (strawman #3 + even geometric noise) lives in
:mod:`repro.transfer.scheme` / :mod:`repro.transfer.protocol`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set

from repro.crypto.elgamal import Ciphertext, ExponentialElGamal, KeyPair
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError
from repro.sharing.xor import reconstruct_value, share_value, xor_all

__all__ = ["Strawman1", "Strawman2", "Strawman3", "StrawmanOutcome"]


@dataclass
class StrawmanOutcome:
    """Result of a strawman run, retaining the adversary-visible artifacts."""

    message: int
    receiver_shares: List[int]
    #: ciphertext bytes as seen in transit, for recognizability attacks
    transit_ciphertexts: List[List[bytes]]
    #: plaintext values each receiver ends up decrypting
    receiver_plaintexts: List[List[int]]

    def reconstructed(self, bits: int) -> int:
        return reconstruct_value(self.receiver_shares, bits)


class _StrawmanBase:
    def __init__(self, elgamal: ExponentialElGamal, message_bits: int) -> None:
        if message_bits < 1:
            raise ProtocolError("messages need at least one bit")
        self.elgamal = elgamal
        self.message_bits = message_bits

    def _keys(self, block_size: int, rng: DeterministicRNG) -> List[KeyPair]:
        return [self.elgamal.keygen(rng) for _ in range(block_size)]

    def _ct_bytes(self, ct: Ciphertext) -> bytes:
        g = self.elgamal.group
        return g.element_to_bytes(ct.c1) + g.element_to_bytes(ct.c2)


class Strawman1(_StrawmanBase):
    """§3.5 strawman #1: whole shares, one receiver each.

    Sender ``x`` encrypts its entire share for receiver ``x`` (a bijection;
    the paper says "a different public key" per sender).
    """

    def run(self, message: int, block_size: int, rng: DeterministicRNG) -> StrawmanOutcome:
        keys = self._keys(block_size, rng)
        sender_shares = share_value(message, self.message_bits, block_size, rng)
        transit: List[List[bytes]] = [[] for _ in range(block_size)]
        received: List[List[int]] = [[] for _ in range(block_size)]
        for x, share in enumerate(sender_shares):
            ct = self.elgamal.encrypt_int(keys[x].public, share, rng)
            transit[x].append(self._ct_bytes(ct))
            received[x].append(self.elgamal.decrypt_int(keys[x].secret, ct))
        receiver_shares = [vals[0] for vals in received]
        return StrawmanOutcome(message, receiver_shares, transit, received)

    @staticmethod
    def leaked_shares(
        sender_shares: Sequence[int], colluding_pairs: Set[int]
    ) -> List[int]:
        """Shares a coalition learns: any receiver index it controls maps
        one-to-one to a sender's whole share."""
        return [sender_shares[x] for x in colluding_pairs]


class Strawman2(_StrawmanBase):
    """§3.5 strawman #2: subshare splitting, ciphertexts forwarded as-is.

    Collusion-resistant for share *contents*, but the bytes that leave a
    corrupt sender can be recognized by a corrupt receiver — an edge
    oracle.
    """

    def run(self, message: int, block_size: int, rng: DeterministicRNG) -> StrawmanOutcome:
        keys = self._keys(block_size, rng)
        sender_shares = share_value(message, self.message_bits, block_size, rng)
        transit: List[List[bytes]] = [[] for _ in range(block_size)]
        received: List[List[int]] = [[] for _ in range(block_size)]
        for x, share in enumerate(sender_shares):
            subshares = share_value(share, self.message_bits, block_size, rng)
            for y, subshare in enumerate(subshares):
                ct = self.elgamal.encrypt_int(keys[y].public, subshare, rng)
                transit[x].append(self._ct_bytes(ct))
                received[y].append(self.elgamal.decrypt_int(keys[y].secret, ct))
        receiver_shares = [xor_all(vals) for vals in received]
        return StrawmanOutcome(message, receiver_shares, transit, received)

    @staticmethod
    def edge_recognizable(sent: Sequence[bytes], observed: Sequence[bytes]) -> bool:
        """The recognizability attack: did any ciphertext a corrupt sender
        produced appear verbatim at a corrupt receiver?"""
        return bool(set(sent) & set(observed))


class Strawman3(_StrawmanBase):
    """§3.5 strawman #3: per-bit encryption + homomorphic sums, no noise.

    The receivers see exact subshare-bit sums; a coalition holding the
    senders' subshares can check whether the observed sums are consistent
    with them, gaining edge information. Functionally this is the final
    protocol with the noise removed.
    """

    def run(self, message: int, block_size: int, rng: DeterministicRNG) -> StrawmanOutcome:
        keys = self._keys(block_size, rng)
        sender_shares = share_value(message, self.message_bits, block_size, rng)
        transit: List[List[bytes]] = [[] for _ in range(block_size)]
        received: List[List[int]] = [[] for _ in range(block_size)]

        # subshare_bits[x][y][t]: bit t of sender x's subshare for receiver y
        subshare_bits: List[List[List[int]]] = []
        for x, share in enumerate(sender_shares):
            subshares = share_value(share, self.message_bits, block_size, rng)
            subshare_bits.append(
                [[(sub >> t) & 1 for t in range(self.message_bits)] for sub in subshares]
            )

        for y in range(block_size):
            sums = []
            for t in range(self.message_bits):
                cts = []
                for x in range(block_size):
                    ct = self.elgamal.encrypt_int(keys[y].public, subshare_bits[x][y][t], rng)
                    transit[x].append(self._ct_bytes(ct))
                    cts.append(ct)
                total = self.elgamal.sum_ciphertexts(cts)
                sums.append(self.elgamal.decrypt_int(keys[y].secret, total))
            received[y] = sums

        receiver_shares = []
        for y in range(block_size):
            share = 0
            for t, s in enumerate(received[y]):
                share |= (s & 1) << t
            receiver_shares.append(share)
        return StrawmanOutcome(message, receiver_shares, transit, received)

    @staticmethod
    def sums_consistent(
        adversary_subshare_bits: Sequence[Sequence[int]],
        observed_sums: Sequence[int],
        honest_senders: int,
    ) -> bool:
        """The §3.5 side-channel test: with ``k`` of ``k+1`` senders corrupt,
        each observed per-bit sum must lie within ``honest_senders`` of the
        coalition's own contribution. Outside that window, the edge cannot
        exist; persistent consistency builds confidence that it does."""
        for t, observed in enumerate(observed_sums):
            contribution = sum(bits[t] for bits in adversary_subshare_bits)
            if not (contribution <= observed <= contribution + honest_senders):
                return False
        return True
