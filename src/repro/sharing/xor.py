"""XOR secret sharing — the share representation used throughout DStress.

A value ``V`` is shared among ``n`` parties as shares ``s_1 .. s_n`` with
``V = s_1 XOR ... XOR s_n`` (§3, "Secure multiparty computation"). Any
``n-1`` shares are jointly uniform and independent of ``V``, which is the
information-theoretic basis of the collusion bound: a block of ``k+1`` nodes
tolerates ``k`` colluders.

Values are L-bit integers (the paper's prototype used 12-bit shares); bit
``t`` of the value is shared as bit ``t`` of each share, so the same shares
feed both the GMW engine (bit by bit) and the transfer protocol.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError

__all__ = [
    "share_bit",
    "share_bits",
    "share_value",
    "share_words",
    "unpack_words",
    "reconstruct_bit",
    "reconstruct_value",
    "xor_all",
]


def xor_all(values: Sequence[int]) -> int:
    """XOR-fold a sequence of integers."""
    result = 0
    for value in values:
        result ^= value
    return result


def share_bit(bit: int, parties: int, rng: DeterministicRNG) -> List[int]:
    """Split one bit into ``parties`` XOR shares."""
    if bit not in (0, 1):
        raise ProtocolError("bit must be 0 or 1")
    if parties < 1:
        raise ProtocolError("need at least one party")
    shares = [rng.randbit() for _ in range(parties - 1)]
    shares.append(bit ^ xor_all(shares))
    return shares


def share_value(value: int, bits: int, parties: int, rng: DeterministicRNG) -> List[int]:
    """Split an L-bit value into ``parties`` XOR shares (as L-bit ints).

    ``value`` is interpreted modulo ``2**bits`` (two's complement for
    negatives), matching the fixed-point encoding used in the MPC circuits.
    """
    if parties < 1:
        raise ProtocolError("need at least one party")
    if bits < 1:
        raise ProtocolError("need at least one bit")
    mask = (1 << bits) - 1
    value &= mask
    shares = [rng.randbits(bits) for _ in range(parties - 1)]
    shares.append(value ^ xor_all(shares))
    return shares


_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def unpack_words(raw: bytes, size: int) -> Sequence[int]:
    """``raw`` cut into big-endian words of ``size`` bytes, in order: one
    ``struct`` call for 1, 2, 4 or 8 bytes, a slice per word otherwise."""
    code = _STRUCT_CODES.get(size)
    if code is not None:
        return struct.unpack(f">{len(raw) // size}{code}", raw)
    return [int.from_bytes(raw[k : k + size], "big") for k in range(0, len(raw), size)]


def share_words(
    values: Sequence[int], bits: int, parties: int, rng: DeterministicRNG
) -> List[List[int]]:
    """Split each of ``values`` (modulo ``2**bits``) into ``parties`` XOR
    shares from one read of ``rng``: ``parties - 1`` random words per value
    in value order, each the smallest of 1, 2, 4 or 8 big-endian bytes
    that holds ``bits`` (whole bytes beyond 64 bits), masked to ``bits``."""
    if parties < 1:
        raise ProtocolError("need at least one party")
    if bits < 1:
        raise ProtocolError("need at least one bit")
    mask = (1 << bits) - 1
    draws = parties - 1
    size = 1 << (max(bits - 1, 7).bit_length() - 3) if bits <= 64 else (bits + 7) // 8
    words = unpack_words(rng.randbytes(size * draws * len(values)), size)
    shares = []
    for k, value in enumerate(values):
        row = [word & mask for word in words[k * draws : k * draws + draws]]
        row.append((value & mask) ^ xor_all(row))
        shares.append(row)
    return shares


def share_bits(value: int, bits: int, parties: int, rng: DeterministicRNG) -> List[List[int]]:
    """Share an L-bit value bit-by-bit: result[t][p] is party p's share of
    bit t (bit 0 = least significant)."""
    word_shares = share_value(value, bits, parties, rng)
    return [[(share >> t) & 1 for share in word_shares] for t in range(bits)]


def reconstruct_bit(shares: Sequence[int]) -> int:
    """Recombine XOR shares of a single bit."""
    for share in shares:
        if share not in (0, 1):
            raise ProtocolError("bit shares must be 0 or 1")
    return xor_all(shares)


def reconstruct_value(shares: Sequence[int], bits: int, signed: bool = False) -> int:
    """Recombine XOR shares of an L-bit value.

    With ``signed=True`` the result is interpreted as two's complement.
    """
    mask = (1 << bits) - 1
    value = xor_all(shares) & mask
    if signed and value >> (bits - 1):
        value -= 1 << bits
    return value
