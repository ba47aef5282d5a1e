"""IKNP oblivious-transfer extension (Ishai et al. [41]).

GMW consumes one 1-out-of-4 OT per AND gate per party pair, so public-key
OT would dominate everything. The paper notes (§5.3) that its GMW backend
keeps traffic low because it uses OT extension: a small number ``kappa`` of
*base* OTs (public-key) is stretched into an arbitrary number of fast,
symmetric-crypto OTs.

This module implements the semi-honest IKNP construction:

1. The parties run ``kappa`` base OTs *in the reverse direction*: the OT
   sender plays receiver with choice bits ``s`` (its secret correlation
   string), obtaining columns ``q^i = t^i XOR (s_i * r)`` where ``t^i`` are
   the receiver's random columns and ``r`` its batch of choice bits.
2. Row-wise, the sender holds ``q_j = t_j XOR (r_j * s)``; hashing rows
   gives two pads per OT of which the receiver can compute exactly one.
3. Each precomputed *random* OT is derandomized online with one bit from
   the receiver and two padded messages from the sender. A 1-out-of-4
   transfer derandomizes two random OTs at once: the receiver sends both
   choice bits' corrections and the sender pads message ``2a + b`` with a
   hash of the ``a``-side pad of the first and the ``b``-side pad of the
   second, so it costs the bytes of two 1-out-of-2 transfers.

The class is a drop-in :class:`~repro.crypto.ot.ObliviousTransfer`; the GMW
engine can use it unchanged.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple

from repro.crypto.ot import ObliviousTransfer, _check_four, _check_pair, _mask, _xor
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError

try:  # numpy is optional: the pure-Python transpose below stays correct
    import numpy as _np
except ImportError:  # pragma: no cover - container always ships numpy
    _np = None  # type: ignore[assignment]

__all__ = ["IKNPOTExtension"]


def _transpose_bits_python(cols: List[int], count: int) -> List[int]:
    """Columns-to-rows bit transpose: ``rows[j]`` has bit ``i`` equal to
    bit ``j`` of ``cols[i]`` (the IKNP matrix pivot)."""
    rows = []
    for j in range(count):
        row = 0
        for i, col in enumerate(cols):
            row |= ((col >> j) & 1) << i
        rows.append(row)
    return rows


def _transpose_bits_numpy(cols: List[int], count: int) -> List[int]:
    """Batched-matrix form of the transpose: unpack every column into a
    bit matrix, pivot it in one shot, repack rows. Bit-identical to
    :func:`_transpose_bits_python` (little-endian bit ``j`` of an int's
    little-endian bytes is exactly ``(value >> j) & 1``); asserted by
    tests/test_mpc_bitslice.py."""
    if count == 0:
        return []
    if not cols:
        return [0] * count
    col_bytes = (count + 7) // 8
    raw = b"".join(col.to_bytes(col_bytes, "little") for col in cols)
    matrix = _np.frombuffer(raw, dtype=_np.uint8).reshape(len(cols), col_bytes)
    bits = _np.unpackbits(matrix, axis=1, bitorder="little")[:, :count]
    packed = _np.packbits(bits.T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


_transpose_bits = _transpose_bits_python if _np is None else _transpose_bits_numpy


class IKNPOTExtension(ObliviousTransfer):
    """OT extension: ``kappa`` base OTs amortized over many transfers.

    Parameters
    ----------
    base_ot:
        The (public-key) OT used for the ``kappa`` base transfers.
    kappa:
        Computational security parameter; the paper's GMW backend uses 80,
        modern practice 128.
    batch_size:
        Number of random OTs precomputed per extension phase (at least 1).
    """

    def __init__(
        self,
        base_ot: ObliviousTransfer,
        kappa: int = 128,
        batch_size: int = 1024,
    ) -> None:
        super().__init__()
        if kappa < 8:
            raise ProtocolError("kappa too small to be meaningful")
        if batch_size < 1:
            raise ProtocolError(f"batch_size must be at least 1, got {batch_size}")
        self.base_ot = base_ot
        self.kappa = kappa
        self.batch_size = batch_size
        self._pool: List[Tuple[bytes, bytes, int]] = []  # (u0, u1, c) triples
        self.base_ot_count = 0
        self.extension_phases = 0

    # -- batch generation ---------------------------------------------------

    def _hash_row(self, index: int, row: int) -> bytes:
        data = index.to_bytes(8, "big") + row.to_bytes((self.kappa + 7) // 8, "big")
        return hashlib.sha256(b"iknp|" + data).digest()

    def _run_extension(self, rng: DeterministicRNG) -> None:
        """Precompute ``batch_size`` random OTs: fills ``self._pool``."""
        m = self.batch_size
        col_bytes = (m + 7) // 8

        # Receiver side: random choice bits r and random columns t^i.
        r = rng.randbits(m)
        t_cols = [rng.randbits(m) for _ in range(self.kappa)]

        # Sender side: correlation string s.
        s = rng.randbits(self.kappa)

        # kappa base OTs in the reverse direction: the extension *sender*
        # acts as base-OT receiver with choice bit s_i and obtains
        # q^i = t^i (s_i = 0) or t^i XOR r (s_i = 1).
        q_cols = []
        for i in range(self.kappa):
            s_i = (s >> i) & 1
            m0 = t_cols[i].to_bytes(col_bytes, "big")
            m1 = (t_cols[i] ^ r).to_bytes(col_bytes, "big")
            chosen = self.base_ot.transfer(m0, m1, s_i, rng)
            q_cols.append(int.from_bytes(chosen, "big"))
            self.base_ot_count += 1

        # Transpose columns to rows (batched matrix pivot when numpy is
        # available) and derive the pads.
        t_rows = _transpose_bits(t_cols, m)
        q_rows = _transpose_bits(q_cols, m)
        pool = []
        for j in range(m):
            t_row = t_rows[j]
            q_row = q_rows[j]
            r_j = (r >> j) & 1
            u0 = self._hash_row(j, q_row)
            u1 = self._hash_row(j, q_row ^ s)
            # Sanity invariant of IKNP: the receiver's row hashes to u_{r_j}.
            receiver_pad = self._hash_row(j, t_row)
            expected = u1 if r_j else u0
            if receiver_pad != expected:
                raise ProtocolError("IKNP row correlation broken")
            pool.append((u0, u1, r_j))
        self._pool.extend(pool)
        self.extension_phases += 1

    def ensure(self, count: int, rng: DeterministicRNG) -> None:
        """Offline-phase API: run extension phases until at least ``count``
        random OTs sit in the pool, so an online loop consuming them never
        pauses for a batch mid-round."""
        if count < 0:
            raise ProtocolError("cannot provision a negative OT count")
        while len(self._pool) < count:
            self._run_extension(rng)

    @property
    def pooled(self) -> int:
        """Random OTs currently precomputed and unconsumed."""
        return len(self._pool)

    # -- ObliviousTransfer interface -----------------------------------------

    def _take(self, rng: DeterministicRNG) -> Tuple[bytes, bytes, int]:
        if not self._pool:
            self._run_extension(rng)
        return self._pool.pop()

    def transfer(self, m0: bytes, m1: bytes, choice: int, rng: DeterministicRNG) -> bytes:
        _check_pair(m0, m1, choice)
        u0, u1, c = self._take(rng)

        # Online derandomization: receiver reveals d = choice XOR c; the
        # sender pads (m0, m1) with (u_d, u_{1-d}).
        d = choice ^ c
        pads = (u0, u1) if d == 0 else (u1, u0)
        e0 = _xor(m0, _mask(pads[0], len(m0)))
        e1 = _xor(m1, _mask(pads[1], len(m1)))
        chosen = e1 if choice else e0
        result = _xor(chosen, _mask(u1 if c else u0, len(chosen)))

        self.stats.record(
            sender_bytes=self.sender_bytes_per_transfer(len(m0)),
            receiver_bytes=self.receiver_bytes_per_transfer(len(m0)),
        )
        return result

    def transfer4(self, messages: Sequence[bytes], choice: int, rng: DeterministicRNG) -> bytes:
        length = _check_four(messages, choice)
        first, second = self._take(rng), self._take(rng)
        # The receiver reveals d_a = a XOR c_1 and d_b = b XOR c_2 for its
        # choice 2a + b; message 2x + y is padded with H(u1_{x^d_a} ||
        # u2_{y^d_b}), and the receiver knows exactly u1_{c_1}, u2_{c_2}.
        d_a = (choice >> 1) ^ first[2]
        d_b = (choice & 1) ^ second[2]
        padded = [
            _xor(m, self._pad4(first[(index >> 1) ^ d_a], second[(index & 1) ^ d_b], length))
            for index, m in enumerate(messages)
        ]
        known = self._pad4(first[first[2]], second[second[2]], length)
        result = _xor(padded[choice], known)

        self.stats.record(
            sender_bytes=self.sender_bytes_per_transfer4(length),
            receiver_bytes=self.receiver_bytes_per_transfer4(length),
        )
        return result

    @staticmethod
    def _pad4(u: bytes, v: bytes, length: int) -> bytes:
        return _mask(hashlib.sha256(b"iknp-4|" + u + v).digest(), length)

    def sender_bytes_per_transfer(self, message_len: int) -> int:
        # Two padded messages; base-OT cost amortizes to kappa bits of
        # column material per extended OT.
        return 2 * message_len + (self.kappa + 7) // 8

    def receiver_bytes_per_transfer(self, message_len: int) -> int:
        # One derandomization bit, rounded up.
        return 1

    def sender_bytes_per_transfer4(self, message_len: int) -> int:
        # Four padded messages and two extended OTs' column material.
        return 4 * message_len + 2 * ((self.kappa + 7) // 8)

    def receiver_bytes_per_transfer4(self, message_len: int) -> int:
        # Two derandomization bits, a byte each as in ``transfer``.
        return 2
