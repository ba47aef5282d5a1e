"""Oblivious transfer: the primitive under every GMW AND gate.

In the GMW protocol (§3, "Secure multiparty computation") each AND gate
takes one 1-out-of-4 OT between every unordered pair of parties
(:meth:`ObliviousTransfer.transfer4`, Goldreich's presentation); the
1-out-of-2 :meth:`~ObliviousTransfer.transfer` serves IKNP's base OTs. The
paper inherits OT from the Choi et al. GMW implementation, including OT
extension (§5.3); we implement the primitive from scratch:

* :class:`DDHObliviousTransfer` — the "simplest OT" protocol of Chou and
  Orlandi over any DDH group. Real public-key crypto; used in unit tests
  and available to the engine for fidelity runs.
* :class:`SimulatedObliviousTransfer` — a functionally identical fast
  backend that shortcuts the public-key steps with hashing. It reports the
  byte counts *of the real protocol*, so traffic accounting (Figure 4) is
  unaffected by the speedup.

Both expose the same interface so the GMW engine is backend-agnostic;
:mod:`repro.crypto.ot_extension` builds IKNP extension on top.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

from repro.crypto.group import CyclicGroup, default_group
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError

__all__ = [
    "ObliviousTransfer",
    "DDHObliviousTransfer",
    "SimulatedObliviousTransfer",
    "OTStats",
]


class OTStats:
    """Running totals of OT invocations and wire bytes."""

    def __init__(self) -> None:
        self.transfers = 0
        self.sender_bytes = 0
        self.receiver_bytes = 0

    def record(self, sender_bytes: int, receiver_bytes: int) -> None:
        self.transfers += 1
        self.sender_bytes += sender_bytes
        self.receiver_bytes += receiver_bytes

    @property
    def total_bytes(self) -> int:
        return self.sender_bytes + self.receiver_bytes


class ObliviousTransfer(ABC):
    """1-out-of-2 and 1-out-of-4 oblivious transfer of equal-length byte
    strings.

    ``transfer`` and ``transfer4`` play both roles of the two-party
    protocol in-process (the whole deployment is simulated);
    implementations must not let the result depend on anything but the
    messages and the choice.
    """

    def __init__(self) -> None:
        self.stats = OTStats()

    @abstractmethod
    def transfer(self, m0: bytes, m1: bytes, choice: int, rng: DeterministicRNG) -> bytes:
        """Return ``m_choice``; the sender learns nothing about ``choice``
        and the receiver learns nothing about the other message."""

    @abstractmethod
    def sender_bytes_per_transfer(self, message_len: int) -> int:
        """Bytes the sender puts on the wire for one transfer."""

    @abstractmethod
    def receiver_bytes_per_transfer(self, message_len: int) -> int:
        """Bytes the receiver puts on the wire for one transfer."""

    @abstractmethod
    def transfer4(self, messages: Sequence[bytes], choice: int, rng: DeterministicRNG) -> bytes:
        """1-out-of-4: return ``messages[choice]`` under the same secrecy
        (one GMW AND gate between a pair of parties)."""

    @abstractmethod
    def sender_bytes_per_transfer4(self, message_len: int) -> int:
        """Bytes the sender puts on the wire for one 1-out-of-4 transfer."""

    @abstractmethod
    def receiver_bytes_per_transfer4(self, message_len: int) -> int:
        """Bytes the receiver puts on the wire for one 1-out-of-4 transfer."""

    def and_gate_bytes(self) -> Tuple[int, int]:
        """Wire bytes of one GMW AND gate between a pair of parties — one
        1-out-of-4 transfer of single-bit messages — sender then receiver."""
        return self.sender_bytes_per_transfer4(1), self.receiver_bytes_per_transfer4(1)


def _check_pair(m0: bytes, m1: bytes, choice: int) -> None:
    if len(m0) != len(m1):
        raise ProtocolError("OT messages must have equal length")
    if choice not in (0, 1):
        raise ProtocolError("OT choice must be 0 or 1")


def _check_four(messages: Sequence[bytes], choice: int) -> int:
    """Validate one 1-out-of-4 call; returns the message length."""
    try:
        m0, m1, m2, m3 = messages
    except ValueError:
        raise ProtocolError(f"1-out-of-4 OT takes four messages, got {len(messages)}") from None
    length = len(m0)
    if len(m1) != length or len(m2) != length or len(m3) != length:
        raise ProtocolError("OT messages must have equal length")
    if choice not in (0, 1, 2, 3):
        raise ProtocolError("1-out-of-4 OT choice must be 0, 1, 2 or 3")
    return length


def _mask(key: bytes, length: int) -> bytes:
    """Expand ``key`` into a ``length``-byte XOR pad."""
    out = b""
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key + counter.to_bytes(4, "big")).digest()
        counter += 1
    return out[:length]


def _xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


class DDHObliviousTransfer(ObliviousTransfer):
    """Chou-Orlandi "simplest OT" over a DDH group.

    Sender publishes ``A = g**a``. The receiver with choice ``c`` sends
    ``B = A**c * g**b``. The sender derives one pad per message,
    ``k_i = H((B/A**i)**a)``, and sends every message XOR-padded; the
    receiver derives ``k_c = H(A**b)`` and unpads its choice. The
    protocol is natively 1-out-of-n: 1-out-of-2 costs five
    exponentiations, 1-out-of-4 seven (``A**i`` and ``A**c`` are
    multiplications).
    """

    def __init__(self, group: Optional[CyclicGroup] = None) -> None:
        super().__init__()
        self.group = group if group is not None else default_group()

    def _derive(self, element) -> bytes:
        return hashlib.sha256(b"ot-pad|" + self.group.element_to_bytes(element)).digest()

    def _one_of_n(self, messages: Sequence[bytes], choice: int, rng: DeterministicRNG) -> bytes:
        g = self.group

        # Sender round 1: A = g**a.
        a = g.random_scalar(rng)
        big_a = g.power_of_g(a)

        # Receiver round: B = A**c * g**b, A**c by repeated multiplication.
        b = g.random_scalar(rng)
        big_b = g.power_of_g(b)
        for _ in range(choice):
            big_b = g.mul(big_b, big_a)

        # Sender round 2: one pad per message, H((B / A**i)**a).
        a_inverse = g.inv(big_a)
        shifted = [big_b]
        for _ in messages[1:]:
            shifted.append(g.mul(shifted[-1], a_inverse))
        pads = [pad for (pad,) in g.exp_grid(shifted, [a])]
        length = len(messages[0])
        padded = [_xor(m, _mask(self._derive(pad), length)) for m, pad in zip(messages, pads)]

        # Receiver output: pad for the chosen message is H(A**b).
        k_c = self._derive(g.exp(big_a, b))
        return _xor(padded[choice], _mask(k_c, length))

    def transfer(self, m0: bytes, m1: bytes, choice: int, rng: DeterministicRNG) -> bytes:
        _check_pair(m0, m1, choice)
        result = self._one_of_n((m0, m1), choice, rng)
        self.stats.record(
            sender_bytes=self.sender_bytes_per_transfer(len(m0)),
            receiver_bytes=self.receiver_bytes_per_transfer(len(m0)),
        )
        return result

    def transfer4(self, messages: Sequence[bytes], choice: int, rng: DeterministicRNG) -> bytes:
        length = _check_four(messages, choice)
        result = self._one_of_n(messages, choice, rng)
        self.stats.record(
            sender_bytes=self.sender_bytes_per_transfer4(length),
            receiver_bytes=self.receiver_bytes_per_transfer4(length),
        )
        return result

    def sender_bytes_per_transfer(self, message_len: int) -> int:
        # A plus the two padded messages.
        return self.group.element_size_bytes + 2 * message_len

    def receiver_bytes_per_transfer(self, message_len: int) -> int:
        # B only.
        return self.group.element_size_bytes

    def sender_bytes_per_transfer4(self, message_len: int) -> int:
        # A plus the four padded messages.
        return self.group.element_size_bytes + 4 * message_len

    def receiver_bytes_per_transfer4(self, message_len: int) -> int:
        # B only.
        return self.group.element_size_bytes


class SimulatedObliviousTransfer(ObliviousTransfer):
    """Fast backend: functionally exact OT without public-key operations.

    The returned value is exactly ``messages[choice]`` (as any correct OT),
    so GMW executions are bit-identical to runs over
    :class:`DDHObliviousTransfer`. Traffic is accounted using the DDH
    protocol's message sizes over ``accounting_group`` so that bandwidth
    results (Figure 4) reflect the real protocol rather than the shortcut.
    ``transfer4`` draws no randomness, which is what lets the bit-sliced
    GMW engine compute its transfers as lanes.
    """

    def __init__(self, accounting_group: Optional[CyclicGroup] = None) -> None:
        super().__init__()
        self._group = accounting_group if accounting_group is not None else default_group()
        self._element_bytes = self._group.element_size_bytes

    def transfer(self, m0: bytes, m1: bytes, choice: int, rng: DeterministicRNG) -> bytes:
        _check_pair(m0, m1, choice)
        # Consume randomness to mirror the real protocol's RNG usage.
        rng.randbits(32)
        self.stats.record(
            sender_bytes=self.sender_bytes_per_transfer(len(m0)),
            receiver_bytes=self.receiver_bytes_per_transfer(len(m0)),
        )
        return m1 if choice else m0

    def transfer4(self, messages: Sequence[bytes], choice: int, rng: DeterministicRNG) -> bytes:
        length = _check_four(messages, choice)
        # the per-gate GMW oracle calls this once per AND gate per party pair
        self.stats.record(self._element_bytes + 4 * length, self._element_bytes)
        return messages[choice]

    def sender_bytes_per_transfer(self, message_len: int) -> int:
        return self._group.element_size_bytes + 2 * message_len

    def receiver_bytes_per_transfer(self, message_len: int) -> int:
        return self._group.element_size_bytes

    def sender_bytes_per_transfer4(self, message_len: int) -> int:
        return self._group.element_size_bytes + 4 * message_len

    def receiver_bytes_per_transfer4(self, message_len: int) -> int:
        return self._group.element_size_bytes
