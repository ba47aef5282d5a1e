"""Deterministic randomness for the DStress simulation.

All randomness in the library flows through :class:`DeterministicRNG`, a
SHA-256 counter-mode deterministic random bit generator. Determinism matters
here: the whole point of the reproduction is that experiments are replayable,
so every protocol component takes an explicit RNG instead of reaching for
global entropy. Independent sub-streams are derived by label so that, e.g.,
each simulated node owns an independent generator.

This is a *simulation* DRBG: it is uniform and unpredictable enough for
protocol correctness experiments, but no security claims are made about seed
secrecy (the seeds are chosen by the experimenter).
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Tuple

__all__ = ["DeterministicRNG"]

_BLOCK_BYTES = hashlib.sha256().digest_size
_sha256 = hashlib.sha256
_pack_counter = struct.Struct(">Q").pack


class DeterministicRNG:
    """SHA-256 counter-mode DRBG with labelled sub-stream derivation.

    Parameters
    ----------
    seed:
        Any bytes-like or integer seed. Two generators built from equal
        seeds produce identical streams.
    """

    def __init__(self, seed: bytes | int | str = 0) -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 8) // 8, "big", signed=True)
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._key = hashlib.sha256(b"repro.rng.v1|" + bytes(seed)).digest()
        self._counter = 0
        self._buffer = b""

    def getstate(self) -> Tuple[bytes, int, bytes]:
        """The stream's position as a hashable value: two generators in
        equal states produce identical streams from here on."""
        return self._key, self._counter, self._buffer

    def setstate(self, state: Tuple[bytes, int, bytes]) -> None:
        """Move to a position :meth:`getstate` returned."""
        self._key, self._counter, self._buffer = state

    def randbytes(self, n: int) -> bytes:
        """Return ``n`` uniformly random bytes."""
        if n < 0:
            raise ValueError("cannot generate a negative number of bytes")
        buffer = self._buffer
        if len(buffer) < n:
            key = self._key
            start = self._counter
            self._counter = stop = start + -(-(n - len(buffer)) // _BLOCK_BYTES)
            if stop - start == 1:  # the common small draw: one block, no join
                buffer += _sha256(key + _pack_counter(start)).digest()
            else:
                # a bit-sliced offline phase asks for tens of kilobytes at a
                # time: all the counter blocks it needs, in one join
                buffer += b"".join(
                    _sha256(key + _pack_counter(counter)).digest()
                    for counter in range(start, stop)
                )
        out, self._buffer = buffer[:n], buffer[n:]
        return out

    def randbits(self, k: int) -> int:
        """Return a uniform integer in ``[0, 2**k)``."""
        if k < 0:
            raise ValueError("number of bits must be non-negative")
        if k == 0:
            return 0
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.randbytes(nbytes), "big")
        return value >> (nbytes * 8 - k)

    def randbit(self) -> int:
        """Return a single uniform bit."""
        return self.randbits(1)

    def randbelow(self, n: int) -> int:
        """Return a uniform integer in ``[0, n)`` by rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        k = n.bit_length()
        while True:
            value = self.randbits(k)
            if value < n:
                return value

    def randrange(self, start: int, stop: int | None = None) -> int:
        """Return a uniform integer in ``[start, stop)`` (or ``[0, start)``)."""
        if stop is None:
            start, stop = 0, start
        if stop <= start:
            raise ValueError("empty range")
        return start + self.randbelow(stop - start)

    def random(self) -> float:
        """Return a uniform float in ``[0, 1)`` with 53 bits of precision."""
        return self.randbits(53) / float(1 << 53)

    def randoms(self, count: int) -> List[float]:
        """``count`` draws of :meth:`random` from one read of the stream
        (which does not depend on how it is chunked): the same values and
        the same state afterwards as ``count`` sequential calls."""
        raw = self.randbytes(7 * count)
        scale = float(1 << 53)
        from_bytes = int.from_bytes
        return [(from_bytes(raw[i : i + 7], "big") >> 3) / scale for i in range(0, len(raw), 7)]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle of ``items`` in place."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, population: list, k: int) -> list:
        """Return ``k`` distinct elements drawn without replacement."""
        if k > len(population):
            raise ValueError("sample larger than population")
        pool = list(population)
        self.shuffle(pool)
        return pool[:k]

    def choice(self, population: list):
        """Return one uniformly chosen element."""
        if not population:
            raise ValueError("cannot choose from an empty sequence")
        return population[self.randbelow(len(population))]

    def fork(self, label: str | int) -> "DeterministicRNG":
        """Derive an independent sub-stream keyed by ``label``.

        The fork consumes 32 bytes of the parent stream, so repeated forks
        with the same label produce *different* generators — each protocol
        invocation gets fresh, independent randomness — while the overall
        sequence stays fully determined by the root seed.
        """
        material = self.randbytes(32) + b"|fork|" + str(label).encode("utf-8")
        return DeterministicRNG(material)
