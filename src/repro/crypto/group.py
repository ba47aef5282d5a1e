"""Cyclic groups of prime order for ElGamal and the transfer protocol.

DStress needs a group in which the decisional Diffie-Hellman problem is
assumed hard (Appendix A, Theorem 2). The paper's prototype used the NIST
secp384r1 elliptic curve; this module provides the abstract interface plus
Schnorr groups (prime-order subgroups of ``Z_p^*`` for safe primes ``p``),
while :mod:`repro.crypto.ec` provides the elliptic-curve instantiations.

Group elements are opaque values manipulated only through the group object,
so ElGamal and the transfer protocol are generic over the instantiation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.crypto.modexp import Modulus
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CryptoError

__all__ = [
    "CyclicGroup",
    "SchnorrGroup",
    "TOY_GROUP_64",
    "GROUP_160",
    "GROUP_256",
    "GROUP_512",
    "default_group",
]


class CyclicGroup(ABC):
    """A cyclic group of prime order ``q`` with a fixed generator ``g``.

    Elements are written multiplicatively: ``mul`` composes, ``exp`` raises
    to a scalar in ``Z_q``, ``identity`` is the neutral element.
    """

    #: Human-readable name, used in benchmark output.
    name: str
    #: Prime order of the group.
    order: int

    @property
    @abstractmethod
    def generator(self) -> Any:
        """The fixed generator ``g``."""

    @property
    @abstractmethod
    def identity(self) -> Any:
        """The neutral element."""

    @abstractmethod
    def mul(self, a: Any, b: Any) -> Any:
        """Return the group product ``a * b``."""

    @abstractmethod
    def exp(self, base: Any, exponent: int) -> Any:
        """Return ``base`` raised to ``exponent`` (mod the group order)."""

    @abstractmethod
    def inv(self, a: Any) -> Any:
        """Return the group inverse of ``a``."""

    @abstractmethod
    def is_element(self, a: Any) -> bool:
        """Return True when ``a`` is a valid element of this group."""

    @abstractmethod
    def element_to_bytes(self, a: Any) -> bytes:
        """Serialize ``a`` to a fixed-width byte string."""

    @abstractmethod
    def element_from_bytes(self, data: bytes) -> Any:
        """Inverse of :meth:`element_to_bytes`."""

    @property
    @abstractmethod
    def element_size_bytes(self) -> int:
        """Serialized size of one element; drives traffic accounting."""

    @property
    def token(self) -> Optional[Hashable]:
        """Content token of the algebra, for process-wide tables of values
        computed in it (:data:`repro.core.setup.DEPLOYMENTS`). ``None`` —
        the default, hence every wrapper that observes calls — means no
        stable token: such a group's results are never shared."""
        return None

    # -- Conveniences shared by all instantiations ------------------------

    def power_of_g(self, exponent: int) -> Any:
        """Return ``g**exponent``; subclasses may override with fixed-base
        precomputation."""
        return self.exp(self.generator, exponent)

    def exp_grid(self, bases: Sequence[Any], exponents: Sequence[int]) -> List[List[Any]]:
        """Return ``[[b**e for e in exponents] for b in bases]``; subclasses
        may share the work that depends on one operand only."""
        return [[self.exp(base, exponent) for exponent in exponents] for base in bases]

    def random_scalar(self, rng: DeterministicRNG) -> int:
        """Return a uniform nonzero scalar in ``[1, q)``."""
        return 1 + rng.randbelow(self.order - 1)

    def div(self, a: Any, b: Any) -> Any:
        """Return ``a * b^{-1}``."""
        return self.mul(a, self.inv(b))

    def equal(self, a: Any, b: Any) -> bool:
        """Element equality (overridable for non-canonical representations)."""
        return a == b

    def hash_to_scalar(self, data: bytes) -> int:
        """Hash arbitrary bytes to a scalar; used by OT and key derivation."""
        import hashlib

        digest = hashlib.sha512(data).digest()
        return int.from_bytes(digest, "big") % self.order


#: a negative exponent above ``-_SHORT`` is walked by magnitude (two table rows)
_SHORT_BYTES = 2
_SHORT = 1 << (8 * _SHORT_BYTES)


class SchnorrGroup(CyclicGroup):
    """The order-``q`` subgroup of ``Z_p^*`` for a safe prime ``p = 2q+1``.

    Elements are Python ints in ``[1, p)`` that are quadratic residues.
    ``exp`` is one :meth:`repro.crypto.modexp.Modulus.powm` — a constant-time
    ladder in C, GMP's up to 256 bits (3 µs at 64 bits, 16 µs at 256 in a
    grid), libcrypto's above (65 µs at 512), ``pow`` where neither loads —
    which makes these groups the default for the large simulation runs.
    ``exp_grid`` is one :meth:`~repro.crypto.modexp.Modulus.powm_grid`
    call (each operand converted once); ``power_of_g`` reads a fixed-base
    table.
    """

    def __init__(self, p: int, q: int, g: int, name: str = "schnorr") -> None:
        if p != 2 * q + 1:
            raise CryptoError("SchnorrGroup requires a safe prime p = 2q + 1")
        if pow(g, q, p) != 1 or g in (0, 1):
            raise CryptoError("generator does not have order q")
        self.p = p
        self.order = q
        self._g = g
        self.name = name
        self._size = (p.bit_length() + 7) // 8
        self._g_table: Optional[List[List[int]]] = None
        self._g_inverse_table: Optional[List[List[int]]] = None
        self._modulus = Modulus(p)

    @property
    def generator(self) -> int:
        return self._g

    @property
    def token(self) -> Optional[Hashable]:
        # a subclass may observe or alter calls: only the exact class shares
        return ("schnorr", self.p, self._g) if type(self) is SchnorrGroup else None

    @property
    def identity(self) -> int:
        return 1

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def exp(self, base: int, exponent: int) -> int:
        return self._modulus.powm(base, exponent % self.order)

    def exp_grid(self, bases: Sequence[int], exponents: Sequence[int]) -> List[List[int]]:
        return self._modulus.powm_grid(bases, [exponent % self.order for exponent in exponents])

    def power_of_g(self, exponent: int) -> int:
        """``g**exponent`` as a product of table entries, one per non-zero
        byte — a short exponent walks only its own bytes, and a short
        negative one (signed edge noise) walks its magnitude over the
        rows of ``g**-1`` instead of wrapping to full width."""
        if -_SHORT < exponent < 0:
            exponent = -exponent
            table = self._g_inverse_table or self._build_g_inverse_table()
        else:
            exponent %= self.order
            table = self._g_table or self._build_g_table()
        p = self.p
        acc = 1
        little = exponent.to_bytes((exponent.bit_length() + 7) // 8, "little")
        for row, byte in zip(table, little):
            if byte:
                acc = acc * row[byte] % p
        return acc

    def _build_g_table(self) -> List[List[int]]:
        """``table[i][b] = g**(b * 256**i)``, built on first use and kept
        for the life of the group object (one multiplication per entry)."""
        self._g_table = self._byte_rows(self._g, (self.order.bit_length() + 7) // 8)
        return self._g_table

    def _build_g_inverse_table(self) -> List[List[int]]:
        """The same rows for ``g**-1``, as many as a short exponent has bytes."""
        self._g_inverse_table = self._byte_rows(self.inv(self._g), _SHORT_BYTES)
        return self._g_inverse_table

    def _byte_rows(self, step: int, count: int) -> List[List[int]]:
        p = self.p
        table = []
        for _ in range(count):
            row = [1]
            for _ in range(255):
                row.append(row[-1] * step % p)
            table.append(row)
            step = row[-1] * step % p
        return table

    def inv(self, a: int) -> int:
        try:
            return pow(a, -1, self.p)
        except ValueError:
            raise CryptoError("element has no inverse modulo p") from None

    def is_element(self, a: Any) -> bool:
        return isinstance(a, int) and 0 < a < self.p and self._modulus.powm(a, self.order) == 1

    def element_to_bytes(self, a: int) -> bytes:
        return a.to_bytes(self._size, "big")

    def element_from_bytes(self, data: bytes) -> int:
        if len(data) != self._size:
            raise CryptoError(f"expected {self._size} bytes, got {len(data)}")
        value = int.from_bytes(data, "big")
        if not self.is_element(value):
            raise CryptoError("bytes do not encode a group element")
        return value

    @property
    def element_size_bytes(self) -> int:
        return self._size

    def __reduce__(self) -> Tuple[Any, Tuple[int, int, int, str]]:
        # parameters only (the fixed-base table is a 0.3 MB cache); a named group
        # unpickles as this process's instance: a worker builds each table once
        return _restore_group, (self.p, self.order, self._g, self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchnorrGroup({self.name}, |p|={self.p.bit_length()} bits)"


def _restore_group(p: int, q: int, g: int, name: str) -> SchnorrGroup:
    named = _NAMED_GROUPS.get(name)
    if named is not None and (named.p, named.order, named.generator) == (p, q, g):
        return named
    return SchnorrGroup(p, q, g, name)


# Precomputed safe-prime groups (generated offline with Miller-Rabin, 40
# rounds; seed 20170423). The 64-bit group is a *toy* for fast tests and demo
# runs; the 256-bit group is the default simulation group (``default_group``).

TOY_GROUP_64 = SchnorrGroup(
    p=0xEE2CB9D186C5BDAB,
    q=0x77165CE8C362DED5,
    g=0x4,
    name="toy-64",
)

GROUP_160 = SchnorrGroup(
    p=0xB1D86FA547E4BD0D691E60825815F9BA2C2BAE7B,
    q=0x58EC37D2A3F25E86B48F30412C0AFCDD1615D73D,
    g=0x4,
    name="schnorr-160",
)

GROUP_256 = SchnorrGroup(
    p=0xB377485658B5FB58F3396E0C424221257264010913E84BB7B7782D9BCACF2DD7,
    q=0x59BBA42B2C5AFDAC799CB70621211092B932008489F425DBDBBC16CDE56796EB,
    g=0x4,
    name="schnorr-256",
)

GROUP_512 = SchnorrGroup(
    p=0x9C8E5F73ED1C01B19CB58200B01ADF5887A80A5FFC56C9B53AF15A78D32B329A975379311DA88F8B8165DB80DE87A557D4E2A99C1A7F01976459042029911A4F,
    q=0x4E472FB9F68E00D8CE5AC100580D6FAC43D4052FFE2B64DA9D78AD3C6995994D4BA9BC988ED447C5C0B2EDC06F43D2ABEA7154CE0D3F80CBB22C821014C88D27,
    g=0x4,
    name="schnorr-512",
)


_NAMED_GROUPS = {
    group.name: group for group in (TOY_GROUP_64, GROUP_160, GROUP_256, GROUP_512)
}


def default_group() -> CyclicGroup:
    """The group used by default throughout the simulation.

    We default to the 256-bit Schnorr group: it is comfortably in the DDH
    regime while keeping exponentiation (16 µs inside a grid and 18 µs
    for a single ``exp`` on GMP's ``mpn_sec_powm``, 160 µs on the ``pow``
    fallback) fast enough for end-to-end runs. The
    paper's secp384r1 curve is available from
    :mod:`repro.crypto.ec` for fidelity experiments.
    """
    return GROUP_256
