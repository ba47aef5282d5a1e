"""ElGamal encryption with the two extensions DStress needs (§3).

1. **Additive homomorphism** — *exponential* ElGamal encrypts ``g**m``, so
   multiplying ciphertexts adds plaintexts. Decryption recovers ``g**m`` and
   then takes a bounded discrete log (:mod:`repro.crypto.dlog`).
2. **Public-key re-randomization** — a public key ``g**x`` can be raised to
   a *neighbor key* ``r`` yielding ``g**(x r)``; a ciphertext produced under
   the re-randomized key decrypts under the original secret key once its
   ephemeral half is also raised to ``r`` (the ``Adjust`` step of
   Appendix A). Neither operation needs the secret key.

``encrypt_with_ephemeral`` is the hook for the Kurosawa multi-recipient
optimization of the prototype (§5.1): one ephemeral scalar shared across the
``L`` bit ciphertexts destined for the same recipient saves ``L - 1``
exponentiations per subshare at the cost of needing ``L`` public keys
(:meth:`repro.transfer.protocol.MessageTransferProtocol.sender_encrypt`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.crypto.dlog import DlogTable
from repro.crypto.group import CyclicGroup, default_group
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CryptoError

__all__ = [
    "KeyPair",
    "Ciphertext",
    "ElGamal",
    "ExponentialElGamal",
    "CountingGroup",
]


@dataclass(frozen=True)
class KeyPair:
    """An ElGamal key pair: secret scalar ``x`` and public element ``g**x``."""

    secret: int
    public: Any


@dataclass(frozen=True)
class Ciphertext:
    """An ElGamal ciphertext ``(c1, c2) = (g**y, m * h**y)``."""

    c1: Any
    c2: Any

    def size_bytes(self, group: CyclicGroup) -> int:
        """Wire size of this ciphertext; both halves are group elements."""
        return 2 * group.element_size_bytes


class ElGamal:
    """Multiplicatively homomorphic ElGamal over an arbitrary DDH group."""

    def __init__(self, group: Optional[CyclicGroup] = None) -> None:
        self.group = group if group is not None else default_group()

    def keygen(self, rng: DeterministicRNG) -> KeyPair:
        """Generate a key pair ``(x, g**x)``."""
        x = self.group.random_scalar(rng)
        return KeyPair(secret=x, public=self.group.power_of_g(x))

    def encrypt(self, public_key: Any, message: Any, rng: DeterministicRNG) -> Ciphertext:
        """Encrypt a *group element* under ``public_key``."""
        y = self.group.random_scalar(rng)
        return self.encrypt_with_ephemeral(public_key, message, y)

    def encrypt_with_ephemeral(self, public_key: Any, message: Any, ephemeral: int) -> Ciphertext:
        """Encrypt with a caller-chosen ephemeral scalar (Kurosawa reuse)."""
        g = self.group
        return Ciphertext(c1=g.power_of_g(ephemeral), c2=g.mul(message, g.exp(public_key, ephemeral)))

    def decrypt(self, secret_key: int, ciphertext: Ciphertext) -> Any:
        """Recover the group element ``m`` from ``(c1, c2)``."""
        g = self.group
        # c1**(q - x) is the inverse of the shared secret c1**x
        return g.mul(ciphertext.c2, g.exp(ciphertext.c1, g.order - secret_key))

    def multiply(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic product: decrypts to the product of the plaintexts."""
        g = self.group
        return Ciphertext(c1=g.mul(a.c1, b.c1), c2=g.mul(a.c2, b.c2))

    def rerandomize_key(self, public_key: Any, neighbor_key: int) -> Any:
        """Raise ``g**x`` to ``r`` yielding the re-randomized key ``g**(xr)``.

        Used by the trusted party to build block certificates (§3.4): the
        sender sees only ``g**(xr)`` and cannot link it to ``g**x``.
        """
        if not (0 < neighbor_key < self.group.order):
            raise CryptoError("neighbor key must be a nonzero scalar")
        return self.group.exp(public_key, neighbor_key)

    def adjust(self, ciphertext: Ciphertext, neighbor_key: int) -> Ciphertext:
        """Raise the ephemeral half to ``r`` so the original key decrypts.

        A ciphertext under ``g**(xr)`` is ``(g**y, m g**(xry))``; raising
        ``c1`` to ``r`` gives ``(g**(ry), m g**(x ry))`` — a valid ciphertext
        under ``g**x``. Performed by the edge endpoint ``j`` (§3.5) without
        any knowledge of ``x``.
        """
        return Ciphertext(c1=self.group.exp(ciphertext.c1, neighbor_key), c2=ciphertext.c2)


class ExponentialElGamal(ElGamal):
    """Additively homomorphic ElGamal: encrypts ``g**m`` for integer ``m``.

    Parameters
    ----------
    group:
        Underlying DDH group.
    dlog_half_width:
        Half-width of the decryption lookup table (Appendix B ``N_l/2``).
        Decryption of values outside ``[-half, half]`` raises
        :class:`~repro.exceptions.DecryptionError` — the protocol failure
        event whose probability the paper bounds.
    """

    def __init__(self, group: Optional[CyclicGroup] = None, dlog_half_width: int = 4096) -> None:
        super().__init__(group)
        self._dlog = DlogTable(self.group, dlog_half_width)

    @property
    def dlog_table(self) -> DlogTable:
        return self._dlog

    def encrypt_int(self, public_key: Any, value: int, rng: DeterministicRNG) -> Ciphertext:
        """Encrypt the integer ``value`` as ``g**value``."""
        return self.encrypt(public_key, self.group.power_of_g(value), rng)

    def decrypt_int(self, secret_key: int, ciphertext: Ciphertext) -> int:
        """Recover the integer plaintext via the bounded dlog table."""
        return self._dlog.recover(self.decrypt(secret_key, ciphertext))

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Homomorphic addition: decrypts to the sum of the plaintexts."""
        return self.multiply(a, b)

    def add_plain(self, ciphertext: Ciphertext, value: int) -> Ciphertext:
        """Homomorphically add a *public* integer to a ciphertext.

        This is the operation node ``i`` uses to inject geometric noise in
        the final transfer protocol (§3.5): it multiplies ``c2`` by
        ``g**value``, leaving the ephemeral half untouched.
        """
        g = self.group
        return Ciphertext(c1=ciphertext.c1, c2=g.mul(ciphertext.c2, g.power_of_g(value)))

    def sum_ciphertexts(self, ciphertexts: Sequence[Ciphertext]) -> Ciphertext:
        """Homomorphic sum of one or more ciphertexts."""
        if not ciphertexts:
            raise CryptoError("cannot sum zero ciphertexts")
        total = ciphertexts[0]
        for ct in ciphertexts[1:]:
            total = self.add(total, ct)
        return total


class CountingGroup(CyclicGroup):
    """Wrapper that counts group operations for the cost model.

    The paper's microbenchmarks show exponentiations dominating transfer
    cost (§5.2); the timing model in :mod:`repro.simulation.timing` is
    calibrated against counts collected through this wrapper.
    """

    def __init__(self, inner: CyclicGroup) -> None:
        self.inner = inner
        self.name = f"counting({inner.name})"
        self.order = inner.order
        self.exp_count = 0
        self.mul_count = 0
        self.inv_count = 0

    def reset(self) -> None:
        self.exp_count = 0
        self.mul_count = 0
        self.inv_count = 0

    @property
    def generator(self) -> Any:
        return self.inner.generator

    @property
    def identity(self) -> Any:
        return self.inner.identity

    def mul(self, a: Any, b: Any) -> Any:
        self.mul_count += 1
        return self.inner.mul(a, b)

    def exp(self, base: Any, exponent: int) -> Any:
        self.exp_count += 1
        return self.inner.exp(base, exponent)

    def power_of_g(self, exponent: int) -> Any:
        self.exp_count += 1
        return self.inner.power_of_g(exponent)

    def exp_grid(self, bases: Sequence[Any], exponents: Sequence[int]) -> List[List[Any]]:
        # a grid is still one exponentiation per cell to the cost model
        self.exp_count += len(bases) * len(exponents)
        return self.inner.exp_grid(bases, exponents)

    def inv(self, a: Any) -> Any:
        self.inv_count += 1
        return self.inner.inv(a)

    def is_element(self, a: Any) -> bool:
        return self.inner.is_element(a)

    def element_to_bytes(self, a: Any) -> bytes:
        return self.inner.element_to_bytes(a)

    def element_from_bytes(self, data: bytes) -> Any:
        return self.inner.element_from_bytes(data)

    @property
    def element_size_bytes(self) -> int:
        return self.inner.element_size_bytes
