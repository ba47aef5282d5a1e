"""Elliptic-curve groups (NIST P-256 / P-384) in pure Python.

The DStress prototype used the secp384r1 curve through OpenSSL. This module
provides the same curve (and the smaller P-256) as a :class:`CyclicGroup`, so
every protocol in the library can run over the paper's exact group when
fidelity matters more than speed.

Points are exposed as affine ``(x, y)`` tuples with ``None`` as the point at
infinity; scalar multiplication uses Jacobian projective coordinates with a
fixed 4-bit window to avoid per-step field inversions.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.crypto.group import CyclicGroup
from repro.exceptions import CryptoError

__all__ = ["EllipticCurveGroup", "P256", "P384", "secp256r1", "secp384r1"]

Point = Optional[Tuple[int, int]]


class EllipticCurveGroup(CyclicGroup):
    """Short Weierstrass curve ``y^2 = x^3 + ax + b`` over ``GF(p)``.

    The group is the full (prime) order-``n`` group of curve points, written
    multiplicatively to satisfy the :class:`CyclicGroup` interface: ``mul``
    is point addition and ``exp`` is scalar multiplication.
    """

    def __init__(self, name: str, p: int, a: int, b: int, gx: int, gy: int, n: int) -> None:
        self.name = name
        self.p = p
        self.a = a % p
        self.b = b % p
        self.order = n
        self._g = (gx, gy)
        self._field_bytes = (p.bit_length() + 7) // 8
        if not self._on_curve(self._g):
            raise CryptoError(f"{name}: generator is not on the curve (bad constants)")

    # -- curve arithmetic (affine wrappers over Jacobian internals) -------

    def _on_curve(self, pt: Point) -> bool:
        if pt is None:
            return True
        x, y = pt
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0

    def _to_jacobian(self, pt: Point) -> Tuple[int, int, int]:
        if pt is None:
            return (1, 1, 0)
        return (pt[0], pt[1], 1)

    def _from_jacobian(self, jac: Tuple[int, int, int]) -> Point:
        x, y, z = jac
        if z == 0:
            return None
        z_inv = pow(z, self.p - 2, self.p)
        z_inv2 = z_inv * z_inv % self.p
        return (x * z_inv2 % self.p, y * z_inv2 * z_inv % self.p)

    def _jac_double(self, jac: Tuple[int, int, int]) -> Tuple[int, int, int]:
        x, y, z = jac
        if z == 0 or y == 0:
            return (1, 1, 0)
        p = self.p
        ysq = y * y % p
        s = 4 * x * ysq % p
        m = (3 * x * x + self.a * pow(z, 4, p)) % p
        nx = (m * m - 2 * s) % p
        ny = (m * (s - nx) - 8 * ysq * ysq) % p
        nz = 2 * y * z % p
        return (nx, ny, nz)

    def _jac_add(self, p1: Tuple[int, int, int], p2: Tuple[int, int, int]) -> Tuple[int, int, int]:
        if p1[2] == 0:
            return p2
        if p2[2] == 0:
            return p1
        p = self.p
        x1, y1, z1 = p1
        x2, y2, z2 = p2
        z1sq = z1 * z1 % p
        z2sq = z2 * z2 % p
        u1 = x1 * z2sq % p
        u2 = x2 * z1sq % p
        s1 = y1 * z2sq * z2 % p
        s2 = y2 * z1sq * z1 % p
        if u1 == u2:
            if s1 != s2:
                return (1, 1, 0)
            return self._jac_double(p1)
        h = (u2 - u1) % p
        r = (s2 - s1) % p
        hsq = h * h % p
        hcu = hsq * h % p
        u1hsq = u1 * hsq % p
        nx = (r * r - hcu - 2 * u1hsq) % p
        ny = (r * (u1hsq - nx) - s1 * hcu) % p
        nz = h * z1 * z2 % p
        return (nx, ny, nz)

    def _jac_scalar_mul(self, pt: Point, k: int) -> Point:
        """4-bit fixed-window scalar multiplication."""
        k %= self.order
        if k == 0 or pt is None:
            return None
        base = self._to_jacobian(pt)
        # Precompute 1..15 multiples.
        table: list[Tuple[int, int, int]] = [(1, 1, 0), base]
        for _ in range(14):
            table.append(self._jac_add(table[-1], base))
        acc = (1, 1, 0)
        for shift in range(k.bit_length() + (-k.bit_length() % 4) - 4, -1, -4):
            for _ in range(4):
                acc = self._jac_double(acc)
            digit = (k >> shift) & 0xF
            if digit:
                acc = self._jac_add(acc, table[digit])
        return self._from_jacobian(acc)

    # -- CyclicGroup interface --------------------------------------------

    @property
    def generator(self) -> Point:
        return self._g

    @property
    def identity(self) -> Point:
        return None

    def mul(self, a: Point, b: Point) -> Point:
        return self._from_jacobian(self._jac_add(self._to_jacobian(a), self._to_jacobian(b)))

    def exp(self, base: Point, exponent: int) -> Point:
        return self._jac_scalar_mul(base, exponent)

    def inv(self, a: Point) -> Point:
        if a is None:
            return None
        x, y = a
        return (x, (-y) % self.p)

    def is_element(self, a: Point) -> bool:
        if a is None:
            return True
        if not (isinstance(a, tuple) and len(a) == 2):
            return False
        x, y = a
        return 0 <= x < self.p and 0 <= y < self.p and self._on_curve(a)

    def element_to_bytes(self, a: Point) -> bytes:
        """Compressed SEC1 encoding: 0x00 for infinity, 0x02/0x03 || x."""
        if a is None:
            return b"\x00" * (1 + self._field_bytes)
        x, y = a
        prefix = b"\x03" if y & 1 else b"\x02"
        return prefix + x.to_bytes(self._field_bytes, "big")

    def element_from_bytes(self, data: bytes) -> Point:
        if len(data) != 1 + self._field_bytes:
            raise CryptoError("bad point encoding length")
        if data[0] == 0:
            return None
        if data[0] not in (2, 3):
            raise CryptoError("bad point encoding prefix")
        x = int.from_bytes(data[1:], "big")
        rhs = (pow(x, 3, self.p) + self.a * x + self.b) % self.p
        # Both NIST primes satisfy p = 3 (mod 4), so sqrt is a single pow.
        y = pow(rhs, (self.p + 1) // 4, self.p)
        if y * y % self.p != rhs:
            raise CryptoError("x-coordinate is not on the curve")
        if (y & 1) != (data[0] & 1):
            y = self.p - y
        return (x, y)

    @property
    def element_size_bytes(self) -> int:
        return 1 + self._field_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EllipticCurveGroup({self.name})"


_P256_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF

P256 = EllipticCurveGroup(
    name="secp256r1",
    p=_P256_P,
    a=_P256_P - 3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
)

_P384_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFF0000000000000000FFFFFFFF

P384 = EllipticCurveGroup(
    name="secp384r1",
    p=_P384_P,
    a=_P384_P - 3,
    b=0xB3312FA7E23EE7E4988E056BE3F82D19181D9C6EFE8141120314088F5013875AC656398D8A2ED19D2A85C8EDD3EC2AEF,
    gx=0xAA87CA22BE8B05378EB1C71EF320AD746E1D3B628BA79B9859F741E082542A385502F25DBF55296C3A545E3872760AB7,
    gy=0x3617DE4A96262C6F5D9E98BF9292DC29F8F41DBD289A147CE9DA3113B5F0B8C00A60B1CE1D7E819D7A431D7C90EA0E5F,
    n=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFC7634D81F4372DDF581A0DB248B0A77AECEC196ACCC52973,
)

#: Aliases matching the OpenSSL curve names used in the paper (§5.1).
secp256r1 = P256
secp384r1 = P384
