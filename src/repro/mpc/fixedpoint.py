"""Fixed-point arithmetic: the numeric representation inside MPC.

The paper's prototype used 12-bit shares (§5.1); model values (cash, debts,
valuations) are real numbers, so the vertex programs encode them in L-bit
two's-complement fixed point with F fractional bits. This module defines the
encoding, a plaintext mirror of every circuit operation (used as the
bit-exact oracle in tests), and the fixed-point extensions to
:class:`~repro.mpc.builder.CircuitBuilder`.

Besides the general multiply and divide there are two fraction variants,
each bit-exact with its general form under a precondition the caller
guarantees by construction: :meth:`FixedPointBuilder.fx_frac_div` for
``0 <= a < b`` (the quotient has F bits, so F divider rows instead of
L + F) and :meth:`FixedPointBuilder.fx_mul_frac` for ``a >= 0`` and a
multiplier in ``[0, 1.0]`` (F partial-product rows instead of L, and the
``1.0`` row XORed in). Their operands are their own magnitudes, so
neither takes an ``abs`` or fixes up a sign. Their mirrors are
:meth:`FixedPointFormat.fx_div` and :meth:`FixedPointFormat.fx_mul`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import CircuitError
from repro.mpc.builder import Bus, CircuitBuilder

__all__ = ["FixedPointFormat", "FixedPointBuilder"]


@dataclass(frozen=True)
class FixedPointFormat:
    """An L-bit two's-complement fixed-point format with F fraction bits.

    A real value ``v`` is stored as ``round(v * 2**fraction_bits)``, clamped
    to the representable range. ``total_bits`` includes the sign bit.
    """

    total_bits: int = 16
    fraction_bits: int = 8

    def __post_init__(self) -> None:
        if self.total_bits < 2:
            raise CircuitError("need at least 2 bits (sign + magnitude)")
        if not (0 <= self.fraction_bits < self.total_bits):
            raise CircuitError("fraction bits must fit inside the word")

    @property
    def scale(self) -> int:
        """Integer scale factor ``2**fraction_bits``."""
        return 1 << self.fraction_bits

    @property
    def max_raw(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_raw(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def max_value(self) -> float:
        return self.max_raw / self.scale

    @property
    def min_value(self) -> float:
        return self.min_raw / self.scale

    @property
    def resolution(self) -> float:
        """Smallest representable increment (one LSB) in real units."""
        return 1.0 / self.scale

    # -- encoding -----------------------------------------------------------

    def encode(self, value: float) -> int:
        """Real value -> raw signed integer (clamped to the range)."""
        raw = round(value * self.scale)
        return max(self.min_raw, min(self.max_raw, raw))

    def decode(self, raw: int) -> float:
        """Raw signed integer -> real value."""
        return raw / self.scale

    def to_unsigned(self, raw: int) -> int:
        """Signed raw -> two's-complement bit pattern in [0, 2**L)."""
        return raw & ((1 << self.total_bits) - 1)

    def from_unsigned(self, pattern: int) -> int:
        """Two's-complement bit pattern -> signed raw."""
        pattern &= (1 << self.total_bits) - 1
        if pattern >> (self.total_bits - 1):
            pattern -= 1 << self.total_bits
        return pattern

    def wrap(self, raw: int) -> int:
        """Reduce an out-of-range raw value modulo 2**L (hardware wraparound)."""
        return self.from_unsigned(self.to_unsigned(raw))

    def saturate(self, raw: int) -> int:
        """Clamp a raw value into the representable range."""
        return max(self.min_raw, min(self.max_raw, raw))

    # -- plaintext mirrors of the circuit operations -------------------------

    def fx_mul(self, a: int, b: int) -> int:
        """Bit-exact mirror of the circuit's fixed-point multiply."""
        product = a * b
        return self.wrap(product >> self.fraction_bits)

    def fx_div(self, a: int, b: int) -> int:
        """Bit-exact mirror of the circuit's fixed-point divide.

        Matches restoring division on ``|a| << F`` by ``|b|`` followed by
        sign fixup; division by zero yields the all-ones quotient pattern,
        like the circuit.
        """
        if b == 0:
            # The restoring divider never restores against a zero divisor,
            # so the quotient pattern is all ones; the sign mux still fires
            # on the dividend's sign (b's sign bit is 0).
            all_ones = (1 << self.total_bits) - 1
            return self.wrap(-all_ones if a < 0 else all_ones)
        sign = (a < 0) != (b < 0)
        quotient = (abs(a) << self.fraction_bits) // abs(b)
        return self.wrap(-quotient if sign else quotient)


class FixedPointBuilder(CircuitBuilder):
    """Circuit builder with fixed-point multiply/divide in a fixed format."""

    def __init__(self, fmt: FixedPointFormat, circuit=None) -> None:
        super().__init__(circuit)
        self.fmt = fmt

    def fx_input(self, name: str) -> Bus:
        """Input bus in the fixed-point format."""
        return self.input_bus(name, self.fmt.total_bits)

    def fx_const(self, value: float) -> Bus:
        """Constant bus holding an encoded real value."""
        return self.const_bus(self.fmt.to_unsigned(self.fmt.encode(value)), self.fmt.total_bits)

    def fx_mul(self, a: Bus, b: Bus) -> Bus:
        """Signed fixed-point multiply: bits ``F .. F+L-1`` of the signed
        product. They depend on the low ``F + L`` bits of the magnitude
        product only (negation carries upward), so that is all that is
        multiplied out."""
        fmt = self.fmt
        if len(a) != fmt.total_bits or len(b) != fmt.total_bits:
            raise CircuitError("fx_mul operands must be in the fixed format")
        sign = self.circuit.xor(a[-1], b[-1])
        magnitude = self.mul_full(
            self.abs_signed(a), self.abs_signed(b), width=fmt.fraction_bits + fmt.total_bits
        )
        return self.negate_if(sign, magnitude)[fmt.fraction_bits :]

    def fx_div(self, a: Bus, b: Bus) -> Bus:
        """Signed fixed-point divide: ``(|a| << F) / |b|`` with sign fixup."""
        if len(a) != self.fmt.total_bits or len(b) != self.fmt.total_bits:
            raise CircuitError("fx_div operands must be in the fixed format")
        sign = self.circuit.xor(a[-1], b[-1])
        dividend = self.shift_left_const(self.abs_signed(a), self.fmt.fraction_bits)
        divisor = self.abs_signed(b)
        quotient, _ = self.div_unsigned(dividend, divisor)
        return self.negate_if(sign, self.truncate(quotient, self.fmt.total_bits))

    def fx_frac_div(self, a: Bus, b: Bus) -> Bus:
        """:meth:`fx_div` for ``0 <= a < b``: no ``abs``, no sign fix-up,
        and a quotient below 1, so the rows for its integer bits are
        skipped: the remainder starts at ``a`` and F rows produce the F
        fraction bits. A remainder is below ``b < 2**(L-1)``, so it is kept
        in L - 1 bits and doubled fits L: no "divisor fits" chain. The last
        row's remainder is never built. Bit-exact with :meth:`fx_div` under
        the precondition; outside it the result is meaningless."""
        fmt = self.fmt
        if len(a) != fmt.total_bits or len(b) != fmt.total_bits:
            raise CircuitError("fx_frac_div operands must be in the fixed format")
        c = self.circuit
        remainder = a[:-1]  # every remainder is below b, so its bit L-1 is 0
        quotient = [c.zero] * fmt.total_bits
        for position in range(fmt.fraction_bits - 1, -1, -1):
            shifted = [c.zero] + remainder
            difference, borrow = self.sub_with_borrow(shifted, b)
            quotient[position] = c.inv(borrow)
            if position:
                remainder = self.mux(quotient[position], difference[:-1], shifted[:-1])
        return quotient

    def fx_mul_frac(self, a: Bus, p: Bus) -> Bus:
        """:meth:`fx_mul` for ``a >= 0`` and ``0 <= p <= 1.0``: no ``abs``,
        no negation, and a product at most ``a``, whose sign bit is 0.
        ``a``'s L - 1 magnitude bits meet ``p``'s F fraction bits in
        partial-product rows; ``p``'s bit F is set only at ``p = 1.0``,
        where the other rows are 0, so ``a << F`` is XORed in without an
        adder. Bit-exact with :meth:`fx_mul` under the precondition."""
        fmt = self.fmt
        if len(a) != fmt.total_bits or len(p) != fmt.total_bits:
            raise CircuitError("fx_mul_frac operands must be in the fixed format")
        c = self.circuit
        f, magnitude_bits = fmt.fraction_bits, fmt.total_bits - 1
        product = self.mul_full(a[:magnitude_bits], p[:f], width=f + magnitude_bits)
        whole = [c.and_(bit, p[f]) for bit in a[:magnitude_bits]]
        return [c.xor(x, y) for x, y in zip(product[f:], whole)] + [c.zero]

    def fx_add(self, a: Bus, b: Bus) -> Bus:
        return self.add(a, b, width=self.fmt.total_bits)

    def fx_sub(self, a: Bus, b: Bus) -> Bus:
        return self.sub(a, b, width=self.fmt.total_bits)
