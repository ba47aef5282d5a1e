"""Fixed-point arithmetic: the numeric representation inside MPC.

The paper's prototype used 12-bit shares (§5.1); model values (cash, debts,
valuations) are real numbers, so the vertex programs encode them in L-bit
two's-complement fixed point with F fractional bits. This module defines the
encoding, a plaintext mirror of every circuit operation (used as the
bit-exact oracle in tests), and the fixed-point extensions to
:class:`~repro.mpc.builder.CircuitBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

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

    def fx_add(self, a: Bus, b: Bus) -> Bus:
        return self.add(a, b, width=self.fmt.total_bits)

    def fx_sub(self, a: Bus, b: Bus) -> Bus:
        return self.sub(a, b, width=self.fmt.total_bits)


def _self_test() -> None:  # pragma: no cover - quick manual check
    fmt = FixedPointFormat(16, 8)
    assert fmt.decode(fmt.encode(1.5)) == 1.5
    assert fmt.fx_mul(fmt.encode(1.5), fmt.encode(2.0)) == fmt.encode(3.0)


if __name__ == "__main__":  # pragma: no cover
    _self_test()
