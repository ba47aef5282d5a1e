"""Arithmetic circuit builder: adders, comparators, multipliers, dividers.

The Eisenberg-Noe and Elliott-Golub-Jackson update functions (Figure 2) need
fixed-point addition, subtraction, comparison, multiplication and division.
This module lowers those operations onto the Boolean IR in
:mod:`repro.mpc.circuit` using standard constructions:

* ripple-carry adders (1 AND gate per bit: ``carry' = c ^ ((a^c) & (b^c))``;
  a wrapping add never builds the carry out of its top bit),
* two's-complement subtraction and sign-conditional negation (one
  half-adder chain, no multiplexer),
* borrow-based comparators (signed = unsigned with the sign bits flipped),
* shift-and-add multipliers that build only the product bits asked for,
* restoring long division whose row ``k`` is ``k + 1`` bits wide,
* 1-AND-per-bit multiplexers.

AND gates are what GMW pays for (one OT per ordered party pair each, one
round per AND layer), so every construction here is sized by its AND count
and AND depth; ``tests/test_circuit_bill.py`` pins both per primitive.

Buses are lists of wire ids, least-significant bit first. All operations
are data-oblivious by construction — there is no data-dependent control
flow, which is exactly the §3.7 restriction on DStress update functions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.exceptions import CircuitError
from repro.mpc.circuit import Circuit

__all__ = ["CircuitBuilder"]

Bus = List[int]


class CircuitBuilder:
    """Ergonomic facade over :class:`Circuit` for multi-bit arithmetic."""

    def __init__(self, circuit: Optional[Circuit] = None) -> None:
        self.circuit = circuit if circuit is not None else Circuit()

    # -- bus plumbing -------------------------------------------------------

    def input_bus(self, name: str, width: int) -> Bus:
        """Declare a named input bus."""
        return self.circuit.add_input_bus(name, width)

    def output_bus(self, name: str, bus: Bus) -> None:
        """Expose a bus as a named circuit output."""
        self.circuit.mark_output_bus(name, bus)

    def const_bus(self, value: int, width: int) -> Bus:
        """A bus wired to a public constant (two's complement if negative)."""
        value &= (1 << width) - 1
        c = self.circuit
        return [c.one if (value >> i) & 1 else c.zero for i in range(width)]

    def zero_extend(self, bus: Bus, width: int) -> Bus:
        if width < len(bus):
            raise CircuitError("zero_extend cannot shrink a bus")
        return list(bus) + [self.circuit.zero] * (width - len(bus))

    def sign_extend(self, bus: Bus, width: int) -> Bus:
        if width < len(bus):
            raise CircuitError("sign_extend cannot shrink a bus")
        return list(bus) + [bus[-1]] * (width - len(bus))

    def truncate(self, bus: Bus, width: int) -> Bus:
        """Keep the low ``width`` bits."""
        return list(bus[:width])

    def shift_left_const(self, bus: Bus, amount: int) -> Bus:
        """Shift left by a public constant, widening the bus."""
        return [self.circuit.zero] * amount + list(bus)

    def shift_right_const(self, bus: Bus, amount: int, signed: bool = False) -> Bus:
        """Shift right by a public constant, keeping the width."""
        if amount >= len(bus):
            fill = bus[-1] if signed else self.circuit.zero
            return [fill] * len(bus)
        high = bus[-1] if signed else self.circuit.zero
        return list(bus[amount:]) + [high] * amount

    # -- bitwise ------------------------------------------------------------

    def _pairwise(self, a: Bus, b: Bus) -> Tuple[Bus, Bus]:
        width = max(len(a), len(b))
        return self.zero_extend(a, width), self.zero_extend(b, width)

    def bitwise_xor(self, a: Bus, b: Bus) -> Bus:
        a, b = self._pairwise(a, b)
        return [self.circuit.xor(x, y) for x, y in zip(a, b)]

    def bitwise_and(self, a: Bus, b: Bus) -> Bus:
        a, b = self._pairwise(a, b)
        return [self.circuit.and_(x, y) for x, y in zip(a, b)]

    def bitwise_not(self, a: Bus) -> Bus:
        return [self.circuit.inv(x) for x in a]

    # -- addition / subtraction ---------------------------------------------

    def _full_adder(self, a: int, b: int, carry: int) -> Tuple[int, int]:
        """Return (sum, carry_out); 1 AND gate."""
        c = self.circuit
        a_xor_c = c.xor(a, carry)
        total = c.xor(a_xor_c, b)
        carry_out = c.xor(carry, c.and_(a_xor_c, c.xor(b, carry)))
        return total, carry_out

    def add(self, a: Bus, b: Bus, width: Optional[int] = None, carry_in: Optional[int] = None) -> Bus:
        """Ripple-carry addition. ``width`` defaults to max operand width
        (the carry out is dropped, i.e. wraparound arithmetic)."""
        if width is None:
            width = max(len(a), len(b))
        a = self.zero_extend(self.truncate(a, width), width)
        b = self.zero_extend(self.truncate(b, width), width)
        if not width:
            return []
        c = self.circuit
        out, carry = self.add_with_carry(a[:-1], b[:-1], carry_in)
        return out + [c.xor(c.xor(a[-1], carry), b[-1])]

    def add_with_carry(self, a: Bus, b: Bus, carry_in: Optional[int] = None) -> Tuple[Bus, int]:
        """Like :meth:`add` but also returns the final carry-out wire."""
        width = max(len(a), len(b))
        a = self.zero_extend(a, width)
        b = self.zero_extend(b, width)
        carry = carry_in if carry_in is not None else self.circuit.zero
        out = []
        for x, y in zip(a, b):
            bit, carry = self._full_adder(x, y, carry)
            out.append(bit)
        return out, carry

    def negate(self, a: Bus) -> Bus:
        """Two's-complement negation: ``~a + 1``."""
        return self.negate_if(self.circuit.one, a)

    def negate_if(self, negative: int, a: Bus) -> Bus:
        """``-a`` where the wire ``negative`` is 1, else ``a``:
        ``(a ^ negative) + negative``, one AND per bit and no mux."""
        c = self.circuit
        flipped = [c.xor(x, negative) for x in a]
        return self.add(flipped, self.const_bus(0, len(a)), carry_in=negative)

    def sub(self, a: Bus, b: Bus, width: Optional[int] = None) -> Bus:
        """Two's-complement subtraction ``a - b`` (wraparound)."""
        if width is None:
            width = max(len(a), len(b))
        a = self.zero_extend(self.truncate(a, width), width)
        b = self.zero_extend(self.truncate(b, width), width)
        return self.add(a, self.bitwise_not(b), width=width, carry_in=self.circuit.one)

    def sub_with_borrow(self, a: Bus, b: Bus) -> Tuple[Bus, int]:
        """Return (a - b, borrow): borrow is 1 iff a < b (unsigned)."""
        width = max(len(a), len(b))
        a = self.zero_extend(a, width)
        b = self.zero_extend(b, width)
        diff, carry = self.add_with_carry(a, self.bitwise_not(b), carry_in=self.circuit.one)
        return diff, self.circuit.inv(carry)

    # -- comparison -----------------------------------------------------------

    def lt_unsigned(self, a: Bus, b: Bus) -> int:
        """Wire that is 1 iff ``a < b`` as unsigned integers."""
        _, borrow = self.sub_with_borrow(a, b)
        return borrow

    def lt_signed(self, a: Bus, b: Bus) -> int:
        """Wire that is 1 iff ``a < b`` as two's-complement integers."""
        width = max(len(a), len(b))
        a = self.sign_extend(a, width)
        b = self.sign_extend(b, width)
        c = self.circuit
        # adding 2**(width-1) to both (flip the sign bits) maps signed
        # order onto unsigned order
        return self.lt_unsigned(a[:-1] + [c.inv(a[-1])], b[:-1] + [c.inv(b[-1])])

    def eq(self, a: Bus, b: Bus) -> int:
        """Wire that is 1 iff ``a == b``."""
        a, b = self._pairwise(a, b)
        c = self.circuit
        bits = [c.inv(c.xor(x, y)) for x, y in zip(a, b)]
        return self.and_tree(bits)

    def and_tree(self, bits: Sequence[int]) -> int:
        """Balanced AND of many bits (log depth)."""
        c = self.circuit
        nodes = list(bits)
        if not nodes:
            return c.one
        while len(nodes) > 1:
            nxt = []
            for i in range(0, len(nodes) - 1, 2):
                nxt.append(c.and_(nodes[i], nodes[i + 1]))
            if len(nodes) % 2:
                nxt.append(nodes[-1])
            nodes = nxt
        return nodes[0]

    def or_tree(self, bits: Sequence[int]) -> int:
        """Balanced OR of many bits (log depth)."""
        c = self.circuit
        nodes = list(bits)
        if not nodes:
            return c.zero
        while len(nodes) > 1:
            nxt = []
            for i in range(0, len(nodes) - 1, 2):
                nxt.append(c.or_(nodes[i], nodes[i + 1]))
            if len(nodes) % 2:
                nxt.append(nodes[-1])
            nodes = nxt
        return nodes[0]

    def is_zero(self, a: Bus) -> int:
        return self.circuit.inv(self.or_tree(a))

    def is_negative(self, a: Bus) -> int:
        """Sign bit of a two's-complement bus."""
        return a[-1]

    # -- selection -------------------------------------------------------------

    def mux(self, select: int, when_true: Bus, when_false: Bus) -> Bus:
        """Per-bit 2:1 mux: 1 AND per bit."""
        when_true, when_false = self._pairwise(when_true, when_false)
        c = self.circuit
        return [
            c.xor(f, c.and_(select, c.xor(f, t)))
            for t, f in zip(when_true, when_false)
        ]

    def mux_bit(self, select: int, when_true: int, when_false: int) -> int:
        c = self.circuit
        return c.xor(when_false, c.and_(select, c.xor(when_false, when_true)))

    def min_unsigned(self, a: Bus, b: Bus) -> Bus:
        return self.mux(self.lt_unsigned(a, b), a, b)

    def max_unsigned(self, a: Bus, b: Bus) -> Bus:
        return self.mux(self.lt_unsigned(a, b), b, a)

    def min_signed(self, a: Bus, b: Bus) -> Bus:
        return self.mux(self.lt_signed(a, b), a, b)

    def max_signed(self, a: Bus, b: Bus) -> Bus:
        return self.mux(self.lt_signed(a, b), b, a)

    def abs_signed(self, a: Bus) -> Bus:
        """Absolute value of a two's-complement bus."""
        return self.negate_if(self.is_negative(a), a)

    def relu(self, a: Bus) -> Bus:
        """``max(a, 0)`` for a signed bus — used for shortfall clamping."""
        return self.mux(self.is_negative(a), self.const_bus(0, len(a)), a)

    # -- multiplication ----------------------------------------------------------

    def mul_full(self, a: Bus, b: Bus, width: Optional[int] = None) -> Bus:
        """Unsigned product of widths |a| and |b|: its low ``width`` bits
        (default all |a|+|b|). Partial products and adder cells that could
        only reach a bit at or above ``width`` are never built."""
        if width is None:
            width = len(a) + len(b)
        accumulator = self.const_bus(0, width)
        for position, b_bit in enumerate(b[:width]):
            row = [self.circuit.and_(a_bit, b_bit) for a_bit in a[: width - position]]
            shifted = self.zero_extend(self.shift_left_const(row, position), width)
            accumulator = self.add(accumulator, shifted, width=width)
        return accumulator

    def mul_full_signed(self, a: Bus, b: Bus) -> Bus:
        """Signed product via sign-and-magnitude around the unsigned core."""
        sign = self.circuit.xor(a[-1], b[-1])
        product = self.mul_full(self.abs_signed(a), self.abs_signed(b))
        return self.negate_if(sign, product)

    def mul(self, a: Bus, b: Bus, width: Optional[int] = None) -> Bus:
        """Unsigned product truncated to ``width`` (default max operand)."""
        if width is None:
            width = max(len(a), len(b))
        return self.mul_full(a, b, width=width)

    # -- division ------------------------------------------------------------------

    def div_unsigned(self, dividend: Bus, divisor: Bus) -> Tuple[Bus, Bus]:
        """Restoring long division; returns (quotient, remainder).

        Quotient has the dividend's width, remainder the divisor's. Row
        ``k`` (from the dividend's top bit) holds a running remainder
        below ``2**(k+1)``, so it subtracts and restores ``k + 1`` bits
        only (at most ``len(divisor) + 1``), against the divisor's low
        ``k + 1`` bits; a divisor with a higher bit set cannot fit, which
        one AND chain over the divisor, built once, tells every row.

        The behaviour on divisor == 0 is quotient of all ones (the
        comparison never restores) and the dividend's low bits as the
        remainder, which callers guard with an explicit mux when a zero
        divisor is possible — data-oblivious code cannot raise.
        """
        c = self.circuit
        width = len(divisor)
        # fits[j] is 1 iff divisor < 2**j, i.e. divisor bits >= j are zero
        fits = [c.one] * (width + 2)
        for j in range(width - 1, 0, -1):
            fits[j] = c.and_(fits[j + 1], c.inv(divisor[j]))
        remainder: Bus = []
        quotient_bits: List[int] = [c.zero] * len(dividend)
        for position in range(len(dividend) - 1, -1, -1):
            shifted = ([dividend[position]] + remainder)[: width + 1]
            live = len(shifted)
            difference, borrow = self.sub_with_borrow(shifted, divisor[:live])
            q_bit = c.and_(c.inv(borrow), fits[live])
            quotient_bits[position] = q_bit
            remainder = self.mux(q_bit, difference, shifted)
        return quotient_bits, self.zero_extend(remainder, width + 1)[:width]

    # -- debugging helpers -------------------------------------------------------------

    def stats(self):
        """Statistics of the underlying circuit."""
        return self.circuit.stats()
