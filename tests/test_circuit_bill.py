"""The circuit bill: every arithmetic primitive is *right* on every input at
small widths, and *costs* no more AND gates / AND rounds than DESIGN.md says.

GMW pays one OT per AND gate per ordered party pair and one round per AND
layer, so a builder change that adds gates is a traffic and latency
regression on every secure run. The table in DESIGN.md ("Parameter notes",
between the ``circuit-bill`` markers) is the single record of what each
circuit costs; this file reads it from there — the doc cannot drift from
the test — and fails when a circuit gets more expensive than its row.

The exhaustive checks run the plaintext circuit on *all* inputs at once:
wire values are Python integers used as bit vectors, one bit per input
combination (the same lane idea as :mod:`repro.mpc.bitslice`, without
numpy or the stage schedule, so it is an independent oracle for both).
"""

from __future__ import annotations

import math
import random
import re
from pathlib import Path

import pytest

from repro.finance.eisenberg_noe import EisenbergNoeProgram
from repro.finance.elliott_golub_jackson import ElliottGolubJacksonProgram
from repro.mpc.builder import CircuitBuilder
from repro.mpc.circuit import GateOp
from repro.mpc.fixedpoint import FixedPointBuilder, FixedPointFormat

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"


# ------------------------------------------------------ all inputs at once --


def truth_tables(circuit):
    """``values, lanes``: ``values[w]`` has bit ``l`` set iff wire ``w`` is 1
    when the input buses, concatenated in declaration order (first bus in
    the low bits), hold the integer ``l``."""
    wires = [w for bus in circuit.input_buses.values() for w in bus]
    lanes = 1 << len(wires)
    full = (1 << lanes) - 1
    values = [0] * circuit.num_wires
    values[circuit.one] = full
    for k, wire in enumerate(wires):
        period = 2 << k  # 2**k zeros then 2**k ones, repeated
        block = ((1 << (1 << k)) - 1) << (1 << k)
        values[wire] = block * (full // ((1 << period) - 1))
    for op, a, b, out in circuit.gates:
        if op is GateOp.XOR:
            values[out] = values[a] ^ values[b]
        elif op is GateOp.AND:
            values[out] = values[a] & values[b]
        else:
            values[out] = values[a] ^ full
    return values, lanes


def run_all(builder, outputs):
    """``outputs`` maps a name to a bus (or a single wire); returns a list,
    one entry per input combination ``l``, of ``(inputs tuple, {name: int})``."""
    circuit = builder.circuit
    values, lanes = truth_tables(circuit)
    widths = [len(bus) for bus in circuit.input_buses.values()]
    planes = {
        name: [
            format(values[w], f"0{lanes}b")[::-1]
            for w in ([bus] if isinstance(bus, int) else bus)
        ]
        for name, bus in outputs.items()
    }
    rows = []
    for lane in range(lanes):
        inputs, rest = [], lane
        for width in widths:
            inputs.append(rest & ((1 << width) - 1))
            rest >>= width
        rows.append(
            (
                tuple(inputs),
                {
                    name: sum(1 << i for i, plane in enumerate(bits) if plane[lane] == "1")
                    for name, bits in planes.items()
                },
            )
        )
    return rows


def two_inputs(width_a, width_b):
    builder = CircuitBuilder()
    return builder, builder.input_bus("a", width_a), builder.input_bus("b", width_b)


def signed(value, width):
    value &= (1 << width) - 1
    return value - (1 << width) if value >> (width - 1) else value


WIDTHS = [(4, 4), (5, 5), (6, 6), (4, 6), (6, 3)]


class TestExhaustive:
    @pytest.mark.parametrize("wa,wb", WIDTHS)
    def test_add_sub_and_their_carries(self, wa, wb):
        builder, a, b = two_inputs(wa, wb)
        width = max(wa, wb)
        total, carry = builder.add_with_carry(a, b)
        diff, borrow = builder.sub_with_borrow(a, b)
        outputs = {
            "add": builder.add(a, b),
            "add_wide": builder.add(a, b, width=width + 2),
            "add_narrow": builder.add(a, b, width=3),
            "add_cin": builder.add(a, b, carry_in=builder.circuit.one),
            "sub": builder.sub(a, b),
            "sub_wide": builder.sub(a, b, width=width + 2),
            "total": total,
            "carry": carry,
            "diff": diff,
            "borrow": borrow,
        }
        mask = (1 << width) - 1
        for (x, y), got in run_all(builder, outputs):
            assert got == {
                "add": (x + y) & mask,
                "add_wide": x + y,
                "add_narrow": (x + y) & 7,
                "add_cin": (x + y + 1) & mask,
                "sub": (x - y) & mask,
                "sub_wide": (x - y) & ((1 << (width + 2)) - 1),
                "total": (x + y) & mask,
                "carry": (x + y) >> width,
                "diff": (x - y) & mask,
                "borrow": int(x < y),
            }, (x, y)

    @pytest.mark.parametrize("wa,wb", WIDTHS)
    def test_comparators(self, wa, wb):
        builder, a, b = two_inputs(wa, wb)
        outputs = {
            "ltu": builder.lt_unsigned(a, b),
            "lts": builder.lt_signed(a, b),
            "eq": builder.eq(a, b),
            "min_s": builder.min_signed(a, b),
            "max_u": builder.max_unsigned(a, b),
        }
        for (x, y), got in run_all(builder, outputs):
            sx, sy = signed(x, wa), signed(y, wb)  # lt_signed sign-extends both
            assert got == {
                "ltu": int(x < y),
                "lts": int(sx < sy),
                "eq": int(x == y),
                "min_s": x if sx < sy else y,  # the mux zero-extends the pattern
                "max_u": max(x, y),
            }, (x, y)

    @pytest.mark.parametrize("width", [1, 2, 4, 6])
    def test_negation_family(self, width):
        builder = CircuitBuilder()
        a = builder.input_bus("a", width)
        flag = builder.input_bus("flag", 1)
        outputs = {
            "neg": builder.negate(a),
            "neg_if": builder.negate_if(flag[0], a),
            "abs": builder.abs_signed(a),
            "relu": builder.relu(a),
        }
        mask = (1 << width) - 1
        for (x, f), got in run_all(builder, outputs):
            sx = signed(x, width)
            assert got == {
                "neg": -x & mask,
                "neg_if": (-x if f else x) & mask,
                "abs": abs(sx) & mask,  # min_raw stays min_raw
                "relu": max(sx, 0),
            }, (x, f)

    @pytest.mark.parametrize("wa,wb", WIDTHS)
    def test_mul_full_at_every_width(self, wa, wb):
        builder, a, b = two_inputs(wa, wb)
        widths = list(range(1, wa + wb + 1))
        outputs = {f"w{w}": builder.mul_full(a, b, width=w) for w in widths}
        outputs["full"] = builder.mul_full(a, b)
        outputs["mul"] = builder.mul(a, b)
        outputs["signed"] = builder.mul_full_signed(a, b)
        for (x, y), got in run_all(builder, outputs):
            want = {f"w{w}": (x * y) & ((1 << w) - 1) for w in widths}
            want["full"] = x * y
            want["mul"] = (x * y) & ((1 << max(wa, wb)) - 1)
            want["signed"] = (signed(x, wa) * signed(y, wb)) & ((1 << (wa + wb)) - 1)
            assert got == want, (x, y)

    @pytest.mark.parametrize("wa,wb", WIDTHS + [(8, 4), (3, 6), (1, 1), (7, 1)])
    def test_div_unsigned_divisor_zero_included(self, wa, wb):
        builder, a, b = two_inputs(wa, wb)
        quotient, remainder = builder.div_unsigned(a, b)
        assert (len(quotient), len(remainder)) == (wa, wb)
        for (x, y), got in run_all(builder, {"q": quotient, "r": remainder}):
            if y:
                assert got == {"q": x // y, "r": x % y}, (x, y)
            else:  # never restores: all-ones quotient, the dividend's low bits left
                assert got == {"q": (1 << wa) - 1, "r": x & ((1 << wb) - 1)}, x

    @pytest.mark.parametrize("total,fraction", [(4, 2), (5, 2), (6, 3), (6, 0), (5, 4)])
    def test_fx_mul_fx_div_match_the_integer_mirrors(self, total, fraction):
        fmt = FixedPointFormat(total, fraction)
        builder = FixedPointBuilder(fmt)
        a, b = builder.fx_input("a"), builder.fx_input("b")
        outputs = {"mul": builder.fx_mul(a, b), "div": builder.fx_div(a, b)}
        rows = run_all(builder, outputs)
        assert len(rows) == 4**total  # min_raw and a zero divisor are in there
        for (x, y), got in rows:
            sx, sy = fmt.from_unsigned(x), fmt.from_unsigned(y)
            assert got["mul"] == fmt.to_unsigned((sx * sy) >> fraction), (sx, sy)
            assert got["mul"] == fmt.to_unsigned(fmt.fx_mul(sx, sy))
            assert got["div"] == fmt.to_unsigned(fmt.fx_div(sx, sy)), (sx, sy)
            if sy:
                magnitude = (abs(sx) << fraction) // abs(sy)
                want = -magnitude if (sx < 0) != (sy < 0) else magnitude
                assert got["div"] == fmt.to_unsigned(want), (sx, sy)

    @pytest.mark.parametrize("total,fraction", [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (8, 6)])
    def test_fraction_primitives_match_fx_div_and_fx_mul_under_their_preconditions(
        self, total, fraction
    ):
        fmt = FixedPointFormat(total, fraction)
        builder = FixedPointBuilder(fmt)
        a, b = builder.fx_input("a"), builder.fx_input("b")
        outputs = {
            "frac_div": builder.fx_frac_div(a, b),
            "mul_frac": builder.fx_mul_frac(a, b),
            "mul": builder.fx_mul(a, b),
        }
        divisions = products = 0
        for (x, y), got in run_all(builder, outputs):
            sx, sy = fmt.from_unsigned(x), fmt.from_unsigned(y)
            if 0 <= sx < sy:
                divisions += 1
                assert got["frac_div"] == fmt.to_unsigned(fmt.fx_div(sx, sy)), (sx, sy)
            if sx >= 0 and 0 <= sy <= fmt.scale:
                products += 1
                assert got["mul_frac"] == got["mul"], (sx, sy)
                assert got["mul_frac"] == fmt.to_unsigned(fmt.fx_mul(sx, sy)), (sx, sy)
        # every pair 0 <= a < b, and every a >= 0 against every p in [0, 1.0]
        count = fmt.max_raw + 1
        assert divisions == count * (count - 1) // 2
        assert products == count * (fmt.scale + 1)


# ------------------------------------------------------ the EN update --


def reference_en_update_circuit(fmt, degree):
    """The EN update circuit as it was built before the fraction
    primitives, written out here rather than through
    ``build_update_circuit``: the wide sum saturated into the format, the
    full signed divider clamped into [0, 1], and full signed multiplies
    over all L bits of ``prorate``."""
    builder = FixedPointBuilder(fmt)
    prorate = builder.fx_input("prorate")
    cash = builder.fx_input("cash")
    total_debt = builder.fx_input("total_debt")
    builder.fx_input("shortfall")
    debts = [builder.fx_input(f"debt_{t}") for t in range(degree)]
    credits = [builder.fx_input(f"credit_{t}") for t in range(degree)]
    messages = [builder.fx_input(f"msg_in_{t}") for t in range(degree)]

    wide = fmt.total_bits + max(1, math.ceil(math.log2(degree + 1)) + 1)
    acc = builder.sign_extend(cash, wide)
    for t in range(degree):
        term = builder.sub(
            builder.sign_extend(credits[t], wide),
            builder.sign_extend(messages[t], wide),
            width=wide,
        )
        acc = builder.add(acc, term, width=wide)
    max_bus = builder.const_bus(fmt.max_raw, wide)
    min_bus = builder.const_bus(fmt.min_raw, wide)
    acc = builder.mux(builder.lt_signed(max_bus, acc), max_bus, acc)
    acc = builder.mux(builder.lt_signed(acc, min_bus), min_bus, acc)
    liquid = builder.truncate(acc, fmt.total_bits)

    zero, one = builder.fx_const(0.0), builder.fx_const(1.0)
    liquid_pos = builder.mux(builder.is_negative(liquid), zero, liquid)
    quotient = builder.fx_div(liquid_pos, total_debt)
    quotient = builder.mux(builder.lt_signed(one, quotient), one, quotient)
    quotient = builder.mux(builder.is_negative(quotient), zero, quotient)
    candidate = builder.mux(builder.is_zero(total_debt), prorate, quotient)
    prorate_new = builder.mux(builder.lt_signed(liquid, total_debt), candidate, prorate)
    one_minus = builder.fx_sub(one, prorate_new)

    builder.output_bus("prorate", prorate_new)
    builder.output_bus("cash", cash)
    builder.output_bus("total_debt", total_debt)
    builder.output_bus("shortfall", builder.fx_mul(total_debt, one_minus))
    for t in range(degree):
        builder.output_bus(f"debt_{t}", debts[t])
        builder.output_bus(f"credit_{t}", credits[t])
        builder.output_bus(f"msg_out_{t}", builder.fx_mul(debts[t], one_minus))
    return builder.circuit


def en_inputs(fmt, degree, rng):
    """Random and boundary EN register files over the whole reachable
    domain: debts and ``total_debt`` >= 0 (``initial_state`` refuses a
    negative debt), ``prorate`` in [0, 1], and cash, credits, messages
    and ``shortfall`` anywhere in the signed range."""
    lo, hi = fmt.min_raw, fmt.max_raw
    edges = [lo, lo + 1, -fmt.scale, -1, 0, 1, fmt.scale - 1, fmt.scale, hi - 1, hi]
    prorates = [0, 1, fmt.scale // 2, fmt.scale - 1, fmt.scale]

    def word(small, signed=True):
        floor = lo if signed else 0
        pick = rng.random()
        if pick < 0.2:
            return rng.choice([edge for edge in edges if edge >= floor])
        if pick < 0.6 and small:  # debts and claims of a few units: real defaults
            return rng.randint(0, 4 * fmt.scale)
        return rng.randint(floor, hi)

    samples = []
    for index in range(1500):
        registers = {
            "prorate": rng.choice(prorates) if index % 3 == 0 else rng.randint(0, fmt.scale),
            "cash": word(True),
            "shortfall": word(False),
        }
        for t in range(degree):
            registers[f"debt_{t}"] = word(True, signed=False)
            registers[f"credit_{t}"] = word(True)
            registers[f"msg_in_{t}"] = word(True)
        registers["total_debt"] = (
            fmt.saturate(sum(registers[f"debt_{t}"] for t in range(degree)))
            if index % 2
            else word(True, signed=False)
        )
        samples.append({name: fmt.to_unsigned(raw) for name, raw in registers.items()})
    return samples


@pytest.mark.parametrize("degree", [1, 3, 4, 11])
def test_en_update_is_bit_identical_to_the_clamped_divider_and_full_multiplies(degree):
    fmt = FixedPointFormat(L, F)
    circuit = EisenbergNoeProgram(fmt).build_update_circuit(degree)
    reference = reference_en_update_circuit(fmt, degree)
    assert reference.stats().and_gates > circuit.stats().and_gates

    samples = en_inputs(fmt, degree, random.Random(degree))
    got, want = circuit.evaluate_many(samples), reference.evaluate_many(samples)
    defaults = 0
    for registers, out, ref in zip(samples, got, want):
        assert out == ref, registers
        assert 0 <= fmt.from_unsigned(out["prorate"]) <= fmt.scale, registers
        defaults += out["prorate"] < registers["prorate"]
    assert defaults > 100  # the divider's quotient was taken, often


# ------------------------------------------------------------- the bill --

L, F = 16, 8


def primitive(name):
    builder = FixedPointBuilder(FixedPointFormat(L, F))
    x, y = builder.input_bus("x", L), builder.input_bus("y", L)
    buses = {
        "add": lambda: [builder.add(x, y)],
        "sub": lambda: [builder.sub(x, y)],
        "lt_unsigned": lambda: [[builder.lt_unsigned(x, y)]],
        "lt_signed": lambda: [[builder.lt_signed(x, y)]],
        "abs_signed": lambda: [builder.abs_signed(x)],
        "mux": lambda: [builder.mux(x[0], x, y)],
        "mul": lambda: [builder.mul(x, y)],
        "mul_full": lambda: [builder.mul_full(x, y)],
        "div_unsigned": lambda: list(builder.div_unsigned(x, y)),
        "fx_mul": lambda: [builder.fx_mul(x, y)],
        "fx_div": lambda: [builder.fx_div(x, y)],
        "fx_frac_div": lambda: [builder.fx_frac_div(x, y)],
        "fx_mul_frac": lambda: [builder.fx_mul_frac(x, y)],
    }[name]()
    for index, bus in enumerate(buses):
        builder.output_bus(f"out{index}", bus)
    return builder.circuit


def update_circuit(name):
    program, degree = re.fullmatch(r"(EN|EGJ) update, D = (\d+)", name).groups()
    cls = EisenbergNoeProgram if program == "EN" else ElliottGolubJacksonProgram
    return cls(FixedPointFormat(L, F)).build_update_circuit(int(degree))


def bill_rows():
    """``(circuit name, AND gates, AND depth)`` per row of DESIGN.md's table."""
    text = DESIGN.read_text(encoding="utf-8")
    table = text.split("<!-- circuit-bill:begin -->")[1].split("<!-- circuit-bill:end -->")[0]
    rows = []
    for line in table.strip().splitlines()[2:]:  # header + rule
        name, gates, depth = [cell.strip() for cell in line.strip().strip("|").split("|")][:3]
        rows.append((name.strip("`"), int(gates.replace(" ", "")), int(depth)))
    return rows


BILL = bill_rows()


class TestBill:
    def test_the_table_covers_the_primitives_and_both_programs(self):
        names = [name for name, _, _ in BILL]
        assert len(names) == len(set(names))
        for required in (
            "add", "lt_signed", "mul_full", "div_unsigned",
            "fx_mul", "fx_div", "fx_frac_div", "fx_mul_frac",
        ):
            assert required in names
        for program in ("EN", "EGJ"):
            for degree in (3, 4, 11):
                assert f"{program} update, D = {degree}" in names

    @pytest.mark.parametrize("name,and_gates,and_depth", BILL, ids=[row[0] for row in BILL])
    def test_no_circuit_costs_more_than_its_row(self, name, and_gates, and_depth):
        circuit = update_circuit(name) if "update" in name else primitive(name)
        stats = circuit.stats()
        assert stats.and_gates <= and_gates, "more OTs than DESIGN.md's bill allows"
        assert stats.and_depth <= and_depth, "more rounds than DESIGN.md's bill allows"
        # a record, not a loose ceiling: a cheaper circuit lowers its row
        assert (stats.and_gates, stats.and_depth) == (and_gates, and_depth)
