"""Tests for the Boolean circuit IR and its plaintext evaluator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.exceptions import CircuitError
from repro.mpc.circuit import Circuit, GateOp


class TestConstruction:
    def test_constants_present(self):
        circuit = Circuit()
        assert circuit.zero == 0
        assert circuit.one == 1
        assert circuit.num_wires == 2

    def test_input_bus_wires(self):
        circuit = Circuit()
        wires = circuit.add_input_bus("a", 4)
        assert len(wires) == 4
        assert circuit.input_buses["a"] == wires

    def test_duplicate_bus_rejected(self):
        circuit = Circuit()
        circuit.add_input_bus("a", 2)
        with pytest.raises(CircuitError):
            circuit.add_input_bus("a", 2)

    def test_zero_width_rejected(self):
        with pytest.raises(CircuitError):
            Circuit().add_input_bus("a", 0)

    def test_duplicate_output_rejected(self):
        circuit = Circuit()
        wires = circuit.add_input_bus("a", 1)
        circuit.mark_output_bus("out", wires)
        with pytest.raises(CircuitError):
            circuit.mark_output_bus("out", wires)

    def test_out_of_range_wire_rejected(self):
        circuit = Circuit()
        with pytest.raises(CircuitError):
            circuit.mark_output_bus("out", [999])


class TestConstantFolding:
    def test_xor_folds(self):
        circuit = Circuit()
        (a,) = circuit.add_input_bus("a", 1)
        assert circuit.xor(a, circuit.zero) == a
        assert circuit.xor(circuit.zero, a) == a
        assert circuit.xor(a, a) == circuit.zero
        assert len(circuit.gates) == 0

    def test_xor_with_one_becomes_not(self):
        circuit = Circuit()
        (a,) = circuit.add_input_bus("a", 1)
        out = circuit.xor(a, circuit.one)
        assert circuit.gates[-1].op is GateOp.NOT

    def test_and_folds(self):
        circuit = Circuit()
        (a,) = circuit.add_input_bus("a", 1)
        assert circuit.and_(a, circuit.zero) == circuit.zero
        assert circuit.and_(a, circuit.one) == a
        assert circuit.and_(a, a) == a
        assert len(circuit.gates) == 0

    def test_not_folds(self):
        circuit = Circuit()
        assert circuit.inv(circuit.zero) == circuit.one
        assert circuit.inv(circuit.one) == circuit.zero


class TestEvaluation:
    def test_truth_tables(self):
        for op, fn in [
            ("xor", lambda a, b: a ^ b),
            ("and", lambda a, b: a & b),
            ("or", lambda a, b: a | b),
        ]:
            circuit = Circuit()
            (a,) = circuit.add_input_bus("a", 1)
            (b,) = circuit.add_input_bus("b", 1)
            out = {
                "xor": circuit.xor,
                "and": circuit.and_,
                "or": circuit.or_,
            }[op](a, b)
            circuit.mark_output_bus("out", [out])
            for x in (0, 1):
                for y in (0, 1):
                    assert circuit.evaluate({"a": x, "b": y})["out"] == fn(x, y), op

    def test_missing_input_rejected(self):
        circuit = Circuit()
        circuit.add_input_bus("a", 1)
        with pytest.raises(CircuitError):
            circuit.evaluate({})

    def test_inputs_masked_to_width(self):
        circuit = Circuit()
        wires = circuit.add_input_bus("a", 4)
        circuit.mark_output_bus("out", wires)
        assert circuit.evaluate({"a": 0x1F})["out"] == 0xF


def random_circuit(draw):
    """A random DAG over 1-3 input buses (one wider than a machine word),
    constants included, with two output buses of arbitrary wires."""
    circuit = Circuit()
    for index, width in enumerate(draw(st.lists(st.sampled_from([1, 3, 8, 70]), min_size=1, max_size=3))):
        circuit.add_input_bus(f"in{index}", width)
    pick = st.integers(min_value=0)
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        op = draw(st.sampled_from(list(GateOp)))
        a = draw(pick) % circuit.num_wires
        b = draw(pick) % circuit.num_wires
        circuit.add_gate(op, a, b)
    for name in ("out0", "out1"):
        wires = [w % circuit.num_wires for w in draw(st.lists(pick, min_size=1, max_size=9))]
        circuit.mark_output_bus(name, wires)
    return circuit


def reference_evaluate(circuit, inputs):
    """One instance, one bit per wire, gate by gate — what
    ``Circuit.evaluate`` was before the lane form."""
    values = [0] * circuit.num_wires
    values[circuit.one] = 1
    for name, wires in circuit.input_buses.items():
        for position, wire in enumerate(wires):
            values[wire] = (inputs[name] >> position) & 1
    for gate in circuit.gates:
        if gate.op is GateOp.XOR:
            values[gate.out] = values[gate.a] ^ values[gate.b]
        elif gate.op is GateOp.AND:
            values[gate.out] = values[gate.a] & values[gate.b]
        else:
            values[gate.out] = values[gate.a] ^ 1
    return {
        name: sum(values[wire] << position for position, wire in enumerate(wires))
        for name, wires in circuit.output_buses.items()
    }


class TestEvaluateMany:
    """``evaluate_many`` is the one clear evaluator: lane ``l`` of every
    wire word is instance ``l``, so any number of instances is one walk."""

    @given(st.data(), st.sampled_from([0, 1, 2, 63, 64, 65, 200]))
    @settings(max_examples=scale(40), deadline=None)
    def test_equals_per_instance_evaluation(self, data, lanes):
        circuit = data.draw(st.composite(random_circuit)())
        # values wider than their bus (and negative ones) are masked
        value = st.integers(min_value=-(1 << 72), max_value=1 << 72)
        inputs_list = [
            {name: data.draw(value) for name in circuit.input_buses} for _ in range(lanes)
        ]
        got = circuit.evaluate_many(inputs_list)
        assert len(got) == lanes
        for inputs, outputs in zip(inputs_list, got):
            assert outputs == circuit.evaluate(inputs) == reference_evaluate(circuit, inputs)
            assert list(outputs) == list(circuit.output_buses)

    def test_missing_bus_in_any_lane_rejected(self):
        circuit = Circuit()
        circuit.mark_output_bus("out", circuit.add_input_bus("a", 2))
        with pytest.raises(CircuitError, match="missing input bus 'a'"):
            circuit.evaluate_many([{"a": 1}, {}, {"a": 2}])

    def test_no_lanes_is_no_work(self):
        circuit = Circuit()
        circuit.add_input_bus("a", 2)
        assert circuit.evaluate_many([]) == []

    def test_empty_output_bus_reads_zero_in_every_lane(self):
        circuit = Circuit()
        wires = circuit.add_input_bus("a", 2)
        circuit.mark_output_bus("none", [])
        circuit.mark_output_bus("out", wires)
        assert circuit.evaluate({"a": 3}) == {"none": 0, "out": 3}
        assert circuit.evaluate_many([{"a": 1}, {"a": 2}]) == [
            {"none": 0, "out": 1},
            {"none": 0, "out": 2},
        ]

    def test_sealed_circuit_evaluates(self):
        circuit = Circuit()
        a, b = circuit.add_input_bus("a", 2)
        circuit.mark_output_bus("out", [circuit.and_(a, b), circuit.inv(a)])
        circuit.compile()
        assert [o["out"] for o in circuit.evaluate_many([{"a": v} for v in range(4)])] == [
            2,
            0,
            2,
            1,
        ]


class TestStats:
    def test_gate_counts(self):
        circuit = Circuit()
        (a,) = circuit.add_input_bus("a", 1)
        (b,) = circuit.add_input_bus("b", 1)
        x = circuit.xor(a, b)
        y = circuit.and_(x, b)
        circuit.inv(y)
        stats = circuit.stats()
        assert stats.xor_gates == 1
        assert stats.and_gates == 1
        assert stats.not_gates == 1
        assert stats.total_gates == 3

    def test_and_depth_chain(self):
        circuit = Circuit()
        (a,) = circuit.add_input_bus("a", 1)
        (b,) = circuit.add_input_bus("b", 1)
        x = a
        for _ in range(5):
            x = circuit.add_gate(GateOp.AND, x, b)
        assert circuit.stats().and_depth == 5

    def test_xor_does_not_add_depth(self):
        circuit = Circuit()
        (a,) = circuit.add_input_bus("a", 1)
        (b,) = circuit.add_input_bus("b", 1)
        x = circuit.add_gate(GateOp.AND, a, b)
        for _ in range(10):
            x = circuit.add_gate(GateOp.XOR, x, b)
        assert circuit.stats().and_depth == 1
