"""Tests for the Figure 2 vertex programs (float and circuit forms)."""

import pytest

from conftest import execute

from repro.crypto.rng import DeterministicRNG
from repro.finance import EisenbergNoeProgram, ElliottGolubJacksonProgram
from repro.mpc.fixedpoint import FixedPointFormat
from repro.mpc.gmw import GMWEngine


class TestRegisterLayout:
    def test_en_registers(self, fmt):
        program = EisenbergNoeProgram(fmt)
        registers = program.state_registers(3)
        assert "prorate" in registers and "shortfall" in registers
        assert "debt_2" in registers and "credit_2" in registers
        assert program.aggregate_register == "shortfall"

    def test_egj_registers(self, fmt):
        program = ElliottGolubJacksonProgram(fmt)
        registers = program.state_registers(2)
        assert {"value", "base", "orig_value", "threshold", "penalty"} <= set(registers)
        assert "insh_1" in registers and "orig_1" in registers

    def test_initial_state_covers_registers(self, small_en_network, fmt):
        program = EisenbergNoeProgram(fmt)
        graph = small_en_network.to_en_graph(degree_bound=2)
        for view in graph.vertices():
            state = program.initial_state(view, 2)
            assert set(state) == set(program.state_registers(2))

    def test_en_total_debt_initialized(self, small_en_network, fmt):
        program = EisenbergNoeProgram(fmt)
        graph = small_en_network.to_en_graph(degree_bound=2)
        state = program.initial_state(graph.vertex(0), 2)
        assert state["total_debt"] == pytest.approx(6.0)
        assert state["prorate"] == 1.0


class TestCircuitShape:
    @pytest.mark.parametrize("program_cls", [EisenbergNoeProgram, ElliottGolubJacksonProgram])
    def test_buses_match_contract(self, program_cls, fmt):
        program = program_cls(fmt)
        degree = 2
        circuit = program.build_update_circuit(degree)
        expected_inputs = set(program.state_registers(degree)) | {
            f"msg_in_{t}" for t in range(degree)
        }
        expected_outputs = set(program.state_registers(degree)) | {
            f"msg_out_{t}" for t in range(degree)
        }
        assert set(circuit.input_buses) == expected_inputs
        assert set(circuit.output_buses) == expected_outputs
        for wires in circuit.input_buses.values():
            assert len(wires) == fmt.total_bits

    def test_circuit_size_grows_with_degree(self, fmt):
        program = EisenbergNoeProgram(fmt)
        small = program.build_update_circuit(1).stats().and_gates
        large = program.build_update_circuit(4).stats().and_gates
        assert large > small

    def test_circuit_data_oblivious(self, fmt):
        """Same circuit topology regardless of inputs: gate count is a
        static property (no data-dependent control flow, §3.7)."""
        program = ElliottGolubJacksonProgram(fmt)
        c1 = program.build_update_circuit(2)
        c2 = program.build_update_circuit(2)
        assert len(c1.gates) == len(c2.gates)


class TestCircuitVsFloat:
    def test_en_circuit_tracks_float(self, small_en_network, fmt):
        program = EisenbergNoeProgram(fmt)
        graph = small_en_network.to_en_graph(degree_bound=2)
        view = graph.vertex(0)
        state_f = program.initial_state(view, 2)
        state_c = program.encode_state(state_f)
        messages_f = [0.0, 0.0]
        messages_c = [fmt.encode(0.0)] * 2
        for _ in range(3):
            state_f, out_f = program.float_update(state_f, messages_f, 2)
            state_c, out_c = program.circuit_update(state_c, messages_c, 2)
            for reg in program.state_registers(2):
                assert fmt.decode(state_c[reg]) == pytest.approx(state_f[reg], abs=0.05)
            messages_f = [min(m + 0.5, 1.5) for m in out_f]
            messages_c = [fmt.encode(fmt.decode(m) + 0.5 if fmt.decode(m) + 0.5 <= 1.5 else 1.5) for m in out_c]

    def test_egj_circuit_tracks_float(self, small_egj_network, fmt):
        program = ElliottGolubJacksonProgram(fmt)
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        float_run = execute("plaintext", program, graph, 4)
        fixed_run = execute("fixed", program, graph, 4)
        for vertex in float_run.final_states:
            assert fixed_run.final_states[vertex]["value"] == pytest.approx(
                float_run.final_states[vertex]["value"], abs=0.2
            )


class TestUnderGMW:
    """One computation step of each program under real GMW shares."""

    @pytest.mark.parametrize("program_cls", [EisenbergNoeProgram, ElliottGolubJacksonProgram])
    def test_gmw_step_matches_clear_circuit(self, program_cls, small_en_network, small_egj_network):
        fmt = FixedPointFormat(16, 8)
        program = program_cls(fmt)
        network = small_en_network if program_cls is EisenbergNoeProgram else small_egj_network
        graph = (
            network.to_en_graph(2)
            if program_cls is EisenbergNoeProgram
            else network.to_egj_graph(2)
        )
        rng = DeterministicRNG("gmw-step")
        circuit = program.build_update_circuit(2)
        engine = GMWEngine(3)
        view = graph.vertex(0)
        raw_state = program.encode_state(program.initial_state(view, 2))
        raw_messages = [fmt.encode(0.1), fmt.encode(0.0)]

        shares = {
            name: engine.share_input(fmt.to_unsigned(value), fmt.total_bits, rng)
            for name, value in raw_state.items()
        }
        for slot, message in enumerate(raw_messages):
            shares[f"msg_in_{slot}"] = engine.share_input(
                fmt.to_unsigned(message), fmt.total_bits, rng
            )
        result = engine.evaluate(circuit, shares, rng)

        clear_state, clear_out = program.circuit_update(raw_state, raw_messages, 2, circuit)
        for register, value in clear_state.items():
            assert fmt.from_unsigned(result.reveal(register)) == value
        for slot, message in enumerate(clear_out):
            assert fmt.from_unsigned(result.reveal(f"msg_out_{slot}")) == message
