"""Tests for the Figure 2 vertex programs (float and circuit forms)."""

import math

import numpy as np
import pytest

from conftest import execute

from repro import StressTest
from repro.api.registry import available_engines
from repro.core.graph import DistributedGraph
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError
from repro.finance import (
    Bank,
    EisenbergNoeProgram,
    ElliottGolubJacksonProgram,
    FinancialNetwork,
)
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


def negative_debt_graph() -> DistributedGraph:
    """A debt ring built without ``FinancialNetwork``, whose contract
    validation would have refused the negative debt."""
    graph = DistributedGraph(degree_bound=1)
    for vertex in range(3):
        graph.add_vertex(vertex, cash=1.0)
    graph.add_edge(0, 1, debt=2.0)
    graph.add_edge(1, 2, debt=-0.5)
    graph.add_edge(2, 0, debt=1.0)
    return graph


class TestNegativeDebtIsRefused:
    """The EN update circuit's fraction primitives assume debts >= 0, so
    ``initial_state`` refuses a negative one on every engine."""

    def test_initial_state_names_the_vertex_and_slot(self, fmt):
        view = negative_debt_graph().vertex(1)
        with pytest.raises(ConfigurationError, match="vertex 1: negative debt -0.5 on out_debt_0"):
            EisenbergNoeProgram(fmt).initial_state(view, 1)

    @pytest.mark.parametrize("engine", available_engines())
    def test_every_engine_refuses_the_graph(self, engine):
        session = StressTest(negative_debt_graph()).program("eisenberg-noe").engine(engine)
        with pytest.raises(ConfigurationError, match="negative debt"):
            session.run(iterations=1)


NON_FINITE = (math.nan, math.inf, -math.inf)


def finance_chain(cash=1.0, debt=2.0, fraction=0.5, penalty=0.1):
    """Three banks in a debt and cross-holding chain; bank 0's cash, its
    debt, the holding and bank 0's penalty are the parameters."""
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=cash, orig_value=2.0, threshold=1.0, penalty=penalty))
    net.add_bank(Bank(1, cash=1.0, orig_value=2.0, threshold=1.0))
    net.add_bank(Bank(2, cash=1.0, orig_value=2.0, threshold=1.0))
    net.add_debt(0, 1, debt)
    net.add_debt(1, 2, 1.0)
    net.add_holding(1, 0, fraction)
    return net


class TestNonFiniteBalanceSheetsAreRefused:
    """No engine has a meaning for NaN or ±inf (the clear ones released
    0.0 or inf, the fixed-point ones failed to encode), so the network
    model refuses them where negative debt is refused."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize(
        "field", ["cash", "base_assets", "orig_value", "threshold", "penalty"]
    )
    def test_add_bank(self, field, value):
        net = FinancialNetwork()
        with pytest.raises(ConfigurationError, match=f"bank 7 {field} must be finite"):
            net.add_bank(Bank(7, **{field: value}))
        assert net.num_banks == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_add_debt_and_add_holding(self, value):
        with pytest.raises(ConfigurationError, match="debt amount must be finite"):
            finance_chain(debt=value)
        with pytest.raises(ConfigurationError, match="holding fraction must be finite"):
            finance_chain(fraction=value)

    @pytest.mark.parametrize("engine", available_engines())
    def test_no_engine_is_handed_one(self, engine):
        for program in ("eisenberg-noe", "elliott-golub-jackson"):
            for value in NON_FINITE:
                for field in ("cash", "debt", "penalty"):
                    with pytest.raises(ConfigurationError, match="must be finite"):
                        StressTest(finance_chain(**{field: value})).program(program).engine(
                            engine
                        ).run(iterations=1)


def en_row(cash, debts, credits, prorate=1.0):
    """An EN state as ``initial_state`` lays it out, at a chosen prorate."""
    state = {"prorate": prorate, "cash": cash, "shortfall": 0.0}
    total_debt = 0.0
    for slot, (debt, credit) in enumerate(zip(debts, credits)):
        state[f"debt_{slot}"] = debt
        state[f"credit_{slot}"] = credit
        total_debt += debt
    state["total_debt"] = total_debt
    return state


def egj_row(base, threshold, orig_value, insh, orig, penalty=0.25):
    """An EGJ state as ``initial_state`` lays it out."""
    state = {
        "value": orig_value,
        "base": base,
        "orig_value": orig_value,
        "threshold": threshold,
        "penalty": penalty,
        "shortfall": 0.0,
    }
    for slot, (held, issuer_value) in enumerate(zip(insh, orig)):
        state[f"insh_{slot}"] = held
        state[f"orig_{slot}"] = issuer_value
    return state


#: (state, inbox) rows at D = 2 for each branch edge of the EN update
EN_EDGE_ROWS = [
    (en_row(1.0, [0.0, 0.0], [0.0, 0.0], prorate=0.5), [0.0, 0.0]),  # total debt 0
    (en_row(-1.0, [0.0, 0.0], [0.0, 0.0]), [0.5, 0.0]),  # total debt 0, liquid < 0
    (en_row(0.5, [1.0, 2.0], [1.0, 0.0]), [3.0, 0.0]),  # liquid < 0
    (en_row(2.0, [1.0, 1.0], [0.5, 0.5], prorate=0.25), [0.5, 0.5]),  # liquid == total debt
    (en_row(-0.0, [1.0, 2.0], [-0.0, -0.0]), [0.0, 0.0]),  # liquid == -0.0
    (en_row(0.0, [1.0, 2.0], [0.0, 0.0]), [0.0, 0.0]),  # liquid == 0.0
    (en_row(1.0, [3.0, 1.0], [2.0, 0.0]), [1.5, 0.0]),  # 0 < liquid < total debt
    (en_row(5e-324, [1e300, 1e300], [0.0, 0.0]), [0.0, 0.0]),  # quotient underflows
    (en_row(-1e308, [1.0, 0.0], [0.0, 0.0]), [1e308, 1e308]),  # liquid overflows to -inf
    (en_row(1e308, [1.0, 0.0], [1e308, 1e308]), [0.0, 0.0]),  # liquid overflows to inf
    (en_row(9.0, [1.0, 2.0], [0.0, 0.0], prorate=0.75), [0.0, 0.0]),  # solvent
    (en_row(1e16, [1e16, 1e16], [1.0, 1.0]), [0.0, 0.0]),  # the fold's association shows
]

#: the same for EGJ: value against threshold, orig_value's sign, signed zeros
EGJ_EDGE_ROWS = [
    (egj_row(1.0, 1.0, 2.0, [0.0, 0.0], [0.0, 0.0]), [0.0, 0.0]),  # value == threshold
    (egj_row(0.5, 1.0, 2.0, [0.5, 0.0], [1.0, 0.0]), [0.5, 0.0]),  # distressed
    (egj_row(0.0, -0.0, 2.0, [0.0, 0.0], [0.0, 0.0]), [0.0, 0.0]),  # threshold - value == -0.0
    (egj_row(1.0, 0.5, 0.0, [0.5, 0.5], [1.0, 2.0]), [0.25, 1.0]),  # orig_value == 0
    (egj_row(1.0, 0.5, -1.0, [0.5, 0.0], [1.0, 0.0]), [0.0, 0.0]),  # orig_value < 0
    (egj_row(3.0, 0.5, 3.0, [0.25, 0.5], [2.0, 4.0]), [1.0, -0.5]),  # healthy
    (egj_row(-0.0, 0.5, 2.0, [0.0, 0.0], [1.0, 1.0]), [1.0, 1.0]),  # value == -0.0
    (egj_row(1e16, 2e16, 1.0, [1.0, 1.0], [1.0, 1.0]), [0.0, 0.0]),  # the fold's association
    (egj_row(1.0, 0.5, 2.0, [1.0, 1.0], [1e308, 1e308]), [-1e308, 1e308]),  # value is NaN
]


class TestColumnStep:
    """``float_update_many`` is ``float_update`` for every vertex at once,
    bit for bit — compared through ``float.hex``, so a ``-0.0`` where
    Python has ``0.0`` fails — on the edge of every branch."""

    @staticmethod
    def assert_rows_match(program, rows):
        degree_bound = 2
        names = program.state_registers(degree_bound)
        registers = np.array([[state[name] for name in names] for state, _ in rows]).T.copy()
        inbox = np.array([messages for _, messages in rows]).T.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # overflow rows; Python is silent
            stepped, outbox = program.float_update_many(registers, inbox, degree_bound)
        for (state, messages), column, out in zip(rows, stepped.T.tolist(), outbox.T.tolist()):
            expected_state, expected_out = program.float_update(state, messages, degree_bound)
            assert [value.hex() for value in column] == [
                float(expected_state[name]).hex() for name in names
            ]
            assert [value.hex() for value in out] == [float(m).hex() for m in expected_out]

    def test_en_edges(self):
        self.assert_rows_match(EisenbergNoeProgram(), EN_EDGE_ROWS)

    def test_egj_edges(self):
        self.assert_rows_match(ElliottGolubJacksonProgram(), EGJ_EDGE_ROWS)


class TestIntInputsKeepTheirType:
    """A register no step rewrites keeps the object ``initial_state`` put
    there, so an ``int`` balance-sheet entry reads back as that ``int`` on
    ``plaintext`` (one numpy step per round) as on ``async`` (a
    ``float_update`` dict copy per vertex)."""

    @staticmethod
    def typed(final_states):
        return {
            vid: [
                (name, type(value), value.hex() if isinstance(value, float) else value)
                for name, value in state.items()
            ]
            for vid, state in final_states.items()
        }

    @pytest.mark.parametrize("program", ["eisenberg-noe", "elliott-golub-jackson"])
    def test_plaintext_and_async_agree(self, program):
        net = FinancialNetwork()
        net.add_bank(Bank(0, cash=10, orig_value=10, threshold=4, penalty=1))
        net.add_bank(Bank(1, cash=1, orig_value=3, threshold=1))
        net.add_bank(Bank(2, cash=0, orig_value=2, threshold=1))
        net.add_debt(0, 1, 2)
        net.add_debt(1, 2, 4)
        net.add_holding(1, 0, 0.5)
        states = {
            engine: self.typed(
                StressTest(net).program(program).engine(engine).run(iterations=3).final_states
            )
            for engine in ("plaintext", "async")
        }
        assert states["plaintext"] == states["async"]
        assert int in {kind for row in states["async"].values() for _, kind, _ in row}


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
