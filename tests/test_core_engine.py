"""Tests for the plaintext reference engine and aggregation helpers."""

import pytest

from conftest import execute

from repro.core.aggregation import (
    AggregationPlan,
    partial_sum_width,
    plan_groups,
    reshare_words,
)
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, ProtocolError
from repro.finance import EisenbergNoeProgram, ElliottGolubJacksonProgram, clearing_vector, egj_fixpoint
from repro.mpc.fixedpoint import FixedPointFormat
from repro.sharing import xor_all


class TestFloatEngine:
    def test_en_matches_exact_solver(self, small_en_network, fmt):
        graph = small_en_network.to_en_graph(degree_bound=2)
        run = execute("plaintext", EisenbergNoeProgram(fmt), graph, 6)
        exact = clearing_vector(small_en_network).total_shortfall
        assert run.aggregate == pytest.approx(exact, abs=1e-9)

    def test_egj_matches_exact_solver(self, small_egj_network, fmt):
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        run = execute("plaintext", ElliottGolubJacksonProgram(fmt), graph, 6)
        exact = egj_fixpoint(small_egj_network, iterations=6).total_shortfall
        assert run.aggregate == pytest.approx(exact, abs=1e-9)

    def test_trajectory_length(self, small_en_network, fmt):
        graph = small_en_network.to_en_graph(degree_bound=2)
        run = execute("plaintext", EisenbergNoeProgram(fmt), graph, 4)
        assert len(run.trajectory) == 5  # n steps + final computation

    def test_en_shortfall_monotone_nondecreasing(self, small_en_network, fmt):
        """Fictitious default: shortfall only grows across iterations."""
        graph = small_en_network.to_en_graph(degree_bound=2)
        run = execute("plaintext", EisenbergNoeProgram(fmt), graph, 8)
        for earlier, later in zip(run.trajectory, run.trajectory[1:]):
            assert later >= earlier - 1e-9

    def test_zero_iterations_runs_final_step(self, small_en_network, fmt):
        graph = small_en_network.to_en_graph(degree_bound=2)
        run = execute("plaintext", EisenbergNoeProgram(fmt), graph, 0)
        assert len(run.trajectory) == 1


    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_every_clear_engine_takes_the_same_states(self, small_en_network, fmt, change):
        """An initial state missing a declared register is refused with
        one typed error on every clear engine; one with an extra register
        runs on all of them, and the float engines hand it back as is."""

        class Misdeclared(EisenbergNoeProgram):
            def initial_state(self, vertex, degree_bound):
                state = super().initial_state(vertex, degree_bound)
                if change == "drop":
                    del state["cash"]
                else:
                    state["extra"] = 7
                return state

        graph = small_en_network.to_en_graph(degree_bound=2)
        program = Misdeclared(fmt)
        # plaintext also on the WAN bus, through the round scheduler
        engines = {
            "plaintext": ("plaintext", {}),
            "plaintext@wan": ("plaintext", {"transport": "wan"}),
            "fixed": ("fixed", {}),
        }
        if change == "drop":
            for name, options in engines.values():
                with pytest.raises(ConfigurationError, match=r"missing registers \['cash'\]"):
                    execute(name, program, graph, 1, **options)
            return
        runs = {
            label: execute(name, program, graph, 1, **options)
            for label, (name, options) in engines.items()
        }
        expected = execute("plaintext", EisenbergNoeProgram(fmt), graph, 1)
        for engine in ("plaintext", "plaintext@wan"):
            assert runs[engine].trajectory == expected.trajectory
            for state in runs[engine].final_states.values():
                assert type(state["extra"]) is int and state["extra"] == 7
        assert runs["fixed"].trajectory == execute(
            "fixed", EisenbergNoeProgram(fmt), graph, 1
        ).trajectory


class TestFixedEngine:
    def test_en_fixed_close_to_float(self, small_en_network, fmt):
        graph = small_en_network.to_en_graph(degree_bound=2)
        program = EisenbergNoeProgram(fmt)
        float_run = execute("plaintext", program, graph, 5)
        fixed_run = execute("fixed", program, graph, 5)
        assert fixed_run.aggregate == pytest.approx(float_run.aggregate, abs=0.2)

    def test_egj_fixed_close_to_float(self, small_egj_network, fmt):
        graph = small_egj_network.to_egj_graph(degree_bound=2)
        program = ElliottGolubJacksonProgram(fmt)
        float_run = execute("plaintext", program, graph, 5)
        fixed_run = execute("fixed", program, graph, 5)
        assert fixed_run.aggregate == pytest.approx(float_run.aggregate, abs=0.3)

    def test_fixed_engine_deterministic(self, small_en_network, fmt):
        graph = small_en_network.to_en_graph(degree_bound=2)
        program = EisenbergNoeProgram(fmt)
        assert (
            execute("fixed", program, graph, 4).aggregate
            == execute("fixed", program, graph, 4).aggregate
        )

    def test_higher_precision_reduces_error(self, small_en_network):
        graph = small_en_network.to_en_graph(degree_bound=2)
        coarse = EisenbergNoeProgram(FixedPointFormat(12, 4))
        fine = EisenbergNoeProgram(FixedPointFormat(20, 12))
        exact = clearing_vector(small_en_network).total_shortfall
        err_coarse = abs(execute("fixed", coarse, graph, 5).aggregate - exact)
        err_fine = abs(execute("fixed", fine, graph, 5).aggregate - exact)
        assert err_fine <= err_coarse


class TestAggregationHelpers:
    def test_reshare_preserves_value(self, rng):
        from repro.sharing import share_value

        shares = share_value(0xABC, 12, 4, rng)
        other = share_value(0x123, 12, 3, rng)
        # holders 2 and 3 hold a share of both words and split both in one read
        words = [([0, 1, 2, 3], shares), ([2, 3, 4], other)]
        fresh, fresh_other = reshare_words(words, 12, 5, rng, ("reshare", 0))
        assert len(fresh) == len(fresh_other) == 5
        assert xor_all(fresh) == 0xABC
        assert xor_all(fresh_other) == 0x123
        again = reshare_words(words, 12, 5, rng, ("reshare", 0))
        assert again == [fresh, fresh_other]  # keyed: the parent stream did not move
        assert reshare_words(words, 12, 5, rng, ("reshare", 1)) != again

    def test_reshare_empty_rejected(self, rng):
        with pytest.raises(ProtocolError):
            reshare_words([([], [])], 8, 3, rng, ("reshare", 0))

    def test_plan_groups_single_level(self):
        assert plan_groups(list(range(10)), fanout=100) == [list(range(10))]

    def test_plan_groups_hierarchical(self):
        groups = plan_groups(list(range(250)), fanout=100)
        assert len(groups) == 3
        assert [len(g) for g in groups] == [100, 100, 50]
        assert sum(groups, []) == list(range(250))

    def test_partial_sum_width(self):
        assert partial_sum_width(16, 100) == 16 + 7
        assert partial_sum_width(16, 1) == 17

    def test_plan_properties(self):
        plan = AggregationPlan(groups=plan_groups(list(range(250)), 100), value_bits=16)
        assert plan.is_hierarchical
        assert plan.root_inputs == 3
        assert plan.root_input_bits == plan.group_sum_bits
        single = AggregationPlan(groups=plan_groups(list(range(50)), 100), value_bits=16)
        assert not single.is_hierarchical
        assert single.root_input_bits == 16
