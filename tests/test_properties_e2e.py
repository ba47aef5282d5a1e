"""End-to-end property-based tests across random networks and programs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import execute, scale

from repro.core.config import DStressConfig
from repro.crypto.group import TOY_GROUP_64
from repro.crypto.rng import DeterministicRNG
from repro.finance import (
    Bank,
    EisenbergNoeProgram,
    ElliottGolubJacksonProgram,
    FinancialNetwork,
    clearing_vector,
    egj_fixpoint,
)
from repro.graphgen import RandomNetworkParams, random_network
from repro.mpc.fixedpoint import FixedPointFormat

FMT = FixedPointFormat(16, 8)


def _random_net(seed: int, num_banks: int) -> FinancialNetwork:
    return random_network(
        RandomNetworkParams(
            num_banks=num_banks, mean_degree=1.5, degree_cap=2, assets=8.0
        ),
        DeterministicRNG(seed),
    )


class TestEngineAgreementProperties:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=scale(8), deadline=None)
    def test_en_float_engine_matches_solver(self, seed):
        network = _random_net(seed, 8)
        graph = network.to_en_graph(2)
        run = execute("plaintext", EisenbergNoeProgram(FMT), graph, 16)
        exact = clearing_vector(network).total_shortfall
        assert run.aggregate == pytest.approx(exact, abs=1e-6)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=scale(8), deadline=None)
    def test_egj_float_engine_matches_solver(self, seed):
        network = _random_net(seed, 8)
        graph = network.to_egj_graph(2)
        run = execute("plaintext", ElliottGolubJacksonProgram(FMT), graph, 6)
        exact = egj_fixpoint(network, iterations=6).total_shortfall
        assert run.aggregate == pytest.approx(exact, abs=1e-6)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=scale(6), deadline=None)
    def test_fixed_engine_quantization_bounded(self, seed):
        """Quantization error of the circuit engine is bounded by the
        per-step resolution times a modest constant."""
        network = _random_net(seed, 6)
        graph = network.to_en_graph(2)
        program = EisenbergNoeProgram(FMT)
        float_run = execute("plaintext", program, graph, 4)
        fixed_run = execute("fixed", program, graph, 4)
        assert fixed_run.aggregate == pytest.approx(float_run.aggregate, abs=0.5)


class TestSecureEngineProperty:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=scale(3), deadline=None)
    def test_secure_matches_oracle_random_networks(self, seed):
        """The headline invariant on arbitrary small networks: the full
        protocol stack reproduces the clear circuit evaluation exactly."""
        network = _random_net(seed, 5)
        graph = network.to_en_graph(2)
        program = EisenbergNoeProgram(FMT)
        config = DStressConfig(
            collusion_bound=2,
            fmt=FMT,
            group=TOY_GROUP_64,
            output_epsilon=0.5,
            seed=seed,
        )
        result = execute("secure", program, graph, 2, config)
        oracle = execute("fixed", program, graph, 2)
        assert result.pre_noise_aggregate == pytest.approx(oracle.aggregate, abs=1e-12)


class TestEconomicInvariants:
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=scale(15), deadline=None)
    def test_en_shortfall_monotone_in_shock(self, severity_a, severity_b):
        """More severe shocks never reduce the total dollar shortfall."""
        from repro.finance import apply_shock, uniform_shock

        network = _random_net(99, 10)
        lo, hi = sorted((severity_a, severity_b))
        tds_lo = clearing_vector(
            apply_shock(network, uniform_shock([0, 1], lo))
        ).total_shortfall
        tds_hi = clearing_vector(
            apply_shock(network, uniform_shock([0, 1], hi))
        ).total_shortfall
        assert tds_hi >= tds_lo - 1e-9

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=scale(10), deadline=None)
    def test_egj_shortfall_monotone_in_iterations(self, iterations):
        """EGJ values fall monotonically, so the reported shortfall can
        only grow with more iterations ([39])."""
        from repro.finance import apply_shock, uniform_shock

        network = apply_shock(_random_net(7, 8), uniform_shock([0], 0.9))
        shorter = egj_fixpoint(network, iterations).total_shortfall
        longer = egj_fixpoint(network, iterations + 1).total_shortfall
        assert longer >= shorter - 1e-9

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=scale(10), deadline=None)
    def test_tds_bounded_by_total_obligations(self, seed):
        network = _random_net(seed, 10)
        total_debt = sum(d.amount for d in network.debts)
        assert clearing_vector(network).total_shortfall <= total_debt + 1e-9
