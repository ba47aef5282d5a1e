"""Tests for the financial network model and both contagion solvers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, SensitivityError
from repro.finance import (
    Bank,
    FinancialNetwork,
    Shock,
    apply_shock,
    check_leverage_bound,
    clearing_vector,
    egj_fixpoint,
    egj_risk_report,
    egj_sensitivity,
    eisenberg_noe_sensitivity,
    en_risk_report,
    uniform_shock,
)


class TestNetworkModel:
    def test_duplicate_bank_rejected(self):
        net = FinancialNetwork()
        net.add_bank(Bank(0))
        with pytest.raises(ConfigurationError):
            net.add_bank(Bank(0))

    def test_contract_endpoints_validated(self):
        net = FinancialNetwork()
        net.add_bank(Bank(0))
        with pytest.raises(ConfigurationError):
            net.add_debt(0, 1, 5.0)
        with pytest.raises(ConfigurationError):
            net.add_debt(0, 0, 5.0)

    def test_negative_debt_rejected(self):
        net = FinancialNetwork()
        net.add_bank(Bank(0))
        net.add_bank(Bank(1))
        with pytest.raises(ConfigurationError):
            net.add_debt(0, 1, -1.0)

    def test_holding_fraction_range(self):
        net = FinancialNetwork()
        net.add_bank(Bank(0))
        net.add_bank(Bank(1))
        with pytest.raises(ConfigurationError):
            net.add_holding(0, 1, 1.5)

    def test_obligations_and_credits(self, small_en_network):
        assert small_en_network.total_obligations(0) == 6.0
        assert small_en_network.total_credits(3) == 4.0

    def test_graph_views(self, small_en_network, small_egj_network):
        en_graph = small_en_network.to_en_graph()
        assert en_graph.num_vertices == 4
        assert en_graph.num_edges == 4
        egj_graph = small_egj_network.to_egj_graph()
        assert egj_graph.num_edges == 3
        # Edge data lands on the right endpoints.
        holder = egj_graph.vertex(1)  # bank 1 holds 40% of bank 0
        slot = holder.in_slot(0)
        assert holder.data[f"in_insh_{slot}"] == 0.4


class TestEisenbergNoe:
    def test_no_debt_no_shortfall(self):
        net = FinancialNetwork()
        net.add_bank(Bank(0, cash=1.0))
        net.add_bank(Bank(1, cash=1.0))
        result = clearing_vector(net)
        assert result.total_shortfall == 0.0
        assert result.defaulters == []

    def test_solvent_network_pays_in_full(self):
        net = FinancialNetwork()
        net.add_bank(Bank(0, cash=10.0))
        net.add_bank(Bank(1, cash=10.0))
        net.add_debt(0, 1, 5.0)
        result = clearing_vector(net)
        assert result.payments[0] == pytest.approx(5.0)
        assert result.total_shortfall == pytest.approx(0.0)

    def test_known_cascade(self, small_en_network):
        result = clearing_vector(small_en_network)
        # Bank 0 can pay only 2 of 6; banks 1 and 2 receive prorated
        # payments and bank 1 defaults too.
        assert result.payments[0] == pytest.approx(2.0)
        assert 0 in result.defaulters and 1 in result.defaulters
        assert result.total_shortfall == pytest.approx(14.0 / 3.0, abs=1e-6)

    def test_payments_bounded_by_obligations(self, small_en_network):
        result = clearing_vector(small_en_network)
        for bank, payment in result.payments.items():
            assert 0.0 <= payment <= result.obligations[bank] + 1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=scale(15), deadline=None)
    def test_shortfall_nonnegative_random_networks(self, seed):
        from repro.graphgen import RandomNetworkParams, random_network

        net = random_network(
            RandomNetworkParams(num_banks=12, mean_degree=3, degree_cap=6),
            DeterministicRNG(seed),
        )
        result = clearing_vector(net)
        assert result.total_shortfall >= -1e-9

    def test_more_cash_weakly_reduces_shortfall(self, small_en_network):
        richer = apply_shock(small_en_network, uniform_shock([0], 0.0))
        richer.banks[0].cash += 10.0
        assert (
            clearing_vector(richer).total_shortfall
            <= clearing_vector(small_en_network).total_shortfall + 1e-9
        )


class TestEGJ:
    def test_healthy_network_no_shortfall(self, small_egj_network):
        result = egj_fixpoint(small_egj_network, iterations=8)
        assert result.total_shortfall == pytest.approx(0.0)
        assert result.distressed == []

    def test_shock_creates_shortfall(self, small_egj_network):
        shocked = apply_shock(small_egj_network, uniform_shock([1, 2], 0.9))
        result = egj_fixpoint(shocked, iterations=8)
        assert result.total_shortfall > 0
        assert len(result.distressed) >= 1

    def test_penalty_discontinuity(self):
        """A bank just under threshold loses the full penalty."""
        net = FinancialNetwork()
        net.add_bank(Bank(0, base_assets=4.9, orig_value=10.0, threshold=5.0, penalty=2.0))
        result = egj_fixpoint(net, iterations=2)
        assert result.values[0] == pytest.approx(2.9)

    def test_convergence_monotone_after_shock(self, small_egj_network):
        """[39]: values converge monotonically, so longer runs only lower
        (or preserve) the reached valuation."""
        shocked = apply_shock(small_egj_network, uniform_shock([1], 0.95))
        previous = None
        for iterations in (1, 2, 4, 8):
            result = egj_fixpoint(shocked, iterations)
            if previous is not None:
                for bank in result.values:
                    assert result.values[bank] <= previous[bank] + 1e-9
            previous = result.values

    def test_cross_holdings_propagate(self):
        net = FinancialNetwork()
        net.add_bank(Bank(0, base_assets=0.5, orig_value=10.0, threshold=4.0, penalty=1.0))
        net.add_bank(Bank(1, base_assets=6.0, orig_value=10.0, threshold=4.0, penalty=1.0))
        net.add_holding(1, 0, 0.5)  # 1 holds half of 0
        result = egj_fixpoint(net, iterations=10)
        # Bank 0 collapses; bank 1's value drops below its standalone 6+5.
        assert result.values[1] < 11.0


class TestRiskReports:
    def test_en_report(self, small_en_network):
        report = en_risk_report(clearing_vector(small_en_network))
        assert report.model == "eisenberg-noe"
        assert report.total_dollar_shortfall > 0
        assert report.num_failures == len(report.failed_banks)
        assert report.worst_bank in report.per_bank_shortfall

    def test_egj_report(self, small_egj_network):
        shocked = apply_shock(small_egj_network, uniform_shock([1, 2], 0.9))
        result = egj_fixpoint(shocked, iterations=8)
        thresholds = {b: shocked.banks[b].threshold for b in shocked.bank_ids()}
        report = egj_risk_report(result, thresholds)
        assert report.total_dollar_shortfall == pytest.approx(result.total_shortfall)


class TestSensitivity:
    def test_paper_bounds(self):
        assert eisenberg_noe_sensitivity(0.1) == pytest.approx(10.0)
        assert egj_sensitivity(0.1) == pytest.approx(20.0)

    def test_invalid_leverage(self):
        with pytest.raises(SensitivityError):
            check_leverage_bound(0.0)
        with pytest.raises(SensitivityError):
            check_leverage_bound(1.5)

    def test_programs_report_bounds(self, fmt):
        from repro.finance import EisenbergNoeProgram, ElliottGolubJacksonProgram

        assert EisenbergNoeProgram(fmt, leverage_bound=0.1).sensitivity == 10.0
        assert ElliottGolubJacksonProgram(fmt, leverage_bound=0.1).sensitivity == 20.0


class TestShocks:
    def test_shock_scales_assets(self, small_en_network):
        shocked = apply_shock(small_en_network, uniform_shock([0], 0.5))
        assert shocked.banks[0].cash == pytest.approx(1.0)
        assert small_en_network.banks[0].cash == pytest.approx(2.0)  # original intact

    def test_unknown_target_rejected(self, small_en_network):
        with pytest.raises(ConfigurationError):
            apply_shock(small_en_network, uniform_shock([99], 0.5))

    def test_invalid_severity(self):
        with pytest.raises(ConfigurationError):
            uniform_shock([0], 1.5)

    def test_empty_targets_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_shock([], 0.5)

    def test_duplicate_targets_rejected(self):
        # applied once per mention, bank 0 would keep 25 % of its cash, not 50 %
        with pytest.raises(ConfigurationError, match="twice"):
            uniform_shock([0, 0], 0.5)
        with pytest.raises(ConfigurationError, match="twice"):
            Shock(targets=(1, 2, 1), severity=0.5)

    def test_shocked_copy_leaves_its_input_untouched(self, small_egj_network):
        net = small_egj_network
        before = (
            {i: vars(bank).copy() for i, bank in net.banks.items()},
            list(net.debts),
            list(net.holdings),
        )
        shocked = apply_shock(net, uniform_shock([1], 0.5))
        assert shocked.holdings == net.holdings
        shocked.banks[0].cash = -1.0
        shocked.banks[0].threshold = -1.0
        shocked.add_bank(Bank(99))
        shocked.add_holding(99, 0, 0.5)
        shocked.add_debt(0, 99, 1.0)
        after = (
            {i: vars(bank).copy() for i, bank in net.banks.items()},
            list(net.debts),
            list(net.holdings),
        )
        assert after == before

    def test_severity_monotone(self, small_en_network):
        shortfalls = []
        for severity in (0.0, 0.5, 1.0):
            shocked = apply_shock(small_en_network, uniform_shock([0], severity))
            shortfalls.append(clearing_vector(shocked).total_shortfall)
        assert shortfalls == sorted(shortfalls)
