"""Tests for dollar-DP, the §4.5 utility analysis and Appendix B accounting."""

import math

import pytest

from repro.core.config import DStressConfig
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import SensitivityError
from repro.mpc.fixedpoint import FixedPointFormat
from repro.privacy.budget import PrivacyAccountant, whole_releases
from repro.privacy.dollar import DollarPrivacySpec
from repro.privacy.edge_privacy import (
    EdgePrivacyAnalysis,
    alpha_max_for_failure_budget,
    dlog_table_entries,
    failure_probability,
    mechanism_alpha,
    per_iteration_epsilon,
    total_transfers,
    transfer_sensitivity,
)
from repro.privacy.utility import (
    UtilityAnalysis,
    epsilon_for_precision,
    measure_noise_impact,
    runs_per_year,
)


class TestDollarDP:
    def test_noise_scale(self):
        spec = DollarPrivacySpec(granularity=1e9, sensitivity=20, epsilon=0.23)
        assert spec.noise_scale_dollars == pytest.approx(1e9 * 20 / 0.23)

    def test_release_centers_on_value(self):
        rng = DeterministicRNG("dollar")
        spec = DollarPrivacySpec(granularity=1e9, sensitivity=20, epsilon=0.23)
        true_value = 500e9
        releases = [spec.release(true_value, rng) for _ in range(3000)]
        assert sum(releases) / len(releases) == pytest.approx(true_value, rel=0.02)

    def test_error_probability_95(self):
        # §4.5: eps >= 0.23 keeps noise under $200B with 95% confidence
        # (one-sided reading; the two-sided tail is ~10%).
        spec = DollarPrivacySpec(granularity=1e9, sensitivity=20, epsilon=0.2303)
        assert spec.error_probability(200e9) == pytest.approx(0.10, abs=0.005)

    def test_zero_sensitivity_is_exact(self):
        spec = DollarPrivacySpec(granularity=1e9, sensitivity=0, epsilon=0.23)
        assert spec.error_probability(200e9) == 0.0
        assert spec.error_probability(0.0) == 0.0
        rng = DeterministicRNG("exact")
        before = rng.getstate()
        assert spec.release(123.456e9, rng) == 123.456e9
        assert rng.getstate() == before

    def test_release_lies_on_the_grid(self):
        # in units of T, a release is a default-format LSB count: nothing
        # below the grid's last bit of the exact value is published
        resolution = FixedPointFormat().resolution
        spec = DollarPrivacySpec(granularity=0.1, sensitivity=10, epsilon=0.23)
        rng = DeterministicRNG("grid")
        for value in (0.0, 3.14159, 512.0 + 1 / 3):
            steps = spec.release(value, rng) / spec.granularity / resolution
            assert steps == pytest.approx(round(steps), abs=1e-6)

    def test_invalid_specs(self):
        with pytest.raises(SensitivityError):
            DollarPrivacySpec(granularity=0)
        with pytest.raises(SensitivityError):
            DollarPrivacySpec(epsilon=0)


class TestUtilityAnalysis:
    """§4.5 numbers, exactly as the paper derives them."""

    def test_egj_sensitivity_is_20(self):
        assert UtilityAnalysis().sensitivity_units == pytest.approx(20.0)

    def test_epsilon_query_is_023(self):
        assert UtilityAnalysis().epsilon_query == pytest.approx(0.2303, abs=0.0005)

    def test_three_runs_per_year(self):
        assert UtilityAnalysis().runs_per_year == 3

    def test_two_sided_variant_is_stricter(self):
        one_sided = epsilon_for_precision(20, 200, 0.95, two_sided=False)
        two_sided = epsilon_for_precision(20, 200, 0.95, two_sided=True)
        assert two_sided > one_sided

    def test_runs_per_year_floor(self):
        assert runs_per_year(0.23) == 3
        assert runs_per_year(math.log(2)) == 1
        assert runs_per_year(0.7) == 0

    def test_invalid_parameters(self):
        with pytest.raises(SensitivityError):
            epsilon_for_precision(0, 200)
        with pytest.raises(SensitivityError):
            epsilon_for_precision(20, 0)
        with pytest.raises(SensitivityError):
            epsilon_for_precision(20, 200, confidence=1.0)

    def test_noise_impact_experiment(self):
        rng = DeterministicRNG("utility")
        stats = measure_noise_impact(500e9, UtilityAnalysis().spec(), rng, trials=500)
        # The Appendix's utility claim: typical error well under the $200B
        # requirement, tiny relative to a $500B TDS.
        assert stats["p95_abs_error"] < 300e9
        assert stats["median_abs_error"] < 100e9
        assert stats["relative_p95_error"] < 0.6


class TestQueriesPerPeriod:
    """Regression: float-division dust must not swallow a whole release."""

    def test_exact_multiple_is_not_truncated(self):
        # 0.6/0.2 == 2.999...96 in binary floats; truncation said 2
        assert PrivacyAccountant(epsilon_max=0.6).queries_per_period(0.2) == 3
        assert PrivacyAccountant(epsilon_max=0.9).queries_per_period(0.3) == 3
        assert whole_releases(0.7, 0.1) == 7

    def test_paper_ln2_over_023_is_three(self):
        # the §4.5 computation the accountant exists to answer
        assert PrivacyAccountant().queries_per_period(0.23) == 3
        assert PrivacyAccountant().queries_per_period(math.log(2)) == 1

    def test_genuinely_partial_quotients_still_floor(self):
        assert PrivacyAccountant(epsilon_max=0.5).queries_per_period(0.2) == 2
        assert PrivacyAccountant().queries_per_period(0.7) == 0

    def test_reported_count_is_always_chargeable(self):
        # a budget genuinely short of N queries must answer N-1: the
        # slack forgives division dust (~1e-16), not real deficits whose
        # last charge would raise — including epsilon_max > 1, where a
        # relative tolerance would out-scale can_afford's absolute one
        for epsilon_max, per_query, expected in (
            (0.6 - 1e-10, 0.2, 2),
            (10 - 2e-12, 2.0, 4),
            (0.6, 0.2, 3),
        ):
            accountant = PrivacyAccountant(epsilon_max=epsilon_max)
            count = accountant.queries_per_period(per_query)
            assert count == expected
            for _ in range(count):
                accountant.charge(per_query)  # every reported release fits

    def test_large_schedules_account_for_summation_drift(self):
        # a million 1e-6 charges accumulate ~8e-12 of left-to-right
        # rounding in `spent` — past can_afford's 1e-12 slack — so the
        # exact-quotient million must NOT be reported (its last charge
        # would be refused); the drift headroom keeps the answer honest
        assert whole_releases(1.0, 1e-6) == 999_999
        # the walk-down is a binary search: a pathologically tiny query
        # epsilon answers immediately instead of decrementing 1e12 times
        huge = whole_releases(1.0, 1e-12)
        assert 0 < huge <= 10**12

    def test_whole_releases_validates_epsilon_max(self):
        with pytest.raises(SensitivityError):
            whole_releases(-1.0, 0.2)
        assert whole_releases(0.0, 0.2) == 0  # an empty budget: no releases

    def test_runs_per_year_shares_the_fix(self):
        assert runs_per_year(0.2, epsilon_max=0.6) == 3

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(SensitivityError):
            PrivacyAccountant().queries_per_period(0.0)
        with pytest.raises(SensitivityError):
            whole_releases(0.6, -0.1)


class TestEdgePrivacy:
    """Appendix B accounting, including the concrete example."""

    def test_sensitivity_is_block_size(self):
        assert transfer_sensitivity(19) == 20
        with pytest.raises(SensitivityError):
            transfer_sensitivity(0)

    def test_mechanism_alpha(self):
        # alpha_mech = alpha^{2/Delta} = exp(-2 eps / Delta)
        assert mechanism_alpha(0.1, 20) == pytest.approx(math.exp(-0.01))

    def test_failure_probability_monotone_in_alpha(self):
        entries = 10000
        probs = [failure_probability(a, entries) for a in (0.99, 0.999, 0.9999)]
        assert probs == sorted(probs)

    def test_failure_probability_clamped(self):
        assert 0.0 <= failure_probability(0.5, 100) <= 1.0
        assert failure_probability(1e-9, 1000) == 0.0

    def test_alpha_max_solves_inequality(self):
        entries = 1_000_000
        budget = 1e-9
        alpha = alpha_max_for_failure_budget(entries, budget)
        assert failure_probability(alpha, entries) <= budget
        # Slightly larger alpha must violate the budget (tight solution).
        assert failure_probability(min(1 - 1e-15, alpha * 1.001), entries) > budget or alpha > 0.999

    def test_total_transfers_formula(self):
        # N_q = Y R I N D L (k+1)^2 ~ 370 billion for the paper's numbers.
        nq = total_transfers(10, 3, 11, 1750, 100, 16, 19)
        assert nq == 10 * 3 * 11 * 1750 * 100 * 16 * 400
        assert nq == pytest.approx(370e9, rel=0.01)

    def test_per_iteration_budget(self):
        # k (k+1) L eps = 0.0014 for the concrete example.
        assert per_iteration_epsilon(19, 16, 2.34e-7) == pytest.approx(0.00142, abs=5e-5)

    def test_config_edge_alpha_round_trips_to_per_iteration_epsilon(self):
        """The paper's §3.5 edge noise at ``mechanism_alpha(eps, k + 1)``
        makes an ElGamal transfer eps-DP, so an iteration costs
        ``per_iteration_epsilon(k, L, eps)``. Runs take the pad transfer,
        which releases no sum, so no config carries this alpha any more."""
        k, bits = 2, 16
        eps = -math.log(0.4) * transfer_sensitivity(k) / 2
        assert mechanism_alpha(eps, k + 1) == pytest.approx(0.4)
        assert "edge_noise_alpha" not in DStressConfig.__dataclass_fields__
        assert per_iteration_epsilon(k, bits, eps) == pytest.approx(k * (k + 1) * bits * eps)

    def test_concrete_example_end_to_end(self):
        analysis = EdgePrivacyAnalysis()
        assert analysis.sensitivity == 20
        assert analysis.transfers == pytest.approx(369.6e9, rel=0.001)
        assert analysis.epsilon_per_iteration == pytest.approx(0.0014, abs=1e-4)
        assert analysis.epsilon_per_year == pytest.approx(0.0469, abs=5e-4)
        assert analysis.meets_failure_budget

    def test_dlog_table_sizing(self):
        # 8 GiB of 384-bit entries.
        entries = dlog_table_entries(8 * 2**30, 384)
        assert entries == pytest.approx(179e6, rel=0.01)
        # The paper quotes ~230M entries (300 effective bits per entry).
        assert dlog_table_entries(8 * 2**30, 300) == pytest.approx(229e6, rel=0.01)
