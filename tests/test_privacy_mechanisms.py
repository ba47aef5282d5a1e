"""Tests for the grid release, its geometric sampler and the budget accountant."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scale

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import PrivacyBudgetExceeded, SensitivityError
from repro.privacy.budget import DEFAULT_EPSILON_MAX, PrivacyAccountant
from repro.privacy.mechanisms import (
    geometric_alpha,
    geometric_release,
    geometric_sample,
    two_sided_geometric_cdf,
    two_sided_geometric_sample,
    two_sided_geometric_samples,
)


class TestGeometricRelease:
    @pytest.mark.parametrize("value", [0.0, 537.3570178927795, -3.75, 1e6 + 1 / 3])
    @pytest.mark.parametrize("resolution", [1.0, 2.0**-8, 0.1])
    def test_release_is_a_grid_point(self, value, resolution):
        released, noise_raw = geometric_release(
            value, 10.0, 0.5, resolution, DeterministicRNG("grid")
        )
        assert released == (round(value / resolution) + noise_raw) * resolution

    def test_zero_sensitivity_is_exact(self, rng):
        before = rng.getstate()
        assert geometric_release(42.123, 0.0, 0.1, 2.0**-8, rng) == (42.123, 0)
        assert rng.getstate() == before

    def test_invalid_parameters(self, rng):
        with pytest.raises(SensitivityError):
            geometric_release(0.0, -1.0, 0.1, 1.0, rng)
        with pytest.raises(SensitivityError):
            geometric_release(0.0, 1.0, 0.0, 1.0, rng)

    def test_centers_on_value(self):
        rng = DeterministicRNG("mech")
        released = [geometric_release(100.0, 1.0, 0.5, 1.0, rng)[0] for _ in range(5000)]
        assert sum(released) / len(released) == pytest.approx(100.0, abs=0.5)


class TestGeometric:
    def test_one_sided_distribution(self):
        rng = DeterministicRNG("geo")
        alpha = 0.6
        counts = Counter(geometric_sample(alpha, rng) for _ in range(30000))
        # P(k) = (1 - alpha) alpha^k
        for k in range(3):
            expected = (1 - alpha) * alpha**k
            assert counts[k] / 30000 == pytest.approx(expected, abs=0.01)

    def test_two_sided_symmetry(self):
        rng = DeterministicRNG("sym")
        samples = [two_sided_geometric_sample(0.7, rng) for _ in range(30000)]
        counts = Counter(samples)
        for d in (1, 2, 3):
            assert counts[d] == pytest.approx(counts[-d], rel=0.15)

    def test_dp_ratio(self):
        """The defining epsilon-DP property: neighboring outputs have
        probability ratio within e^eps."""
        rng = DeterministicRNG("ratio")
        epsilon, sensitivity = 0.5, 1

        def release(value):
            return geometric_release(value, sensitivity, epsilon, 1.0, rng)[0]

        counts_a = Counter(release(10) for _ in range(30000))
        counts_b = Counter(release(11) for _ in range(30000))
        for output in range(8, 14):
            if counts_a[output] > 500 and counts_b[output] > 500:
                ratio = counts_a[output] / counts_b[output]
                assert math.exp(-epsilon) * 0.85 <= ratio <= math.exp(epsilon) * 1.15

    def test_alpha_formula(self):
        """The release draws one two-sided geometric at
        ``alpha = exp(-eps * resolution / s)``, bit for bit."""
        alpha = geometric_alpha(20, 2.34e-7, 2.0**-8)
        assert alpha == math.exp(-2.34e-7 * 2.0**-8 / 20)
        released, noise_raw = geometric_release(
            0.0, 20, 2.34e-7, 2.0**-8, DeterministicRNG("alpha")
        )
        assert noise_raw == two_sided_geometric_sample(alpha, DeterministicRNG("alpha"))
        assert released == noise_raw * 2.0**-8

    def test_invalid_alpha(self, rng):
        with pytest.raises(SensitivityError):
            geometric_sample(1.5, rng)
        for alpha in (0.0, 1.0, -0.1, 1.5):
            before = rng.getstate()
            with pytest.raises(SensitivityError):
                two_sided_geometric_samples(alpha, 4, rng)
            assert rng.getstate() == before

    @pytest.mark.parametrize("alpha", [0.05, 0.4, 0.9, 0.999])
    @pytest.mark.parametrize("count", [0, 1, 48, 333])
    def test_batched_draw_equals_the_sequential_sampler(self, alpha, count):
        """The edge noise of one transfer comes from one read of the
        stream: every value, and the generator's position afterwards,
        are those of ``count`` sequential draws."""
        batched, sequential = DeterministicRNG("noise"), DeterministicRNG("noise")
        batched.randbytes(5), sequential.randbytes(5)  # start mid-block
        assert two_sided_geometric_samples(alpha, count, batched) == [
            two_sided_geometric_sample(alpha, sequential) for _ in range(count)
        ]
        assert batched.getstate() == sequential.getstate()
        assert batched.randbytes(16) == sequential.randbytes(16)


class TestCdf:
    def test_cdf_is_valid(self):
        alpha = 0.8
        values = [two_sided_geometric_cdf(alpha, d) for d in range(-20, 21)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values == sorted(values)

    def test_cdf_symmetry(self):
        alpha = 0.6
        for d in range(0, 10):
            # P(Y <= -d-1) == P(Y >= d+1) == 1 - P(Y <= d)
            assert two_sided_geometric_cdf(alpha, -d - 1) == pytest.approx(
                1.0 - two_sided_geometric_cdf(alpha, d)
            )

    def test_pmf_ratio_is_alpha(self):
        alpha = 0.7
        pmf = lambda d: two_sided_geometric_cdf(alpha, d) - two_sided_geometric_cdf(alpha, d - 1)
        assert pmf(1) / pmf(0) == pytest.approx(alpha)
        assert pmf(5) / pmf(4) == pytest.approx(alpha)

    def test_bad_alpha_rejected(self):
        with pytest.raises(SensitivityError):
            two_sided_geometric_cdf(1.0, 0)


class TestAccountant:
    def test_default_budget_is_ln2(self):
        assert PrivacyAccountant().epsilon_max == pytest.approx(math.log(2))

    def test_sequential_composition(self):
        acct = PrivacyAccountant(epsilon_max=1.0)
        acct.charge(0.3)
        acct.charge(0.3)
        assert acct.spent == pytest.approx(0.6)
        assert acct.remaining == pytest.approx(0.4)

    def test_overrun_rejected(self):
        acct = PrivacyAccountant(epsilon_max=0.5)
        acct.charge(0.4)
        with pytest.raises(PrivacyBudgetExceeded):
            acct.charge(0.2)

    def test_replenish_resets_period(self):
        acct = PrivacyAccountant(epsilon_max=0.5)
        acct.charge(0.5, "year-1 run")
        acct.replenish()
        assert acct.remaining == pytest.approx(0.5)
        acct.charge(0.5, "year-2 run")
        assert len(acct.charges) == 2

    def test_paper_queries_per_year(self):
        # §4.5: (ln 2) / 0.23 ~ 3 runs per year.
        acct = PrivacyAccountant()
        assert acct.queries_per_period(0.23) == 3

    def test_negative_charge_rejected(self):
        with pytest.raises(SensitivityError):
            PrivacyAccountant().charge(-0.1)

    @given(st.lists(st.floats(min_value=0.01, max_value=0.2), min_size=1, max_size=10))
    @settings(max_examples=scale(30))
    def test_spent_is_sum_of_charges(self, epsilons):
        acct = PrivacyAccountant(epsilon_max=10.0)
        for epsilon in epsilons:
            acct.charge(epsilon)
        assert acct.spent == pytest.approx(sum(epsilons))
