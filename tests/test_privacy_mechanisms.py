"""Tests for the DP mechanisms and the budget accountant."""

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
    LaplaceMechanism,
    TwoSidedGeometricMechanism,
    geometric_sample,
    laplace_mechanism,
    laplace_sample,
    laplace_tail_probability,
    two_sided_geometric_sample,
    two_sided_geometric_samples,
)


class TestLaplace:
    def test_mean_and_scale(self):
        rng = DeterministicRNG("lap")
        scale = 3.0
        samples = [laplace_sample(scale, rng) for _ in range(20000)]
        mean = sum(samples) / len(samples)
        # Laplace variance is 2 b^2.
        var = sum((x - mean) ** 2 for x in samples) / len(samples)
        assert abs(mean) < 0.15
        assert var == pytest.approx(2 * scale**2, rel=0.1)

    def test_tail_probability_formula(self):
        rng = DeterministicRNG("tail")
        scale, threshold = 2.0, 5.0
        exceed = sum(1 for _ in range(20000) if abs(laplace_sample(scale, rng)) > threshold)
        assert exceed / 20000 == pytest.approx(
            laplace_tail_probability(scale, threshold), abs=0.02
        )

    def test_mechanism_centers_on_value(self):
        rng = DeterministicRNG("mech")
        released = [laplace_mechanism(100.0, 1.0, 0.5, rng) for _ in range(5000)]
        assert sum(released) / len(released) == pytest.approx(100.0, abs=0.5)

    def test_zero_sensitivity_is_exact(self, rng):
        assert laplace_mechanism(42.0, 0.0, 0.1, rng) == 42.0

    def test_invalid_parameters(self, rng):
        with pytest.raises(SensitivityError):
            laplace_mechanism(0.0, -1.0, 0.1, rng)
        with pytest.raises(SensitivityError):
            laplace_mechanism(0.0, 1.0, 0.0, rng)
        with pytest.raises(SensitivityError):
            laplace_sample(0.0, rng)

    def test_mechanism_object(self, rng):
        mech = LaplaceMechanism(sensitivity=2.0, epsilon=0.5)
        assert mech.scale == 4.0
        assert mech.tail_probability(0.0) == 1.0
        assert 0 < mech.tail_probability(10.0) < 1


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
        mech = TwoSidedGeometricMechanism(sensitivity, epsilon)
        counts_a = Counter(mech.release(10, rng) for _ in range(30000))
        counts_b = Counter(mech.release(11, rng) for _ in range(30000))
        for output in range(8, 14):
            if counts_a[output] > 500 and counts_b[output] > 500:
                ratio = counts_a[output] / counts_b[output]
                assert math.exp(-epsilon) * 0.85 <= ratio <= math.exp(epsilon) * 1.15

    def test_alpha_formula(self):
        mech = TwoSidedGeometricMechanism(sensitivity=20, epsilon=2.34e-7)
        assert mech.alpha == pytest.approx(math.exp(-2.34e-7 / 20))

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
