"""Tests for the in-MPC noise samplers (Dwork et al. style)."""

import math

import numpy as np
import pytest

from repro.core.config import DStressConfig
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import CircuitError
from repro.finance.eisenberg_noe import EisenbergNoeProgram
from repro.mpc.gmw import GMWEngine
from repro.mpc.noise_circuit import (
    build_noised_sum_bits_circuit,
    build_partial_sum_circuit,
    geometric_bit_probabilities,
    geometric_bit_thresholds,
    geometric_bits_seed_width,
    sample_geometric_bits_plaintext,
)


class TestBitsSampler:
    def test_bit_probabilities_shrink(self):
        probs = geometric_bit_probabilities(0.9, 10)
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 < p < 1.0 for p in probs)

    def test_bit_probability_formula(self):
        alpha = 0.8
        probs = geometric_bit_probabilities(alpha, 4)
        for i, p in enumerate(probs):
            a = alpha ** (1 << i)
            assert p == pytest.approx(a / (1 + a))

    def test_seed_width(self):
        assert geometric_bits_seed_width(8, 16) == 256

    def test_circuit_matches_mirror(self):
        alpha, mb, pb = 0.85, 6, 10
        circuit = build_noised_sum_bits_circuit(2, 10, alpha, mb, pb)
        width = len(circuit.output_buses["noised_sum"])
        rng = DeterministicRNG("bits")
        for _ in range(30):
            seed = rng.randbits(geometric_bits_seed_width(mb, pb))
            a, b = rng.randrange(0, 60), rng.randrange(0, 60)
            out = circuit.evaluate({"state_0": a, "state_1": b, "seed": seed})
            got = out["noised_sum"]
            if got >> (width - 1):
                got -= 1 << width
            assert got == a + b + sample_geometric_bits_plaintext(alpha, mb, pb, seed)

    def test_distribution_statistics(self):
        """Mean ~0 and variance ~2a/(1-a)^2 for the two-sided geometric."""
        alpha, mb, pb = 0.8, 10, 16
        rng = DeterministicRNG("stats")
        samples = [
            sample_geometric_bits_plaintext(alpha, mb, pb, rng.randbits(geometric_bits_seed_width(mb, pb)))
            for _ in range(20000)
        ]
        mean = sum(samples) / len(samples)
        var = sum((x - mean) ** 2 for x in samples) / len(samples)
        expected_var = 2 * alpha / (1 - alpha) ** 2
        assert abs(mean) < 0.2
        assert abs(var - expected_var) / expected_var < 0.15

    def test_dp_ratio_bound(self):
        """Empirical epsilon-DP check: P(X=d)/P(X=d+1) ~ 1/alpha."""
        alpha, mb, pb = 0.7, 8, 16
        rng = DeterministicRNG("dp")
        from collections import Counter

        counts = Counter(
            sample_geometric_bits_plaintext(alpha, mb, pb, rng.randbits(geometric_bits_seed_width(mb, pb)))
            for _ in range(40000)
        )
        for d in (0, 1, 2):
            ratio = counts[d + 1] / counts[d]
            assert ratio == pytest.approx(alpha, abs=0.08)

    def test_wrong_seed_width_rejected(self):
        from repro.mpc.builder import CircuitBuilder
        from repro.mpc.noise_circuit import build_geometric_bits_sampler

        builder = CircuitBuilder()
        seed = builder.input_bus("seed", 10)
        with pytest.raises(CircuitError):
            build_geometric_bits_sampler(builder, seed, 0.9, 4, 16, 8)


def one_sided_pmf(alpha: float, magnitude_bits: int, precision_bits: int) -> np.ndarray:
    """Exact PMF over ``[0, 2^magnitude_bits)`` of one geometric the
    circuit assembles: coin ``i`` adds ``2^i`` with its quantized
    probability, independently of the others."""
    pmf = np.array([1.0])
    for threshold in geometric_bit_thresholds(alpha, magnitude_bits, precision_bits):
        p = threshold / (1 << precision_bits)
        pmf = np.concatenate([pmf * (1.0 - p), pmf * p])
    return pmf


def two_sided_pmf(pmf: np.ndarray) -> np.ndarray:
    """PMF of ``G1 - G2``: index ``k`` is ``d = k - (len(pmf) - 1)``."""
    size = 2 * len(pmf) - 1
    fft_size = 1 << (size - 1).bit_length()
    product = np.fft.rfft(pmf, fft_size) * np.fft.rfft(pmf[::-1], fft_size)
    return np.clip(np.fft.irfft(product, fft_size)[:size], 0.0, None)


def hockey_stick_delta(pmf: np.ndarray, shift: int, epsilon: float) -> float:
    """``sum_d max(0, P(d) - e^eps * P(d + shift))``, with ``P = 0`` off
    the support."""
    bound = math.exp(epsilon)
    inside = np.maximum(0.0, pmf[:-shift] - bound * pmf[shift:]).sum()
    return float(inside + pmf[-shift:].sum())


class TestExactPrivacy:
    """The (epsilon, delta) the in-MPC sampler really gives an
    Eisenberg-Noe release, from its exact output distribution: the
    quantized coins make it a truncated, slightly skewed geometric, so
    the release is (eps', delta)-DP rather than pure eps-DP."""

    @staticmethod
    def release_delta(preset: str, epsilon_factor: float) -> float:
        config = DStressConfig.preset(preset)
        sensitivity = EisenbergNoeProgram().sensitivity
        bits = config.noise_magnitude_bits_for(sensitivity)
        pmf = two_sided_pmf(
            one_sided_pmf(
                config.noise_alpha_for(sensitivity), bits, config.noise_precision_bits
            )
        )
        shift = round(sensitivity / config.fmt.resolution)
        assert shift == 2560
        return hockey_stick_delta(pmf, shift, epsilon_factor * config.output_epsilon)

    def test_paper_preset(self):
        assert 1e-6 < self.release_delta("paper", 1.0) < 3e-6
        assert self.release_delta("paper", 1.01) < 1e-9

    def test_demo_preset(self):
        # its top coin quantizes to probability 0 at 16 precision bits, so
        # the support ends at 2^16: delta stays ~1e-6 at any eps' near eps
        assert self.release_delta("demo", 1.05) < 1e-5
        config = DStressConfig.preset("demo")
        sensitivity = EisenbergNoeProgram().sensitivity
        thresholds = geometric_bit_thresholds(
            config.noise_alpha_for(sensitivity),
            config.noise_magnitude_bits_for(sensitivity),
            config.noise_precision_bits,
        )
        assert thresholds[-1] == 0 and thresholds[-2] > 0

    def test_pmf_matches_the_sampler(self):
        """The exact PMF is what the plaintext mirror draws: a symmetric
        distribution whose neighbouring ratio is alpha near zero."""
        alpha, bits, precision = 0.8, 10, 16
        pmf = two_sided_pmf(one_sided_pmf(alpha, bits, precision))
        zero = (1 << bits) - 1
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf == pytest.approx(pmf[::-1], abs=1e-15)
        assert pmf[zero + 1] / pmf[zero] == pytest.approx(alpha, rel=1e-3)
        rng = DeterministicRNG("exact")
        seed_width = geometric_bits_seed_width(bits, precision)
        draws = [
            sample_geometric_bits_plaintext(alpha, bits, precision, rng.randbits(seed_width))
            for _ in range(4000)
        ]
        assert sum(d == 0 for d in draws) / 4000 == pytest.approx(pmf[zero], abs=0.02)


class TestPartialSum:
    def test_partial_sum_circuit(self):
        circuit = build_partial_sum_circuit(3, value_bits=8, output_bits=12)
        out = circuit.evaluate({"state_0": 100, "state_1": 27, "state_2": 3})
        assert out["partial_sum"] == 130

    def test_signed_inputs(self):
        circuit = build_partial_sum_circuit(2, value_bits=8, output_bits=12)
        # -1 (0xFF) + 5 = 4 with sign extension
        out = circuit.evaluate({"state_0": 0xFF, "state_1": 5})
        assert out["partial_sum"] == 4


class TestUnderGMW:
    def test_noised_sum_in_mpc(self):
        """The §3.6 aggregation circuit end-to-end under GMW."""
        alpha, mb, pb = 0.8, 5, 8
        circuit = build_noised_sum_bits_circuit(2, 8, alpha, mb, pb)
        width = len(circuit.output_buses["noised_sum"])
        rng = DeterministicRNG("gmw-noise")
        engine = GMWEngine(3)
        seed_width = geometric_bits_seed_width(mb, pb)
        seed = rng.randbits(seed_width)
        shares = {
            "state_0": engine.share_input(40, 8, rng),
            "state_1": engine.share_input(2, 8, rng),
            "seed": engine.share_input(seed, seed_width, rng),
        }
        result = engine.evaluate(circuit, shares, rng)
        got = result.reveal("noised_sum", signed=True)
        assert got == 42 + sample_geometric_bits_plaintext(alpha, mb, pb, seed)
