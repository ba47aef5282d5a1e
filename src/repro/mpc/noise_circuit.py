"""In-MPC noise sampling (Dwork et al. [23] style).

The aggregation block must add Laplace noise to the final output *inside*
MPC (§3.6): the members combine random shares into a seed, expand the seed
into uniform bits, and run those bits through a circuit that outputs one
sample of the discretized Laplace (two-sided geometric) distribution. No
single member ever sees the noise value, so nobody can subtract it.

The sample is ``G1 - G2`` for two truncated one-sided geometrics, each
assembled from independent biased coins — one per magnitude bit, each a
comparator of uniform bits against a public threshold — so the circuit
costs ``2 * magnitude_bits`` comparators at any noise scale.
"""

from __future__ import annotations

from typing import List

from repro.exceptions import CircuitError
from repro.mpc.builder import Bus, CircuitBuilder
from repro.mpc.circuit import Circuit

__all__ = [
    "geometric_bit_probabilities",
    "geometric_bit_thresholds",
    "build_geometric_bits_sampler",
    "sample_geometric_bits_plaintext",
    "geometric_bits_seed_width",
]


def geometric_bit_probabilities(alpha: float, magnitude_bits: int) -> List[float]:
    """Bernoulli parameters of a geometric's binary digits.

    For ``G`` geometric on {0, 1, ...} with ``P(G = g) ~ alpha^g``, the
    binary digits of ``G`` are *independent*, with
    ``P(bit_i = 1) = alpha^(2^i) / (1 + alpha^(2^i))`` — the observation
    Dwork et al. [23] exploit to sample noise inside MPC with a handful of
    biased coin flips instead of a giant inverse-CDF table. Truncating to
    ``magnitude_bits`` digits samples exactly ``G | G < 2^magnitude_bits``.
    """
    if not 0.0 < alpha < 1.0:
        raise CircuitError("alpha must lie in (0, 1)")
    probabilities = []
    for i in range(magnitude_bits):
        a_pow = alpha ** (1 << i)
        probabilities.append(a_pow / (1.0 + a_pow))
    return probabilities


def geometric_bit_thresholds(
    alpha: float, magnitude_bits: int, precision_bits: int
) -> List[int]:
    """The public comparator thresholds of the sampler's coins: coin ``i``
    is 1 when ``precision_bits`` uniform bits read below threshold ``i``,
    i.e. with probability ``threshold_i / 2^precision_bits``."""
    grid = 1 << precision_bits
    return [
        min(grid - 1, max(0, round(probability * grid)))
        for probability in geometric_bit_probabilities(alpha, magnitude_bits)
    ]


def geometric_bits_seed_width(magnitude_bits: int, precision_bits: int) -> int:
    """Uniform bits consumed by one two-sided geometric sample."""
    return 2 * magnitude_bits * precision_bits


def build_geometric_bits_sampler(
    builder: CircuitBuilder,
    uniform: Bus,
    alpha: float,
    magnitude_bits: int,
    precision_bits: int,
    output_width: int,
) -> Bus:
    """Append a Dwork-style two-sided geometric sampler to ``builder``.

    The sample is ``G1 - G2`` for two independent (truncated) geometrics;
    each geometric is assembled from ``magnitude_bits`` independent biased
    coins, and each coin is one comparator of ``precision_bits`` uniform
    bits against a public threshold. Cost is
    ``2 * magnitude_bits`` comparators.
    """
    needed = geometric_bits_seed_width(magnitude_bits, precision_bits)
    if len(uniform) != needed:
        raise CircuitError(f"sampler needs exactly {needed} uniform bits, got {len(uniform)}")
    if output_width <= magnitude_bits:
        raise CircuitError("output width must exceed the magnitude width")
    thresholds = geometric_bit_thresholds(alpha, magnitude_bits, precision_bits)

    def one_geometric(offset: int) -> Bus:
        bits = []
        for i, threshold in enumerate(thresholds):
            start = offset + i * precision_bits
            chunk = uniform[start : start + precision_bits]
            bits.append(builder.lt_unsigned(chunk, builder.const_bus(threshold, precision_bits)))
        return bits  # LSB-first magnitude: plain wiring, no gates

    g1 = builder.zero_extend(one_geometric(0), output_width)
    g2 = builder.zero_extend(one_geometric(magnitude_bits * precision_bits), output_width)
    return builder.sub(g1, g2, width=output_width)


def sample_geometric_bits_plaintext(
    alpha: float, magnitude_bits: int, precision_bits: int, seed: int
) -> int:
    """Bit-exact plaintext mirror of :func:`build_geometric_bits_sampler`.

    ``seed`` packs the uniform bus LSB-first, exactly as the circuit input.
    """
    thresholds = geometric_bit_thresholds(alpha, magnitude_bits, precision_bits)
    mask = (1 << precision_bits) - 1

    def one_geometric(offset: int) -> int:
        value = 0
        for i, threshold in enumerate(thresholds):
            chunk = (seed >> (offset + i * precision_bits)) & mask
            if chunk < threshold:
                value |= 1 << i
        return value

    return one_geometric(0) - one_geometric(magnitude_bits * precision_bits)


def build_noised_sum_bits_circuit(
    num_inputs: int,
    value_bits: int,
    alpha: float,
    magnitude_bits: int,
    precision_bits: int = 16,
) -> Circuit:
    """The aggregation+noising circuit of §3.6.

    Inputs: ``state_0 .. state_{num_inputs-1}`` (signed, ``value_bits``
    wide) and ``seed`` (``geometric_bits_seed_width(magnitude_bits,
    precision_bits)`` bits of shared randomness). Output ``noised_sum =
    sum_i state_i + Y`` with ``Y`` from :func:`build_geometric_bits_sampler`,
    carried at full width so the sum cannot overflow.
    """
    builder = CircuitBuilder()
    extra = max(1, num_inputs.bit_length())
    total_width = max(value_bits + extra, magnitude_bits + 2)
    acc = builder.const_bus(0, total_width)
    for index in range(num_inputs):
        bus = builder.input_bus(f"state_{index}", value_bits)
        acc = builder.add(acc, builder.sign_extend(bus, total_width), width=total_width)
    seed = builder.input_bus("seed", geometric_bits_seed_width(magnitude_bits, precision_bits))
    noise = build_geometric_bits_sampler(
        builder, seed, alpha, magnitude_bits, precision_bits, total_width
    )
    noised = builder.add(acc, noise, width=total_width)
    builder.output_bus("noised_sum", noised)
    return builder.circuit


def build_partial_sum_circuit(num_inputs: int, value_bits: int, output_bits: int) -> Circuit:
    """Un-noised partial-sum circuit for the inner nodes of a hierarchical
    aggregation tree (§3.6): noise is only added once, at the root."""
    builder = CircuitBuilder()
    acc = builder.const_bus(0, output_bits)
    for index in range(num_inputs):
        bus = builder.input_bus(f"state_{index}", value_bits)
        acc = builder.add(acc, builder.sign_extend(bus, output_bits), width=output_bits)
    builder.output_bus("partial_sum", acc)
    return builder.circuit
