"""Differential privacy mechanisms: Laplace and two-sided geometric.

The Laplace mechanism (Dwork et al. [24]) noises the final DStress output
(§3.1, §3.6); the two-sided geometric mechanism (Ghosh et al. [33]) noises
the bit sums inside the message transfer protocol (§3.5, Appendix B). Both
are implemented from first principles on the deterministic RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import SensitivityError

__all__ = [
    "laplace_sample",
    "laplace_mechanism",
    "geometric_sample",
    "two_sided_geometric_sample",
    "two_sided_geometric_samples",
    "two_sided_geometric_mechanism",
    "laplace_tail_probability",
    "LaplaceMechanism",
    "TwoSidedGeometricMechanism",
]


def laplace_sample(scale: float, rng: DeterministicRNG) -> float:
    """One draw from ``Lap(scale)`` via inverse-CDF sampling."""
    if scale <= 0:
        raise SensitivityError("Laplace scale must be positive")
    # u in (-0.5, 0.5]; the open lower end avoids log(0).
    u = rng.random() - 0.5
    if u == -0.5:
        u = 0.5
    return -scale * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


def laplace_mechanism(value: float, sensitivity: float, epsilon: float, rng: DeterministicRNG) -> float:
    """``value + Lap(sensitivity / epsilon)`` — epsilon-DP for queries with
    the given L1 sensitivity."""
    if sensitivity < 0:
        raise SensitivityError("sensitivity must be non-negative")
    if epsilon <= 0:
        raise SensitivityError("epsilon must be positive")
    if sensitivity == 0:
        return value
    return value + laplace_sample(sensitivity / epsilon, rng)


def laplace_tail_probability(scale: float, threshold: float) -> float:
    """``P(|Lap(scale)| > threshold)`` — used by the §4.5 utility analysis."""
    if threshold < 0:
        return 1.0
    return math.exp(-threshold / scale)


def geometric_sample(alpha: float, rng: DeterministicRNG) -> int:
    """One-sided geometric on {0, 1, ...} with ``P(k) = (1-alpha) alpha^k``."""
    if not 0.0 < alpha < 1.0:
        raise SensitivityError("alpha must lie in (0, 1)")
    return _geometric_quantile(rng.random(), math.log(alpha))


def _geometric_quantile(u: float, log_alpha: float) -> int:
    """Inverse CDF: smallest k with 1 - alpha^{k+1} >= u."""
    if u <= 0.0:
        return 0
    return max(0, math.ceil(math.log(1.0 - u) / log_alpha) - 1)


def two_sided_geometric_sample(alpha: float, rng: DeterministicRNG) -> int:
    """Two-sided geometric: ``P(d) = (1-alpha)/(1+alpha) * alpha^|d|``.

    Sampled as the difference of two independent one-sided geometrics,
    which has exactly this PMF.
    """
    return geometric_sample(alpha, rng) - geometric_sample(alpha, rng)


def two_sided_geometric_samples(alpha: float, count: int, rng: DeterministicRNG) -> List[int]:
    """``count`` draws of :func:`two_sided_geometric_sample` from one read
    of the stream: the same values, and the same generator state
    afterwards, as ``count`` sequential calls."""
    if not 0.0 < alpha < 1.0:
        raise SensitivityError("alpha must lie in (0, 1)")
    log_alpha = math.log(alpha)
    halves = [_geometric_quantile(u, log_alpha) for u in rng.randoms(2 * count)]
    return [halves[i] - halves[i + 1] for i in range(0, len(halves), 2)]


def two_sided_geometric_mechanism(
    value: int, sensitivity: int, epsilon: float, rng: DeterministicRNG
) -> int:
    """``value + Y`` with ``Y`` two-sided geometric, ``alpha = e^{-eps/s}``.

    For integer-valued queries of sensitivity ``s`` this is the universally
    utility-maximizing epsilon-DP mechanism of Ghosh et al. [33].
    """
    if sensitivity < 0:
        raise SensitivityError("sensitivity must be non-negative")
    if epsilon <= 0:
        raise SensitivityError("epsilon must be positive")
    if sensitivity == 0:
        return value
    alpha = math.exp(-epsilon / sensitivity)
    return value + two_sided_geometric_sample(alpha, rng)


@dataclass(frozen=True)
class LaplaceMechanism:
    """A reusable epsilon-DP Laplace mechanism for a fixed query shape."""

    sensitivity: float
    epsilon: float

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon

    def release(self, value: float, rng: DeterministicRNG) -> float:
        return laplace_mechanism(value, self.sensitivity, self.epsilon, rng)

    def tail_probability(self, threshold: float) -> float:
        """``P(|noise| > threshold)``."""
        return laplace_tail_probability(self.scale, threshold)


@dataclass(frozen=True)
class TwoSidedGeometricMechanism:
    """A reusable epsilon-DP geometric mechanism for integer queries."""

    sensitivity: int
    epsilon: float

    @property
    def alpha(self) -> float:
        return math.exp(-self.epsilon / self.sensitivity)

    def release(self, value: int, rng: DeterministicRNG) -> int:
        return two_sided_geometric_mechanism(value, self.sensitivity, self.epsilon, rng)
