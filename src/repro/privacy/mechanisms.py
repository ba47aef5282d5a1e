"""Differential privacy mechanisms: the two-sided geometric on a grid.

DStress publishes one kind of noise, the discretized Laplace — the
two-sided geometric of Ghosh et al. [33] over fixed-point LSBs (§3.6).
:func:`geometric_release` is the one clear release: every engine that
noises centrally and every dollar-DP release goes through it, and the
secure engine samples the same distribution inside MPC. The paper's
ElGamal transfer noises its bit sums with the same sampler (§3.5,
Appendix B); runs take the pad transfer, which adds none.
All draws come from the deterministic RNG.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import SensitivityError

__all__ = [
    "geometric_alpha",
    "geometric_release",
    "geometric_sample",
    "two_sided_geometric_cdf",
    "two_sided_geometric_sample",
    "two_sided_geometric_samples",
]


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


def two_sided_geometric_cdf(alpha: float, d: int) -> float:
    """``P(Y <= d)`` for the two-sided geometric sampled above."""
    if not 0.0 < alpha < 1.0:
        raise SensitivityError("alpha must lie in (0, 1)")
    if d < 0:
        return alpha ** (-d) / (1.0 + alpha)
    return 1.0 - alpha ** (d + 1) / (1.0 + alpha)


def geometric_alpha(sensitivity: float, epsilon: float, resolution: float) -> float:
    """The geometric parameter of an epsilon-DP release on a grid.

    The discretized Laplace of scale ``sensitivity / epsilon`` becomes a
    two-sided geometric over grid steps with
    ``alpha = exp(-epsilon * resolution / sensitivity)``.
    """
    return math.exp(-epsilon * resolution / sensitivity)


def geometric_release(
    value: float,
    sensitivity: float,
    epsilon: float,
    resolution: float,
    rng: DeterministicRNG,
) -> Tuple[float, int]:
    """Release ``value`` under epsilon-DP as a point of the grid.

    ``value`` is snapped to the nearest multiple of ``resolution`` and
    moved by a two-sided geometric number of grid steps, so nothing below
    the grid's last bit is published. Returns ``(released, noise_raw)``
    with ``released == (round(value / resolution) + noise_raw) *
    resolution``. A zero-sensitivity release is exact: the value comes
    back unchanged and nothing is drawn.
    """
    if sensitivity < 0:
        raise SensitivityError("sensitivity must be non-negative")
    if epsilon <= 0:
        raise SensitivityError("epsilon must be positive")
    if sensitivity == 0:
        return value, 0
    alpha = geometric_alpha(sensitivity, epsilon, resolution)
    noise_raw = two_sided_geometric_sample(alpha, rng)
    return (round(value / resolution) + noise_raw) * resolution, noise_raw
