"""Dollar-differential privacy (Flood et al. [30], §4.1).

Standard DP protects the presence of one *record*; in the financial
setting the protected object is a *position*: two input data sets are
similar when one can be turned into the other by reallocating at most ``T``
dollars within a single portfolio. Choosing the granularity ``T`` sets the
unit in which program sensitivity is measured: a release is the value in
units of ``T``, snapped to the default fixed-point grid and moved by the
discretized ``Lap(s / eps)`` noise every DStress release carries
(:func:`~repro.privacy.mechanisms.geometric_release`), then scaled back
to dollars.

The paper follows Flood et al. in using ``T = $1 billion`` — roughly the
equity of the 100th largest U.S. bank — which completely protects all
positions up to that size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import SensitivityError
from repro.mpc.fixedpoint import FixedPointFormat
from repro.privacy.mechanisms import (
    geometric_alpha,
    geometric_release,
    two_sided_geometric_cdf,
)

__all__ = ["DollarPrivacySpec", "DEFAULT_GRANULARITY_USD"]

#: $1 billion, the granularity suggested by Flood et al. [30] and adopted
#: in §4.5.
DEFAULT_GRANULARITY_USD = 1e9

#: The grid a dollar-DP release lands on, in units of ``T``: the default
#: fixed-point format's LSB, the grid the engines release on.
_GRID = FixedPointFormat().resolution


@dataclass(frozen=True)
class DollarPrivacySpec:
    """Parameters of a dollar-DP release.

    Attributes
    ----------
    granularity:
        The protection threshold ``T`` in dollars: portfolios differing by
        a reallocation of up to ``T`` dollars are indistinguishable up to
        ``e^epsilon``.
    sensitivity:
        The program's sensitivity in units of ``T`` (e.g. ``2/r`` for
        Elliott-Golub-Jackson with leverage bound ``r``).
    epsilon:
        The per-release privacy parameter.
    """

    granularity: float = DEFAULT_GRANULARITY_USD
    sensitivity: float = 1.0
    epsilon: float = 0.23

    def __post_init__(self) -> None:
        if self.granularity <= 0:
            raise SensitivityError("granularity T must be positive")
        if self.sensitivity < 0:
            raise SensitivityError("sensitivity must be non-negative")
        if self.epsilon <= 0:
            raise SensitivityError("epsilon must be positive")

    @property
    def noise_scale_dollars(self) -> float:
        """Scale of the discretized Laplace noise in dollars: ``T * s / eps``."""
        return self.granularity * self.sensitivity / self.epsilon

    def release(self, value_dollars: float, rng: DeterministicRNG) -> float:
        """Release a dollar-valued output under dollar-DP: a grid point in
        units of ``T`` plus integer geometric noise, in dollars."""
        if self.sensitivity == 0:
            return value_dollars
        released, _noise_raw = geometric_release(
            value_dollars / self.granularity, self.sensitivity, self.epsilon, _GRID, rng
        )
        return released * self.granularity

    def error_probability(self, error_dollars: float) -> float:
        """``P(|noise| > error_dollars)`` for this release: both tails of
        the two-sided geometric beyond the last grid step within the error."""
        if error_dollars < 0:
            return 1.0
        if self.sensitivity == 0:
            return 0.0
        alpha = geometric_alpha(self.sensitivity, self.epsilon, _GRID)
        steps = math.floor(error_dollars / (self.granularity * _GRID))
        return 2.0 * two_sided_geometric_cdf(alpha, -steps - 1)
