"""Runtime configuration for a DStress deployment."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.core.transport import validate_wan_params
from repro.crypto.group import GROUP_256, GROUP_512, TOY_GROUP_64, CyclicGroup
from repro.exceptions import ConfigurationError
from repro.mpc.fixedpoint import FixedPointFormat
from repro.privacy.mechanisms import geometric_alpha

__all__ = ["DStressConfig", "available_presets"]


@dataclass
class DStressConfig:
    """Everything a DStress run needs beyond the program and graph.

    Attributes
    ----------
    collusion_bound:
        ``k`` (§3.2 assumption 3): blocks have ``k + 1`` members; any
        coalition of at most ``k`` nodes learns nothing. Every AND gate
        is an OT among the block's members; no trusted party takes part.
    fmt:
        Fixed-point format of state registers and messages (``L`` bits).
    group:
        DDH group of the setup keys, the transfer's key agreement and OT
        accounting. The paper deployed secp384r1; the default 256-bit
        Schnorr group keeps runs fast (see DESIGN.md).
    output_epsilon:
        Per-release epsilon for the final Laplace/geometric noising.
    noise_magnitude_bits / noise_precision_bits:
        Size of the in-MPC noise sampler (see
        :func:`repro.mpc.noise_circuit.build_geometric_bits_sampler`).
    aggregation_fanout:
        Max inputs per aggregation block; more vertices trigger the
        hierarchical tree of §3.6 (the paper projects with fanout 100).
    pad_transfers:
        When True, every vertex runs a transfer for all ``D`` slots each
        round (self-sending no-ops on unused slots), hiding vertex degrees
        from block members at ~``D/avg_degree`` times the communication
        cost. The paper transfers only on real edges (§3.6), so the
        default is False.
    wan_latency_seconds / wan_bandwidth_bytes / wan_jitter:
        The simulated WAN model behind
        :class:`~repro.core.transport.SimulatedWanTransport`: base one-way
        link latency in seconds, link bandwidth in bytes/second (``None``
        means unconstrained), and the per-link deterministic jitter
        fraction (each directed link's latency is scaled by a factor in
        ``[1 - jitter, 1 + jitter]`` derived from the seed). Latency 0
        (the default) keeps the transport delay-free.
    """

    collusion_bound: int = 2
    fmt: FixedPointFormat = field(default_factory=FixedPointFormat)
    group: CyclicGroup = field(default_factory=lambda: GROUP_256)
    output_epsilon: float = 0.23
    noise_magnitude_bits: Optional[int] = None
    noise_precision_bits: int = 16
    aggregation_fanout: int = 100
    pad_transfers: bool = False
    wan_latency_seconds: float = 0.0
    wan_bandwidth_bytes: Optional[float] = None
    wan_jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.collusion_bound < 1:
            raise ConfigurationError("collusion bound k must be at least 1")
        validate_wan_params(
            self.wan_latency_seconds, self.wan_bandwidth_bytes, self.wan_jitter
        )
        if self.output_epsilon <= 0:
            raise ConfigurationError("output epsilon must be positive")
        if self.aggregation_fanout < 2:
            raise ConfigurationError("aggregation fanout must be at least 2")

    @property
    def block_size(self) -> int:
        """``k + 1``."""
        return self.collusion_bound + 1

    def noise_alpha_for(
        self, sensitivity: float, epsilon: Optional[float] = None
    ) -> float:
        """Geometric parameter of the output noise in raw LSB units
        (:func:`~repro.privacy.mechanisms.geometric_alpha` on this
        config's grid). ``epsilon`` overrides the config's
        ``output_epsilon`` for per-window continual release; the default
        is the full one-shot budget.
        """
        if sensitivity <= 0:
            raise ConfigurationError("sensitivity must be positive")
        eps = self.output_epsilon if epsilon is None else epsilon
        if eps <= 0:
            raise ConfigurationError("release epsilon must be positive")
        return geometric_alpha(sensitivity, eps, self.fmt.resolution)

    def noise_magnitude_bits_for(
        self, sensitivity: float, epsilon: Optional[float] = None
    ) -> int:
        """Magnitude bits covering the noise distribution's useful range.

        The truncated sampler covers ``[0, 2^bits)`` with ``2^bits >= 16``
        scale lengths of the geometric. Its coins are quantized to
        ``noise_precision_bits``, so a top coin may round to probability 0
        and cut the support short: at the demo preset it ends at ``2^16``,
        12.8 scale lengths. The exact (eps, delta) this buys is in
        DESIGN.md "Release noise". ``epsilon`` overrides ``output_epsilon``
        the same way as :meth:`noise_alpha_for` (smaller per-window
        budgets mean wider noise, so the window grows with it).
        """
        if self.noise_magnitude_bits is not None:
            return self.noise_magnitude_bits
        eps = self.output_epsilon if epsilon is None else epsilon
        if eps <= 0:
            raise ConfigurationError("release epsilon must be positive")
        scale_lsb = sensitivity / (eps * self.fmt.resolution)
        return max(4, math.ceil(math.log2(scale_lsb * 16.0)))

    # -- presets -----------------------------------------------------------------

    @classmethod
    def preset(cls, name: str, **overrides: Any) -> "DStressConfig":
        """A named parameter bundle, optionally customized.

        * ``demo`` — toy 64-bit group, generous epsilon:
          runs the full protocol on a laptop in seconds. Not private in any
          cryptographic sense (the group is breakable by hand).
        * ``paper`` — the paper's evaluation regime (§5): blocks of 8,
          256-bit DDH group, epsilon 0.23 so three releases fit in the
          yearly ln 2 budget.
        * ``production`` — conservative deployment parameters: blocks of
          10, 512-bit group, wider fixed point, padded transfers so vertex
          degrees stay hidden.

        Keyword overrides are applied on top of the preset and validated
        together (``DStressConfig.preset("demo", output_epsilon=0.1)``).
        """
        try:
            base = _PRESETS[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown preset {name!r}; available presets: "
                + ", ".join(available_presets())
            ) from None
        config = cls(**base)
        return config.with_updates(**overrides) if overrides else config

    def with_updates(self, **overrides: Any) -> "DStressConfig":
        """A copy with fields replaced (re-validated by ``__post_init__``)."""
        try:
            return replace(self, **overrides)
        except TypeError:
            valid = ", ".join(sorted(self.__dataclass_fields__))
            bad = sorted(set(overrides) - set(self.__dataclass_fields__))
            raise ConfigurationError(
                f"unknown config field(s) {bad}; valid fields: {valid}"
            ) from None


#: Named parameter bundles for :meth:`DStressConfig.preset`. Values are all
#: immutable, so sharing the singletons across configs is safe.
_PRESETS: Dict[str, Dict[str, Any]] = {
    "demo": dict(
        collusion_bound=2,
        fmt=FixedPointFormat(16, 8),
        group=TOY_GROUP_64,
        output_epsilon=0.5,
        seed=2017,
    ),
    "paper": dict(
        collusion_bound=7,
        fmt=FixedPointFormat(16, 8),
        group=GROUP_256,
        output_epsilon=0.23,
    ),
    "production": dict(
        collusion_bound=9,
        fmt=FixedPointFormat(24, 10),
        group=GROUP_512,
        output_epsilon=0.23,
        aggregation_fanout=100,
        pad_transfers=True,
    ),
}


def available_presets() -> List[str]:
    """Names accepted by :meth:`DStressConfig.preset`."""
    return sorted(_PRESETS)
