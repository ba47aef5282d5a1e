"""The unified result type every engine backend returns.

Every engine run, whatever the backend, ends in one :class:`RunResult`:
the headline aggregate, the convergence trajectory, iteration/timing
data, and the secure-only extras (traffic, phases, epsilon) as
optionals; backend-specific scalars ride in ``extras``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.convergence import DEFAULT_TOLERANCE, convergence_index, has_converged
from repro.core.lifecycle import ReleaseRecord
from repro.obs.export import export_run, run_from_doc, run_to_doc
from repro.simulation.netsim import PhaseTimer, TrafficMeter

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """What one engine execution produced, in engine-independent shape.

    Attributes
    ----------
    engine / program:
        Registry names of the backend and vertex program that ran.
    aggregate:
        The headline number. For releasing runs (``secure``,
        ``secure-async``, any windowed release) this is the *noised* output — the only value a real
        deployment would publish; for plaintext engines it is exact.
    trajectory:
        Aggregate of the designated register after each computation step.
        For the secure engine this is a simulation-only diagnostic
        reconstructed by the harness.
    iterations:
        Computation+communication rounds executed (the resolved value when
        the session ran with ``iterations="auto"``).
    wall_seconds:
        Wall-clock time of the engine execution.
    pre_noise_aggregate:
        Exact aggregate before output noising (releasing engines only;
        simulation-only — no participant learns it).
    noise_raw:
        Applied output noise in raw fixed-point LSBs (releasing engines).
    epsilon:
        Differential-privacy budget consumed by this release, ``None`` for
        engines that release nothing.
    traffic / phases:
        Per-node traffic metering and per-phase timings (secure engine).
    final_states:
        Decoded per-vertex states (plaintext engines; the secure engine
        never reconstructs them).
    extras:
        Backend-specific scalars, e.g. the secure engine's
        ``transfer_count`` and ``gmw_ot_count``.
    releases:
        Per-window :class:`~repro.core.lifecycle.ReleaseRecord` entries
        for releasing runs driven through the shared lifecycle. A
        one-shot release has a single record; ``release="windowed"``
        continual release has one per window. The headline
        ``aggregate``/``noise_raw``/``epsilon`` fields describe the last
        (cumulative) release.
    """

    engine: str
    program: str
    aggregate: float
    trajectory: List[float]
    iterations: int
    wall_seconds: float
    pre_noise_aggregate: Optional[float] = None
    noise_raw: Optional[int] = None
    epsilon: Optional[float] = None
    traffic: Optional[TrafficMeter] = None
    phases: Optional[PhaseTimer] = None
    final_states: Optional[Dict[int, Dict[str, float]]] = None
    extras: Dict[str, float] = field(default_factory=dict)
    releases: Optional[List[ReleaseRecord]] = None

    @property
    def exact_aggregate(self) -> float:
        """The pre-noise aggregate when one exists, else ``aggregate``.

        This is the value engine-parity checks compare: every backend must
        compute the same function before output noising.
        """
        if self.pre_noise_aggregate is not None:
            return self.pre_noise_aggregate
        return self.aggregate

    def converged_at(self, tolerance: float = DEFAULT_TOLERANCE) -> Optional[int]:
        """Smallest iteration count after which the (pre-noise) aggregate
        stopped moving by more than ``tolerance`` (``None`` if it never
        settled)."""
        return convergence_index(self.trajectory, tolerance)

    def converged(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        """Whether the trajectory's final step moved at most ``tolerance``."""
        return has_converged(self.trajectory, tolerance)

    @property
    def releases_output(self) -> bool:
        """Whether this run consumed privacy budget (noised its output)."""
        return self.epsilon is not None

    def to_doc(self) -> Dict[str, Any]:
        """This result as its ``dstress.obs.run`` document — the one
        serialization every cache, wire and export carries (DESIGN.md
        "The run document"). A value the schema cannot hold is a
        :class:`~repro.exceptions.ResultFormatError`."""
        return run_to_doc(self)

    @classmethod
    def from_doc(cls, doc: Any) -> "RunResult":
        """The inverse of :meth:`to_doc`, equal field for field; any other
        input is a :class:`~repro.exceptions.ResultFormatError`."""
        return run_from_doc(doc)

    def export(self, recorder: Any = None) -> Dict[str, Any]:
        """:meth:`to_doc` plus a ``trace`` entry: the spans and metrics of
        the :class:`~repro.obs.trace.TraceRecorder` passed, else null."""
        return export_run(self, recorder=recorder)

    def summary(self) -> str:
        """One-line human-readable digest (used by examples and the CLI
        of future backends)."""
        parts = [
            f"{self.program} via {self.engine}:",
            f"aggregate={self.aggregate:.4f}",
            f"iterations={self.iterations}",
            f"wall={self.wall_seconds:.2f}s",
        ]
        if self.epsilon is not None:
            parts.append(f"epsilon={self.epsilon:g}")
        converged = self.converged_at()
        if converged is not None:
            parts.append(f"converged@{converged}")
        return " ".join(parts)
