"""Convergence detection over aggregate trajectories.

Every engine records the aggregate of the designated register after every
computation step (the *trajectory*). The systemic-risk programs are
monotone contractions — Eisenberg-Noe's fictitious default algorithm and
the EGJ discount cascade both settle to a fixpoint in at most ``n``
rounds — so the first round whose aggregate moves less than a tolerance
is a sound stopping point (§4.3: "a limited number of iterations provides
a good approximation").

The helpers here are shared by :class:`~repro.api.result.RunResult` and
the ``iterations="auto"`` mode of :class:`repro.api.StressTest`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "DEFAULT_TOLERANCE",
    "convergence_index",
    "has_converged",
]

#: Default absolute tolerance on the aggregate delta between rounds. The
#: fixed-point resolution of the default format (2^-8 ≈ 0.004) is coarser
#: than this, so a converged float trajectory implies a converged circuit
#: trajectory as well.
DEFAULT_TOLERANCE = 1e-6


def convergence_index(
    trajectory: Sequence[float], tolerance: float = DEFAULT_TOLERANCE
) -> Optional[int]:
    """First index ``i`` with ``|trajectory[i] - trajectory[i-1]| <= tolerance``.

    ``trajectory[i]`` is the aggregate after ``i + 1`` computation steps,
    so a return value of ``k`` means: running the program with
    ``iterations=k`` already produces an aggregate within ``tolerance`` of
    the ``k``-th entry — the smallest iteration count worth paying MPC
    rounds for. Returns ``None`` if the trajectory never settles.
    """
    if tolerance < 0:
        raise ConfigurationError("convergence tolerance cannot be negative")
    for index in range(1, len(trajectory)):
        if abs(trajectory[index] - trajectory[index - 1]) <= tolerance:
            return index
    return None


def has_converged(
    trajectory: Sequence[float], tolerance: float = DEFAULT_TOLERANCE
) -> bool:
    """Whether the trajectory's final step moved at most ``tolerance``."""
    if len(trajectory) < 2:
        return False
    return abs(trajectory[-1] - trajectory[-2]) <= tolerance
