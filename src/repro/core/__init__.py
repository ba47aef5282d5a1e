"""DStress core: programming model, plaintext and secure engines."""

from repro.core.convergence import DEFAULT_TOLERANCE, convergence_index, has_converged
from repro.core.engine import plaintext_loop
from repro.core.graph import DistributedGraph, VertexView
from repro.core.lifecycle import (
    STAGES,
    LifecycleCore,
    OneShotRelease,
    ReleasePolicy,
    ReleaseRecord,
    RunState,
    WindowedRelease,
    run_lifecycle,
)
from repro.core.program import NO_OP_MESSAGE, ProgramSpec, VertexProgram
from repro.core.rounds import route_messages, run_rounds

__all__ = [
    "DEFAULT_TOLERANCE",
    "DistributedGraph",
    "LifecycleCore",
    "NO_OP_MESSAGE",
    "OneShotRelease",
    "ProgramSpec",
    "ReleasePolicy",
    "ReleaseRecord",
    "RunState",
    "STAGES",
    "VertexProgram",
    "VertexView",
    "WindowedRelease",
    "convergence_index",
    "has_converged",
    "plaintext_loop",
    "route_messages",
    "run_lifecycle",
    "run_rounds",
]
