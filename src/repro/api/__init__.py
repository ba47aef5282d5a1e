"""The unified DStress session API.

This package is the public face of the reproduction: one fluent
:class:`StressTest` session over pluggable :class:`Engine` backends, a
single :class:`RunResult` shape for every backend, and a batch layer
(:class:`Scenario` / :class:`BatchResult`) that fans scenario sweeps
across a process pool while one :class:`~repro.privacy.budget.PrivacyAccountant`
guards the yearly budget.

Importing this package registers the built-in engines (``plaintext``,
``fixed``, ``secure``) and programs (``eisenberg-noe``,
``elliott-golub-jackson``). See DESIGN.md for the architecture and
README.md for the old-call → new-call migration table.
"""

from repro.api.batch import BatchResult, Scenario, ScenarioOutcome, run_batch
from repro.api.cache import ScenarioCache, ScenarioCacheBase, run_fingerprint
from repro.api.diskcache import PersistentScenarioCache
from repro.api.engines import (
    Engine,
    PlaintextFixedEngine,
    PlaintextFloatEngine,
    SecureDStressEngine,
)
from repro.api.registry import (
    ProgramEntry,
    available_engines,
    available_programs,
    get_engine,
    get_program,
    register_engine,
    register_program,
)
from repro.api.result import RunResult
from repro.api.session import ResolvedRun, StressTest

__all__ = [
    "BatchResult",
    "Engine",
    "PersistentScenarioCache",
    "PlaintextFixedEngine",
    "PlaintextFloatEngine",
    "ProgramEntry",
    "ResolvedRun",
    "RunResult",
    "Scenario",
    "ScenarioCache",
    "ScenarioCacheBase",
    "ScenarioOutcome",
    "SecureDStressEngine",
    "StressTest",
    "available_engines",
    "available_programs",
    "get_engine",
    "get_program",
    "register_engine",
    "register_program",
    "run_batch",
    "run_fingerprint",
]
