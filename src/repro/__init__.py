"""repro — a from-scratch reproduction of DStress (EuroSys 2017).

DStress executes vertex programs over graphs that are physically
distributed across mutually distrustful participants, guaranteeing value,
edge and (differentially private) output privacy. The headline use case is
measuring systemic risk in financial networks without any bank revealing
its books.

Quickstart — the unified session API::

    from repro import Bank, FinancialNetwork, StressTest

    net = FinancialNetwork()
    for i in range(4):
        net.add_bank(Bank(i, cash=1.0))
    net.add_debt(0, 1, 2.0)
    ...
    result = (
        StressTest(net)
        .program("eisenberg-noe")
        .engine("secure")
        .preset("demo")
        .privacy(epsilon=0.5)
        .run(iterations="auto")
    )
    print(result.aggregate)      # the released, noised total shortfall

The protocol-level classes (:class:`SecureEngine`, :class:`PlaintextEngine`,
:class:`DStressConfig`, ...) remain public for callers that need direct
control. See DESIGN.md for the architecture and README.md for the
migration table from the pre-1.1 per-engine entry points.
"""

from repro.api import (
    BatchResult,
    Engine,
    RunResult,
    Scenario,
    ScenarioOutcome,
    StressTest,
    available_engines,
    available_programs,
    register_engine,
    register_program,
)
from repro.core import (
    NO_OP_MESSAGE,
    DistributedGraph,
    OneShotRelease,
    PlaintextEngine,
    ProgramSpec,
    ReleaseRecord,
    VertexProgram,
    VertexView,
    WindowedRelease,
)
from repro.core.config import DStressConfig, available_presets
from repro.core.convergence import convergence_index
from repro.core.secure_engine import SecureEngine
from repro.finance import (
    Bank,
    EisenbergNoeProgram,
    ElliottGolubJacksonProgram,
    FinancialNetwork,
    clearing_vector,
    egj_fixpoint,
)
from repro.mpc import FixedPointFormat
from repro.privacy import DollarPrivacySpec, PrivacyAccountant

__version__ = "1.1.0"

__all__ = [
    "Bank",
    "BatchResult",
    "DStressConfig",
    "DistributedGraph",
    "DollarPrivacySpec",
    "EisenbergNoeProgram",
    "ElliottGolubJacksonProgram",
    "Engine",
    "FinancialNetwork",
    "FixedPointFormat",
    "NO_OP_MESSAGE",
    "OneShotRelease",
    "PlaintextEngine",
    "PrivacyAccountant",
    "ProgramSpec",
    "ReleaseRecord",
    "RunResult",
    "Scenario",
    "ScenarioOutcome",
    "SecureEngine",
    "StressTest",
    "VertexProgram",
    "VertexView",
    "WindowedRelease",
    "available_engines",
    "available_presets",
    "available_programs",
    "clearing_vector",
    "convergence_index",
    "egj_fixpoint",
    "register_engine",
    "register_program",
    "__version__",
]
