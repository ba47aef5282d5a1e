"""The fleet-scale stress-test service layer.

DStress's end-state is not a library invoked per run but a standing
service banks query for systemic-risk numbers. This package wraps the
session/batch API (:mod:`repro.api`) in that service:

* :mod:`repro.service.scenario_ast` — scenarios arrive as a versioned
  JSON **AST** (graph generator + params, program, engine + options,
  epsilon request), pass a strict whitelist validator, and are
  **notarized**: canonicalized and fingerprinted with the same
  content digests the scenario cache keys on. Only checked, bounded
  documents ever reach an engine — no arbitrary code crosses the wire.
* :mod:`repro.service.server` — :class:`StressTestService`, an asyncio
  TCP/JSON-lines server with a bounded worker pool. Every request is
  admission-controlled by atomically pre-charging the shared
  :class:`~repro.privacy.budget.PrivacyAccountant` before scheduling
  (refunded on failure), and concurrent identical requests coalesce
  into one engine run and one epsilon charge (**single-flight**).
* :mod:`repro.service.client` — the sync :class:`ServiceClient`.

Run a service: ``python -m repro.service`` (see ``--help``). DESIGN.md
"Service layer" documents the AST schema and the admission/single-flight
flow.
"""

from repro.service.client import ServiceClient, ServiceResponse
from repro.service.scenario_ast import (
    AST_VERSION,
    NotarizedScenario,
    build_session,
    canonical_json,
    notarize,
    validate_scenario,
)
from repro.service.server import StressTestService

__all__ = [
    "AST_VERSION",
    "NotarizedScenario",
    "ServiceClient",
    "ServiceResponse",
    "StressTestService",
    "build_session",
    "canonical_json",
    "notarize",
    "validate_scenario",
]
