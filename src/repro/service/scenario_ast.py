"""The versioned scenario AST: validation, canonicalization, notarization.

A standing service cannot accept what the library API accepts — live
``FinancialNetwork`` objects, ``Engine`` instances, arbitrary
``VertexProgram`` subclasses — because all of those are code, and code
must never cross the service's trust boundary. What crosses instead is a
**JSON document** describing a scenario entirely in terms of whitelisted,
bounded primitives the server already ships:

::

    {
      "version": 1,
      "name": "core-shock-q3",
      "network":  {"generator": "core-periphery",
                   "params": {"num_banks": 50, "core_size": 10},
                   "seed": 7},
      "shock":    {"targets": [0, 1], "severity": 0.5},
      "program":  "eisenberg-noe",
      "engine":   {"name": "secure", "options": {"backend": "bitsliced"}},
      "preset":   "demo",
      "overrides": {"output_epsilon": 0.4},
      "iterations": "auto",
      "seed": 42
    }

Following the GraphProgram code-signing pattern, the document passes
three gates before an engine ever sees it:

1. **Whitelist validation** (:func:`validate_scenario`) — the type system
   *is* the whitelist: unknown top-level keys, unknown generators,
   engines or programs, non-whitelisted engine options or config
   overrides, wrong types (``bool`` is not an ``int``), non-finite
   floats, and out-of-bounds sizes are all rejected with a named
   :class:`~repro.exceptions.ScenarioValidationError`. There is no
   escape hatch: a program is a registry *name*, never a class; an
   engine option is a scalar from a closed set, never an object. The
   document also has a statically-determinable maximum cost — bank
   count, iteration count, and worker-visible sizes are capped.
2. **Canonicalization** (:func:`canonical_json`) — sorted keys, compact
   separators, defaults made explicit — so equality of scenarios is
   equality of strings and the document digest is stable across clients.
3. **Notarization** (:func:`notarize`) — the validated document is built
   into a resolved run and stamped with the same content-based
   :func:`~repro.api.cache.run_fingerprint` digest the scenario cache
   and the accountant's audit ledger key on. Two documents that would
   produce the same released bits get the same fingerprint, which is
   what lets the server single-flight them into one engine run and one
   epsilon charge. The network is the costly part of that build, and
   many scenarios share one: :data:`GRAPHS` builds each network spec's
   graph and its digest once per process.

The notarization is a trust stamp, not a privilege gate: the server
re-validates every submitted document itself and never executes anything
a client claims was "already notarized".
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.api.cache import graph_digest, run_fingerprint
from repro.api.registry import get_program
from repro.api.session import ResolvedRun, StressTest
from repro.core.config import available_presets
from repro.core.graph import DistributedGraph
from repro.core.lifecycle import MAX_WINDOWS as LIFECYCLE_MAX_WINDOWS
from repro.core.transport import validate_wan_params
from repro.mpc.plan import SealedTable
from repro.privacy.admission import release_epsilon
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, DStressError, ScenarioValidationError
from repro.finance.network import FinancialNetwork
from repro.finance.scenarios import Shock, apply_shock
from repro.graphgen import (
    CorePeripheryParams,
    RandomNetworkParams,
    ScaleFreeParams,
    core_periphery_network,
    random_network,
    scale_free_network,
)

__all__ = [
    "AST_VERSION",
    "GRAPHS",
    "GRAPH_ELEMENT_BOUND",
    "GRAPH_WEIGHT_FLOOR",
    "MAX_BANKS",
    "MAX_ITERATIONS",
    "NotarizedScenario",
    "build_network",
    "build_session",
    "canonical_json",
    "document_digest",
    "notarize",
    "validate_scenario",
]

#: Schema version of the scenario document. Bump on any incompatible
#: change; documents declaring another version are rejected, never
#: half-interpreted.
AST_VERSION = 1

#: Service-side boundedness caps: a notarized scenario's cost must be
#: statically determinable, so the document cannot ask for more than this.
MAX_BANKS = 512
MAX_ITERATIONS = 512
MAX_NAME_LENGTH = 200
MAX_SHOCK_TARGETS = MAX_BANKS
#: Upper bound on any single epsilon request — far above every sane
#: budget (ln 2 per year), it only exists so the arithmetic downstream
#: never sees an absurd magnitude.
MAX_EPSILON = 16.0

_GENERATORS: Dict[str, Tuple[type, Callable[..., FinancialNetwork]]] = {
    "core-periphery": (CorePeripheryParams, core_periphery_network),
    "random": (RandomNetworkParams, random_network),
    "scale-free": (ScaleFreeParams, scale_free_network),
}

#: Engine whitelist: the closed set of backends a service will run, and
#: for each the closed set of constructor options a document may set.
#: Notably *not* whitelisted: ``transport`` beyond the in-process string
#: specs (a transport instance is live code), and any engine registered
#: at runtime by library callers — the service's whitelist is its own.
_ENGINE_OPTIONS: Dict[str, Dict[str, Callable[[str, Any], Any]]] = {}

#: Config override whitelist: scalar fields of
#: :class:`~repro.core.config.DStressConfig` a document may override.
#: Structured fields (``fmt``, ``group``) are reachable only through the
#: named presets.
_OVERRIDE_FIELDS: Dict[str, Callable[[str, Any], Any]] = {}


def _fail(message: str) -> None:
    raise ScenarioValidationError(message)


def _require_int(where: str, value: Any, lo: int, hi: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{where} must be an int, got {type(value).__name__}")
    if not lo <= value <= hi:
        _fail(f"{where} must lie in [{lo}, {hi}], got {value}")
    return value


def _require_float(where: str, value: Any, lo: float, hi: float) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where} must be a number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        _fail(f"{where} must be finite, got {value!r}")
    if not lo <= value <= hi:
        _fail(f"{where} must lie in [{lo:g}, {hi:g}], got {value!r}")
    return value


def _require_bool(where: str, value: Any) -> bool:
    if not isinstance(value, bool):
        _fail(f"{where} must be a bool, got {type(value).__name__}")
    return value


def _require_str(where: str, value: Any, choices: Sequence[str]) -> str:
    if not isinstance(value, str):
        _fail(f"{where} must be a string, got {type(value).__name__}")
    if value not in choices:
        _fail(f"{where} must be one of {sorted(choices)}, got {value!r}")
    return value


def _int_field(lo: int, hi: int) -> Callable[[str, Any], int]:
    return lambda where, value: _require_int(where, value, lo, hi)


def _float_field(lo: float, hi: float) -> Callable[[str, Any], float]:
    return lambda where, value: _require_float(where, value, lo, hi)


def _str_field(*choices: str) -> Callable[[str, Any], str]:
    return lambda where, value: _require_str(where, value, choices)


def _wan_field(param: str, hi: float) -> Callable[[str, Any], float]:
    """A WAN model override: a bounded number that must also pass
    :func:`~repro.core.transport.validate_wan_params`, the one rule the
    config and the bus apply, so no document validates into a config
    that refuses it."""

    def check(where: str, value: Any) -> float:
        value = _require_float(where, value, 0.0, hi)
        params = {"latency_seconds": 0.0, "bandwidth_bytes": None, "jitter": 0.0, param: value}
        try:
            validate_wan_params(**params)
        except ConfigurationError as exc:
            _fail(f"{where}: {exc}")
        return value

    return check


def _require_int_list(
    where: str, value: Any, lo: int, hi: int, max_length: int
) -> Tuple[int, ...]:
    if not isinstance(value, list) or not value:
        _fail(f"{where} must be a non-empty list of round counts")
    if len(value) > max_length:
        _fail(f"{where} holds {len(value)} windows, cap is {max_length}")
    return tuple(
        _require_int(f"{where}[{i}]", item, lo, hi) for i, item in enumerate(value)
    )


#: Release-seam options every engine exposes (the lifecycle is shared, so
#: the whitelist is too): continual release is wire-submittable on any
#: backend. Cross-field rules (windows must sum to the iteration count)
#: live in :func:`validate_scenario` — they span sections.
_RELEASE_OPTIONS = {
    "release": _str_field("oneshot", "windowed"),
    "windows": lambda where, value: _require_int_list(
        where, value, 1, MAX_ITERATIONS, LIFECYCLE_MAX_WINDOWS
    ),
    "window_epsilon": _float_field(1e-6, MAX_EPSILON),
}

_ENGINE_OPTIONS.update(
    {
        "plaintext": {
            "tasks": _int_field(1, 64),
            "transport": _str_field("memory", "wan"),
            **_RELEASE_OPTIONS,
        },
        "fixed": {**_RELEASE_OPTIONS},
        "secure": {
            "tasks": _int_field(1, 64),
            "transport": _str_field("memory", "wan"),
            "backend": _str_field("scalar", "bitsliced"),
            **_RELEASE_OPTIONS,
        },
    }
)

_OVERRIDE_FIELDS.update(
    {
        "collusion_bound": _int_field(1, 16),
        "output_epsilon": _float_field(1e-6, MAX_EPSILON),
        "noise_precision_bits": _int_field(1, 64),
        "aggregation_fanout": _int_field(2, 1024),
        "pad_transfers": lambda where, value: _require_bool(where, value),
        "wan_latency_seconds": _wan_field("latency_seconds", 10.0),
        "wan_jitter": _wan_field("jitter", 1.0),
        "seed": _int_field(-(2**62), 2**62),
    }
)


def _check_keys(where: str, mapping: Mapping[str, Any], allowed: Sequence[str]) -> None:
    if not isinstance(mapping, dict):
        _fail(f"{where} must be a JSON object, got {type(mapping).__name__}")
    for key in mapping:
        if not isinstance(key, str):
            _fail(f"{where} has a non-string key {key!r}")
        if key not in allowed:
            _fail(
                f"{where} has unknown key {key!r}; allowed keys: "
                + ", ".join(sorted(allowed))
            )


@dataclass(frozen=True)
class ValidatedScenario:
    """The typed result of :func:`validate_scenario`: every field checked,
    bounded, and whitelisted — safe to build and execute."""

    name: str
    generator: str
    generator_params: Dict[str, Any]
    network_seed: int
    shock_targets: Optional[Tuple[int, ...]]
    shock_severity: float
    program: str
    engine: str
    engine_options: Dict[str, Any]
    preset: Optional[str]
    overrides: Dict[str, Any]
    epsilon: Optional[float]
    iterations: Union[int, str]
    max_iterations: Optional[int]
    seed: Optional[int]
    degree_bound: Optional[int]

    def document(self) -> Dict[str, Any]:
        """The canonical document form: every default explicit, so two
        scenarios that validate to the same thing serialize to the same
        bytes (and therefore the same digest)."""
        doc: Dict[str, Any] = {
            "version": AST_VERSION,
            "name": self.name,
            "network": {
                "generator": self.generator,
                "params": dict(self.generator_params),
                "seed": self.network_seed,
            },
            "program": self.program,
            "engine": {"name": self.engine, "options": dict(self.engine_options)},
            "overrides": dict(self.overrides),
            "iterations": self.iterations,
        }
        if self.shock_targets is not None:
            doc["shock"] = {
                "targets": list(self.shock_targets),
                "severity": self.shock_severity,
            }
        if self.preset is not None:
            doc["preset"] = self.preset
        if self.epsilon is not None:
            doc["epsilon"] = self.epsilon
        if self.max_iterations is not None:
            doc["max_iterations"] = self.max_iterations
        if self.seed is not None:
            doc["seed"] = self.seed
        if self.degree_bound is not None:
            doc["degree_bound"] = self.degree_bound
        return doc


_TOP_LEVEL_KEYS = (
    "version",
    "name",
    "network",
    "shock",
    "program",
    "engine",
    "preset",
    "overrides",
    "epsilon",
    "iterations",
    "max_iterations",
    "seed",
    "degree_bound",
)


def _validate_network(section: Any) -> Tuple[str, Dict[str, Any], int]:
    _check_keys("network", section, ("generator", "params", "seed"))
    if "generator" not in section:
        _fail("network needs a 'generator'")
    generator = _require_str("network.generator", section["generator"], _GENERATORS)
    params_cls, _factory = _GENERATORS[generator]
    raw_params = section.get("params", {})
    allowed = {f.name: f for f in fields(params_cls)}
    _check_keys("network.params", raw_params, tuple(allowed))
    params: Dict[str, Any] = {}
    for key, value in raw_params.items():
        where = f"network.params.{key}"
        declared = allowed[key].type
        if "int" in str(declared):
            params[key] = _require_int(where, value, 0, max(MAX_BANKS, 1 << 20))
        else:
            params[key] = _require_float(where, value, 0.0, 1e9)
    # the dataclass's own __post_init__ still runs (shape constraints like
    # core_size <= num_banks); the service adds the boundedness cap
    banks = params.get("num_banks", params_cls().num_banks)
    if banks > MAX_BANKS:
        _fail(f"network.params.num_banks must be at most {MAX_BANKS}, got {banks}")
    try:
        params_cls(**params)
    except DStressError as exc:
        _fail(f"network.params rejected by {params_cls.__name__}: {exc}")
    seed = _require_int("network.seed", section.get("seed", 0), -(2**62), 2**62)
    return generator, params, seed


def _validate_shock(section: Any) -> Tuple[Tuple[int, ...], float]:
    _check_keys("shock", section, ("targets", "severity"))
    raw_targets = section.get("targets")
    if not isinstance(raw_targets, list) or not raw_targets:
        _fail("shock.targets must be a non-empty list of bank ids")
    if len(raw_targets) > MAX_SHOCK_TARGETS:
        _fail(f"shock.targets holds {len(raw_targets)} ids, cap is {MAX_SHOCK_TARGETS}")
    targets = tuple(
        _require_int(f"shock.targets[{i}]", t, 0, MAX_BANKS - 1)
        for i, t in enumerate(raw_targets)
    )
    if len(set(targets)) != len(targets):
        _fail("shock.targets contains duplicate bank ids")
    severity = _require_float("shock.severity", section.get("severity"), 0.0, 1.0)
    return targets, severity


def _validate_engine(section: Any) -> Tuple[str, Dict[str, Any]]:
    if isinstance(section, str):
        section = {"name": section}
    _check_keys("engine", section, ("name", "options"))
    if "name" not in section:
        _fail("engine needs a 'name'")
    name = _require_str("engine.name", section["name"], _ENGINE_OPTIONS)
    allowed = _ENGINE_OPTIONS[name]
    raw_options = section.get("options", {})
    _check_keys("engine.options", raw_options, tuple(allowed))
    options = {
        key: allowed[key](f"engine.options.{key}", value)
        for key, value in raw_options.items()
    }
    return name, options


def validate_scenario(doc: Any) -> ValidatedScenario:
    """Validate a raw scenario document against the whitelist.

    Returns the typed :class:`ValidatedScenario`; raises
    :class:`~repro.exceptions.ScenarioValidationError` on the first
    violation. Nothing is built and nothing is charged — validation is
    pure inspection.
    """
    _check_keys("scenario", doc, _TOP_LEVEL_KEYS)
    version = doc.get("version")
    if version != AST_VERSION:
        _fail(
            f"unsupported scenario version {version!r} "
            f"(this service speaks version {AST_VERSION})"
        )
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        _fail("scenario needs a non-empty string 'name'")
    if len(name) > MAX_NAME_LENGTH:
        _fail(f"scenario name exceeds {MAX_NAME_LENGTH} characters")
    if "network" not in doc:
        _fail("scenario needs a 'network' section")
    generator, params, network_seed = _validate_network(doc["network"])

    shock_targets: Optional[Tuple[int, ...]] = None
    shock_severity = 0.0
    if "shock" in doc:
        shock_targets, shock_severity = _validate_shock(doc["shock"])
        num_banks = params.get("num_banks", _GENERATORS[generator][0]().num_banks)
        for target in shock_targets:
            if target >= num_banks:
                _fail(
                    f"shock targets bank {target} but the network has only "
                    f"{num_banks} banks"
                )

    program = doc.get("program")
    # the program whitelist is the closed set of built-in names — never a
    # class, never a callable, and aliases resolve to the same canonical
    if not isinstance(program, str):
        _fail("scenario 'program' must be a registry name string")
    try:
        program = get_program(program).name
    except DStressError as exc:
        _fail(f"program: {exc}")

    if "engine" not in doc:
        _fail("scenario needs an 'engine' section")
    engine, engine_options = _validate_engine(doc["engine"])

    preset = doc.get("preset")
    if preset is not None:
        preset = _require_str("preset", preset, available_presets())

    raw_overrides = doc.get("overrides", {})
    _check_keys("overrides", raw_overrides, tuple(_OVERRIDE_FIELDS))
    overrides = {
        key: _OVERRIDE_FIELDS[key](f"overrides.{key}", value)
        for key, value in raw_overrides.items()
    }

    epsilon = doc.get("epsilon")
    if epsilon is not None:
        epsilon = _require_float("epsilon", epsilon, 1e-6, MAX_EPSILON)

    iterations: Union[int, str] = doc.get("iterations", "auto")
    if iterations != "auto":
        iterations = _require_int("iterations", iterations, 1, MAX_ITERATIONS)
    max_iterations = doc.get("max_iterations")
    if max_iterations is not None:
        max_iterations = _require_int("max_iterations", max_iterations, 1, MAX_ITERATIONS)

    # Cross-field release-seam rules (the engine constructor re-checks the
    # intra-option ones; the iteration match spans sections, so the
    # notary must enforce it before anything resolves or charges).
    release = engine_options.get("release", "oneshot")
    if release != "windowed":
        for key in ("windows", "window_epsilon"):
            if key in engine_options:
                _fail(f"engine.options.{key} requires engine.options.release='windowed'")
    else:
        if "windows" not in engine_options:
            _fail("engine.options.release='windowed' needs engine.options.windows")
        if iterations == "auto":
            _fail(
                "release='windowed' needs an explicit 'iterations' count "
                "matching its windows; 'auto' cannot be split into windows"
            )
        total = sum(engine_options["windows"])
        if total != iterations:
            _fail(
                f"engine.options.windows cover {total} rounds but "
                f"'iterations' is {iterations}; they must match exactly"
            )

    seed = doc.get("seed")
    if seed is not None:
        seed = _require_int("seed", seed, -(2**62), 2**62)
    degree_bound = doc.get("degree_bound")
    if degree_bound is not None:
        degree_bound = _require_int("degree_bound", degree_bound, 1, MAX_BANKS)

    return ValidatedScenario(
        name=name,
        generator=generator,
        generator_params=params,
        network_seed=network_seed,
        shock_targets=shock_targets,
        shock_severity=shock_severity,
        program=program,
        engine=engine,
        engine_options=engine_options,
        preset=preset,
        overrides=overrides,
        epsilon=epsilon,
        iterations=iterations,
        max_iterations=max_iterations,
        seed=seed,
        degree_bound=degree_bound,
    )


# --------------------------------------------------------- canonical form --


def canonical_json(doc: Any) -> str:
    """The canonical serialization: sorted keys, compact separators, no
    NaN/Infinity. Equality of canonical strings is the service's
    definition of document equality."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ScenarioValidationError(f"document is not canonical JSON: {exc}") from exc


def document_digest(doc: Any) -> str:
    """SHA-256 of the canonical serialization — the notary's stamp over
    the *document* (the run fingerprint separately stamps the *work*)."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


# ------------------------------------------------------------ materialize --


def build_network(validated: ValidatedScenario) -> FinancialNetwork:
    """Materialize the whitelisted generator (and optional shock)."""
    params_cls, factory = _GENERATORS[validated.generator]
    network = factory(
        params_cls(**validated.generator_params),
        DeterministicRNG(validated.network_seed),
    )
    if validated.shock_targets is not None:
        network = apply_shock(
            network,
            Shock(
                targets=validated.shock_targets,
                severity=validated.shock_severity,
                label=validated.name,
            ),
        )
    return network


def build_session(validated: ValidatedScenario) -> StressTest:
    """A ready-to-run :class:`~repro.api.session.StressTest` for a
    validated scenario — the exact session a library caller would have
    built by hand, so service results are bit-identical to direct runs."""
    return _configured(StressTest(build_network(validated)), validated)


def _configured(session: StressTest, validated: ValidatedScenario) -> StressTest:
    session.program(validated.program)
    session.engine(validated.engine, **validated.engine_options)
    if validated.preset is not None:
        session.preset(validated.preset)
    if validated.overrides:
        session.configure(**validated.overrides)
    if validated.epsilon is not None:
        session.privacy(epsilon=validated.epsilon)
    if validated.seed is not None:
        session.seed(validated.seed)
    if validated.degree_bound is not None:
        session.degree_bound(validated.degree_bound)
    return session


@dataclass(frozen=True)
class TabledGraph:
    """One :data:`GRAPHS` entry: a network spec's resolved graph, sealed,
    its :func:`~repro.api.cache.graph_digest`, and its weight."""

    graph: DistributedGraph
    digest: str
    weight: int


#: Vertices plus edges :data:`GRAPHS` may hold (a few tens of MB). A
#: constant, not an option: the service's 64-bank plaintext network is
#: ≈ 300 elements, a dense 512-bank one ≈ 260 k is built for its request and
#: not kept, and an eviction costs one rebuild.
GRAPH_ELEMENT_BOUND = 1 << 17

#: Least weight of an entry, so :data:`GRAPHS` holds at most 128 graphs:
#: every publish re-sums the entries' weights, and 8 000 tiny graphs made
#: that sum cost a cold notarize 2 ms.
GRAPH_WEIGHT_FLOOR = 1 << 10

#: Process-wide: network spec -> :class:`TabledGraph`
#: (``service.graphs.builds`` / ``.hits`` under a recorder). The graph is a
#: pure function of the spec, so documents that differ in anything else —
#: name, seed, epsilon, engine, preset — share one build and one digest.
GRAPHS = SealedTable(
    "service.graphs",
    GRAPH_ELEMENT_BOUND,
    weigh=lambda tabled: tabled.weight,
    seal=lambda tabled: tabled.graph.seal(),
)


#: The canonical document's sections a graph depends on: generator, params
#: and topology seed; shock; program (its graph builder); degree bound.
_GRAPH_SECTIONS = ("network", "shock", "program", "degree_bound")


def _graph_key(document: Dict[str, Any]) -> str:
    return canonical_json([document.get(section) for section in _GRAPH_SECTIONS])


def _tabled_graph(validated: ValidatedScenario) -> TabledGraph:
    build = get_program(validated.program).graph_builder
    graph = build(build_network(validated), validated.degree_bound)
    weight = max(graph.num_vertices + graph.num_edges, GRAPH_WEIGHT_FLOOR)
    return TabledGraph(graph, graph_digest(graph), weight)


@dataclass(frozen=True)
class NotarizedScenario:
    """A scenario that passed every gate: validated, canonicalized,
    resolved, and fingerprinted.

    ``fingerprint`` is the :func:`~repro.api.cache.run_fingerprint`
    content digest — the same key the scenario caches and the
    accountant's audit ledger use, so a service hit, a batch-cache hit,
    and a ledger line all name the same run. ``digest`` stamps the
    canonical document itself.
    """

    name: str
    document: Dict[str, Any]
    canonical: str
    digest: str
    fingerprint: str
    resolved: ResolvedRun
    releases: bool
    epsilon: float


def notarize(doc: Any) -> NotarizedScenario:
    """Validate, canonicalize, resolve, and fingerprint one document.

    Raises :class:`~repro.exceptions.ScenarioValidationError` for any
    document that fails a gate — including the (defensive) case of a
    whitelisted document whose resolved run is unfingerprintable, since
    an unfingerprintable run could never be deduplicated or audited.
    """
    validated = validate_scenario(doc)
    canonical_doc = validated.document()
    canonical = canonical_json(canonical_doc)
    graph_tokens: Optional[Dict[int, str]] = None
    try:
        tabled = GRAPHS.get(_graph_key(canonical_doc), lambda: _tabled_graph(validated))
    except DStressError:
        # never tabled; the cold resolve below refuses it as it always has
        # (a config fault outranks a graph fault, and names itself)
        session = build_session(validated)
    else:
        session = _configured(StressTest(tabled.graph), validated)
        graph_tokens = {id(tabled.graph): tabled.digest}
    try:
        resolved = session.resolve(
            validated.iterations,
            max_iterations=validated.max_iterations,
            label=validated.name,
        )
    except ScenarioValidationError:
        raise
    except DStressError as exc:
        raise ScenarioValidationError(
            f"scenario {validated.name!r} failed to resolve: {exc}"
        ) from exc
    fingerprint = run_fingerprint(resolved, graph_tokens)
    if fingerprint is None:  # pragma: no cover - whitelisted inputs always token
        raise ScenarioValidationError(
            f"scenario {validated.name!r} resolved to an unfingerprintable "
            "run; notarized scenarios must be content-addressable"
        )
    releases = bool(resolved.engine.releases_output)
    try:
        # priced by the shared admission authority: a windowed run's cost
        # is its per-window schedule, not the config's headline epsilon —
        # and an unchargeable schedule is refused here, before admission
        epsilon = release_epsilon(resolved.engine, resolved.config) if releases else 0.0
    except DStressError as exc:
        raise ScenarioValidationError(
            f"scenario {validated.name!r} has an unchargeable release "
            f"schedule: {exc}"
        ) from exc
    return NotarizedScenario(
        name=validated.name,
        document=canonical_doc,
        canonical=canonical,
        digest=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        fingerprint=fingerprint,
        resolved=resolved,
        releases=releases,
        epsilon=epsilon,
    )
