"""The :class:`StressTest` session — the facade over the whole stack.

One fluent builder replaces the seed's four disjoint entry points::

    from repro import StressTest

    result = (
        StressTest(network)
        .program("eisenberg-noe")
        .engine("secure")
        .preset("demo")
        .privacy(epsilon=0.5)
        .run(iterations="auto")
    )
    print(result.summary())

Everything is resolved lazily at :meth:`StressTest.run` time — strings go
through the registries, the preset and field overrides fold into one
validated :class:`~repro.core.config.DStressConfig`, and
``iterations="auto"`` probes the float reference engine for the round at
which the aggregate trajectory settles (the secure engine needs its
iteration count fixed *before* the protocol starts, because the MPC
transcript shape must be data-independent — so auto mode spends a cheap
plaintext probe to pick it).

Batch execution over many scenarios lives in :mod:`repro.api.batch`;
:meth:`StressTest.run_many` is the entry point.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.api.engines import Engine
from repro.api.registry import available_programs, get_engine, get_program
from repro.api.result import RunResult
from repro.core.config import DStressConfig
from repro.core.convergence import DEFAULT_TOLERANCE, convergence_index
from repro.core.engine import plaintext_loop
from repro.core.graph import DistributedGraph
from repro.core.program import VertexProgram
from repro.exceptions import ConfigurationError, ConvergenceError
from repro.finance.network import FinancialNetwork
from repro.privacy.budget import PrivacyAccountant

__all__ = ["StressTest", "ResolvedRun"]

#: Iteration-probe cap used by ``iterations="auto"`` when the caller gives
#: no explicit ``max_iterations``: twice the vertex count (Eisenberg-Noe
#: provably settles within N rounds), floored at 4 and capped at 64.
_AUTO_ITERATIONS_CAP = 64


@dataclass
class ResolvedRun:
    """A fully-resolved, picklable execution spec.

    This is what the batch layer ships to worker processes: every string
    has been looked up, the config validated, and the graph materialized.
    ``engine`` is the instantiated backend (all built-ins are stateless
    and picklable).
    """

    label: str
    program: VertexProgram
    graph: DistributedGraph
    engine: Engine
    config: DStressConfig
    iterations: Union[int, str]
    tolerance: float = DEFAULT_TOLERANCE
    max_iterations: Optional[int] = None


class StressTest:
    """Fluent session builder for differentially-private stress tests.

    Every setter returns ``self`` so calls chain; :meth:`clone` snapshots
    the builder so one session can template many scenario variations.
    """

    def __init__(
        self,
        network: Optional[Union[FinancialNetwork, DistributedGraph]] = None,
    ) -> None:
        self._network: Optional[FinancialNetwork] = None
        self._graph: Optional[DistributedGraph] = None
        if isinstance(network, DistributedGraph):
            self._graph = network
        elif network is not None:
            self.network(network)
        self._program_spec: Optional[Union[str, VertexProgram]] = None
        self._engine_spec: Union[str, Engine] = "plaintext"
        self._engine_options: Dict[str, Any] = {}
        self._preset_name: Optional[str] = None
        self._config: Optional[DStressConfig] = None
        self._overrides: Dict[str, Any] = {}
        self._accountant: Optional[PrivacyAccountant] = None
        self._degree_bound: Optional[int] = None

    # ---------------------------------------------------------- builders --

    def network(self, network: FinancialNetwork) -> "StressTest":
        """Set the financial network the stress test runs over."""
        if not isinstance(network, FinancialNetwork):
            raise ConfigurationError(
                f"expected a FinancialNetwork, got {type(network).__name__}; "
                "pass a pre-built DistributedGraph via .graph(...) instead"
            )
        self._network = network
        return self

    def graph(self, graph: DistributedGraph) -> "StressTest":
        """Run over a pre-built graph (skips the program's graph builder)."""
        if not isinstance(graph, DistributedGraph):
            raise ConfigurationError(
                f"expected a DistributedGraph, got {type(graph).__name__}"
            )
        self._graph = graph
        return self

    def program(self, program: Union[str, VertexProgram]) -> "StressTest":
        """Choose the vertex program — a registry name like
        ``"eisenberg-noe"``/``"egj"``, or a :class:`VertexProgram` instance."""
        if not isinstance(program, (str, VertexProgram)):
            raise ConfigurationError(
                "program must be a registry name or a VertexProgram instance; "
                "registered programs: " + ", ".join(available_programs())
            )
        self._program_spec = program
        return self

    def engine(self, engine: Union[str, Engine], **options: Any) -> "StressTest":
        """Choose the backend — ``"plaintext"``, ``"fixed"``, ``"secure"``,
        or any :class:`Engine` instance.

        Keyword ``options`` configure a registry backend at construction
        time (``.engine("plaintext", tasks=8, transport="wan")``,
        ``.engine("secure", tasks=8, transport="wan")``); they
        replace any options from an earlier ``.engine(...)`` call.
        """
        if not isinstance(engine, (str, Engine)):
            raise ConfigurationError(
                f"engine must be a registry name or an Engine instance, "
                f"got {type(engine).__name__}"
            )
        if options and not isinstance(engine, str):
            raise ConfigurationError(
                "engine options only apply to registry names; construct the "
                "Engine instance with its options instead"
            )
        self._engine_spec = engine
        self._engine_options = dict(options)
        return self

    def preset(self, name: str) -> "StressTest":
        """Start the config from a named preset (``demo``/``paper``/
        ``production``); later :meth:`configure` calls override it."""
        DStressConfig.preset(name)  # fail fast on typos
        self._preset_name = name
        return self

    def configure(
        self, config: Optional[DStressConfig] = None, **overrides: Any
    ) -> "StressTest":
        """Set a full config object and/or override individual fields."""
        if config is not None:
            if not isinstance(config, DStressConfig):
                raise ConfigurationError(
                    f"expected a DStressConfig, got {type(config).__name__}"
                )
            self._config = config
        self._overrides.update(overrides)
        return self

    def privacy(
        self,
        epsilon: Optional[float] = None,
        accountant: Optional[PrivacyAccountant] = None,
    ) -> "StressTest":
        """Set the per-release epsilon and/or the shared budget accountant."""
        if epsilon is not None:
            self._overrides["output_epsilon"] = epsilon
        if accountant is not None:
            self._accountant = accountant
        return self

    def seed(self, seed: int) -> "StressTest":
        """Pin the deterministic seed for the whole run."""
        self._overrides["seed"] = seed
        return self

    def degree_bound(self, bound: int) -> "StressTest":
        """Pad vertices to this degree bound when building the graph."""
        if bound < 1:
            raise ConfigurationError("degree bound must be at least 1")
        self._degree_bound = bound
        return self

    def clone(self) -> "StressTest":
        """An independent copy of the builder (networks and configs are
        shared by reference; override maps are copied)."""
        other = StressTest()
        other._network = self._network
        other._graph = self._graph
        other._program_spec = self._program_spec
        other._engine_spec = self._engine_spec
        other._engine_options = copy.copy(self._engine_options)
        other._preset_name = self._preset_name
        other._config = self._config
        other._overrides = copy.copy(self._overrides)
        other._accountant = self._accountant
        other._degree_bound = self._degree_bound
        return other

    # --------------------------------------------------------- resolution --

    def resolve(
        self,
        iterations: Union[int, str] = "auto",
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: Optional[int] = None,
        label: str = "run",
    ) -> ResolvedRun:
        """Validate the builder state and materialize an execution spec."""
        config = self._resolve_config()
        engine = self._resolve_engine()
        program, graph = self._resolve_program_and_graph(config)
        if isinstance(iterations, str):
            if iterations != "auto":
                raise ConfigurationError(
                    f"iterations must be a positive int or 'auto', got {iterations!r}"
                )
        elif not isinstance(iterations, int) or isinstance(iterations, bool):
            raise ConfigurationError(
                f"iterations must be a positive int or 'auto', got {iterations!r}"
            )
        elif iterations < 1:
            raise ConfigurationError("iterations must be at least 1")
        return ResolvedRun(
            label=label,
            program=program,
            graph=graph,
            engine=engine,
            config=config,
            iterations=iterations,
            tolerance=tolerance,
            max_iterations=max_iterations,
        )

    def _resolve_config(self) -> DStressConfig:
        if self._config is not None and self._preset_name is not None:
            raise ConfigurationError(
                "both .preset(...) and .configure(config=...) were given; "
                "choose one base config and use field overrides for the rest"
            )
        if self._preset_name is not None:
            return DStressConfig.preset(self._preset_name, **self._overrides)
        base = self._config if self._config is not None else DStressConfig()
        return base.with_updates(**self._overrides) if self._overrides else base

    def _resolve_engine(self) -> Engine:
        if isinstance(self._engine_spec, Engine):
            return self._engine_spec
        return get_engine(self._engine_spec, **self._engine_options)

    def _resolve_program_and_graph(self, config: DStressConfig):
        spec = self._program_spec
        if spec is None:
            raise ConfigurationError(
                "no program selected; call .program('eisenberg-noe') — "
                "registered programs: " + ", ".join(available_programs())
            )
        if isinstance(spec, str):
            entry = get_program(spec)
            program: VertexProgram = entry.factory(config.fmt)
            builder = entry.graph_builder
        else:
            program = spec
            if program.fmt.total_bits != config.fmt.total_bits or (
                program.fmt.fraction_bits != config.fmt.fraction_bits
            ):
                raise ConfigurationError(
                    f"program fixed-point format {program.fmt} disagrees with "
                    f"config format {config.fmt}; pass .configure(fmt=program.fmt) "
                    "or rebuild the program with the config's format"
                )
            builder = None
        if self._graph is not None:
            return program, self._graph
        if self._network is None:
            raise ConfigurationError(
                "no network to run over; pass a FinancialNetwork to "
                "StressTest(...) / .network(...), or a DistributedGraph "
                "via .graph(...)"
            )
        if builder is None:
            raise ConfigurationError(
                "a custom VertexProgram instance needs an explicit graph: "
                "call .graph(...) with the DistributedGraph it runs over"
            )
        return program, builder(self._network, self._degree_bound)

    # ---------------------------------------------------------- execution --

    def run(
        self,
        iterations: Union[int, str] = "auto",
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: Optional[int] = None,
    ) -> RunResult:
        """Execute the session once and return the unified result.

        ``iterations="auto"`` (the default) runs a cheap plaintext probe
        to find the round at which the aggregate trajectory settles within
        ``tolerance``, then runs the selected engine for exactly that many
        rounds. ``max_iterations`` caps the probe (default: twice the
        vertex count, at most 64).
        """
        resolved = self.resolve(
            iterations, tolerance=tolerance, max_iterations=max_iterations
        )
        return execute_resolved(resolved, accountant=self._accountant)

    def run_many(self, scenarios, workers: int = 1, accountant=None, cache=None):
        """Fan a batch of scenarios across a process pool; see
        :func:`repro.api.batch.run_batch` for semantics. ``cache`` (a
        :class:`~repro.api.cache.ScenarioCache`, ``True``, or a directory
        path for the restart-surviving
        :class:`~repro.api.diskcache.PersistentScenarioCache`) reuses
        results of scenarios identical to previously-executed ones —
        without re-charging the accountant."""
        from repro.api.batch import run_batch

        return run_batch(
            self,
            scenarios,
            workers=workers,
            accountant=accountant if accountant is not None else self._accountant,
            cache=cache,
        )

    def run_many_iter(self, scenarios, workers: int = 1, accountant=None, cache=None):
        """The streaming sibling of :meth:`run_many`: an iterator yielding
        each :class:`~repro.api.batch.ScenarioOutcome` the moment its
        worker finishes (completion order, no pool barrier).

        Resolution, worker planning, and budget charging are still eager
        — a bad scenario or an unaffordable batch raises here, before the
        first outcome is consumed. Abandoning the stream early (``break``
        / ``close()``) refunds the accountant for the pre-charged
        releasing scenarios that never completed. The per-scenario
        results are bit-identical to :meth:`run_many`'s; only the arrival
        order (and the absence of a barrier) differs. ``cache`` accepts
        the same values as :meth:`run_many` (including a directory path
        for the persistent on-disk cache).
        """
        from repro.api.batch import run_batch

        return run_batch(
            self,
            scenarios,
            workers=workers,
            accountant=accountant if accountant is not None else self._accountant,
            stream=True,
            cache=cache,
        )


# -------------------------------------------------------------- execution --


def choose_iterations(
    program: VertexProgram,
    graph: DistributedGraph,
    tolerance: float,
    max_iterations: Optional[int],
) -> int:
    """Pick the iteration count by probing the float reference engine.

    The probe is exact, cheap (no crypto), and deterministic; the chosen
    count is the first round whose aggregate moved at most ``tolerance``.
    """
    cap = max_iterations
    if cap is None:
        cap = max(4, min(2 * graph.num_vertices, _AUTO_ITERATIONS_CAP))
    if cap < 1:
        raise ConfigurationError("max_iterations must be at least 1")
    probe = plaintext_loop(program, graph)
    probe.advance(cap)
    chosen = convergence_index(probe.trajectory, tolerance)
    if chosen is None:
        raise ConvergenceError(
            f"aggregate did not settle within {cap} iterations "
            f"(tolerance {tolerance:g}); raise max_iterations, loosen the "
            "tolerance, or pass an explicit iterations=N"
        )
    return max(1, chosen)


def execute_resolved(
    resolved: ResolvedRun,
    accountant: Optional[PrivacyAccountant] = None,
) -> RunResult:
    """Run a resolved spec: resolve ``"auto"`` iterations, execute, time it.

    Module-level (not a method) so service worker processes can invoke it
    by reference on pickled :class:`ResolvedRun` payloads.
    """
    iterations = resolved.iterations
    if iterations == "auto":
        iterations = choose_iterations(
            resolved.program,
            resolved.graph,
            resolved.tolerance,
            resolved.max_iterations,
        )
    # Engines time their own execution (wall_seconds); the batch layer
    # separately times the whole scenario including the auto probe.
    return resolved.engine.execute(
        resolved.program,
        resolved.graph,
        iterations,
        resolved.config,
        accountant=accountant,
    )
