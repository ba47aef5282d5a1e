"""Batch scenario execution: many networks/configs through one session.

A regulator's workload is never one run — it is "these five shock
scenarios, on this quarter's network, under this year's remaining
budget". :func:`run_batch` (surfaced as :meth:`StressTest.run_many`)
takes a template session plus a list of :class:`Scenario` deltas,
resolves every scenario *up front* (so a typo in scenario #7 fails before
scenario #1 burns an hour of MPC), charges the shared
:class:`~repro.privacy.budget.PrivacyAccountant` for every
output-releasing run (so a batch that would overrun the yearly ln 2
budget is refused before any compute happens), then fans the resolved
specs across the worker processes of :mod:`repro.api.pool`.

Determinism: each scenario runs with its own explicitly-derived seed
(``scenario.seed``, else the template config's seed), engines draw all
randomness from :class:`~repro.crypto.rng.DeterministicRNG`, and results
are returned in input order regardless of worker scheduling — so a batch
is bit-reproducible across runs and worker counts.

There is one execution body, a stream: ``run_batch(..., stream=True)``
(surfaced as :meth:`StressTest.run_many_iter`) yields each
:class:`ScenarioOutcome` the moment its worker finishes, in completion
order; the default drains the same stream and returns a
:class:`BatchResult` in input order.

Determinism also enables the scenario-level **cache** (``cache=`` — a
:class:`~repro.api.cache.ScenarioCache` shared across batches, ``True``
for a per-call one, or a directory path for the on-disk
:class:`~repro.api.diskcache.PersistentScenarioCache` that survives
process restarts): two scenarios with the same fingerprint
(network/graph, config incl. seed, program, engine + options, iteration
spec) are guaranteed the same :class:`RunResult`, so only the first
executes — and only the first is charged against the
:class:`~repro.privacy.budget.PrivacyAccountant`.

Budget charges are provisional until a release actually happens: a
releasing scenario that *fails* (its engine raised, its worker died or
could not send its outcome back) has its pre-charge refunded — nothing
was published, so nothing was spent (§4.5's budget pays for releases,
not attempts).
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.api.cache import ScenarioCache, ScenarioCacheBase, clone_result, run_fingerprint
from repro.api.diskcache import PersistentScenarioCache
from repro.api.engines import Engine
from repro.api.pool import iter_in_pool, plan_workers
from repro.api.result import RunResult
from repro.api.session import ResolvedRun, execute_resolved
from repro.core.config import DStressConfig
from repro.core.graph import DistributedGraph
from repro.core.program import VertexProgram
from repro.exceptions import ConfigurationError, DStressError, PrivacyBudgetExceeded
from repro.finance.network import FinancialNetwork
from repro.obs.clock import now as clock_now
from repro.obs.metrics import absorb_cache
from repro.obs.trace import current_recorder
from repro.privacy.admission import Precharge, precharge, release_epsilon, release_schedule
from repro.privacy.budget import PrivacyAccountant

__all__ = ["Scenario", "ScenarioOutcome", "BatchResult", "run_batch"]


@dataclass
class Scenario:
    """One batch entry: a named delta on top of the template session.

    Every field is optional except ``name``; unset fields inherit the
    template's choice. ``overrides`` are extra
    :class:`~repro.core.config.DStressConfig` field overrides applied
    after the template's own.
    """

    name: str
    network: Optional[FinancialNetwork] = None
    graph: Optional[DistributedGraph] = None
    program: Optional[Union[str, VertexProgram]] = None
    engine: Optional[Union[str, Engine]] = None
    #: constructor options for a registry-named engine (e.g.
    #: ``engine="plaintext", engine_options={"tasks": 8}``). Without
    #: ``engine``, they re-apply to the template's engine name. Note a
    #: scenario ``engine`` string *replaces* the template's options, same
    #: as calling :meth:`StressTest.engine` again.
    engine_options: Dict[str, Any] = field(default_factory=dict)
    preset: Optional[str] = None
    config: Optional[DStressConfig] = None
    overrides: Dict[str, Any] = field(default_factory=dict)
    epsilon: Optional[float] = None
    iterations: Optional[Union[int, str]] = None
    seed: Optional[int] = None
    degree_bound: Optional[int] = None


@dataclass
class ScenarioOutcome:
    """Per-scenario slot of a :class:`BatchResult`.

    ``cached=True`` marks an outcome satisfied from the scenario cache
    (or from an identical scenario earlier in the same batch) — its
    ``result`` is the prior :class:`RunResult`, no engine ran and no
    budget was charged for it.
    """

    name: str
    result: Optional[RunResult] = None
    error: Optional[str] = None
    seconds: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchResult:
    """Everything one :meth:`StressTest.run_many` call produced."""

    outcomes: List[ScenarioOutcome]
    wall_seconds: float
    workers: int = 1
    #: Net epsilon drawn from the accountant by this batch: the eager
    #: pre-charge minus refunds for releasing scenarios that failed
    #: (a failed run released nothing, so its charge is returned).
    epsilon_charged: float = 0.0
    #: Scenario-cache accounting for this batch (both stay 0 without a
    #: cache): ``cache_hits`` counts outcomes reused without recompute,
    #: ``cache_misses`` counts scenarios that actually executed.
    cache_hits: int = 0
    cache_misses: int = 0

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def results(self) -> List[RunResult]:
        """Successful results, in input order."""
        return [o.result for o in self.outcomes if o.result is not None]

    @property
    def failures(self) -> List[ScenarioOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def scenario_seconds(self) -> Dict[str, float]:
        """Per-scenario engine wall time (aggregate timing)."""
        return {o.name: o.seconds for o in self.outcomes}

    def aggregates(self) -> Dict[str, float]:
        """Scenario name -> released aggregate, for the successful runs."""
        return {
            o.name: o.result.aggregate for o in self.outcomes if o.result is not None
        }

    def by_name(self, name: str) -> ScenarioOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise ConfigurationError(
            f"no scenario named {name!r} in this batch; scenarios: "
            + ", ".join(o.name for o in self.outcomes)
        )

    def export(self, accountant: Optional[PrivacyAccountant] = None) -> Dict[str, Any]:
        """Versioned JSON-safe export (``dstress.obs.batch`` schema).

        Pass the batch's ``accountant`` to embed its audit ledger so the
        export reconciles epsilon_charged against the ledger lines.
        """
        from repro.obs.export import export_batch

        return export_batch(self, accountant=accountant)

    def summary(self) -> str:
        ok = sum(1 for o in self.outcomes if o.ok)
        parts = [
            f"{ok}/{len(self.outcomes)} scenarios ok",
            f"wall={self.wall_seconds:.2f}s",
            f"workers={self.workers}",
        ]
        if self.epsilon_charged:
            parts.append(f"epsilon_charged={self.epsilon_charged:g}")
        if self.cache_hits or self.cache_misses:
            parts.append(f"cache={self.cache_hits}h/{self.cache_misses}m")
        return " ".join(parts)


def _apply_scenario(template: "StressTest", scenario: Scenario) -> "StressTest":
    session = template.clone()
    if scenario.network is not None:
        session.network(scenario.network)
        session._graph = None  # a scenario network supersedes a template graph
    if scenario.graph is not None:
        session.graph(scenario.graph)
    if scenario.program is not None:
        session.program(scenario.program)
    if scenario.engine is not None:
        session.engine(scenario.engine, **scenario.engine_options)
    elif scenario.engine_options:
        if not isinstance(session._engine_spec, str):
            raise ConfigurationError(
                "engine_options need a registry-named engine, but the "
                "template engine is an Engine instance; name the engine in "
                "the scenario or construct the instance with its options"
            )
        session.engine(session._engine_spec, **scenario.engine_options)
    if scenario.preset is not None:
        session._config = None  # a scenario preset supersedes a template config
        session.preset(scenario.preset)
    if scenario.config is not None:
        session._preset_name = None
        session.configure(scenario.config)
    if scenario.overrides:
        session.configure(**scenario.overrides)
    if scenario.epsilon is not None:
        session.privacy(epsilon=scenario.epsilon)
    if scenario.seed is not None:
        session.seed(scenario.seed)
    if scenario.degree_bound is not None:
        session.degree_bound(scenario.degree_bound)
    return session


def _run_payload(payload: ResolvedRun) -> ScenarioOutcome:
    """Worker entry point: execute one resolved scenario, capture failures.

    Workers never see the shared accountant — the parent charged it up
    front — so a crashed worker can neither double-charge nor leak budget.
    """
    started = clock_now()
    try:
        result = execute_resolved(payload, accountant=None)
        return ScenarioOutcome(
            name=payload.label, result=result, seconds=clock_now() - started
        )
    except DStressError as exc:
        return ScenarioOutcome(
            name=payload.label,
            error=f"scenario {payload.label!r}: {type(exc).__name__}: {exc}",
            seconds=clock_now() - started,
        )
    except Exception:  # defensive: report, don't hang the pool
        return ScenarioOutcome(
            name=payload.label,
            error=f"scenario {payload.label!r} crashed:\n"
            + traceback.format_exc(limit=5),
            seconds=clock_now() - started,
        )


def _lost_outcome(label: str, exc: BaseException) -> ScenarioOutcome:
    """A scenario whose worker sent no outcome back: the worker died, or
    the outcome could not be pickled."""
    what = "died" if isinstance(exc, BrokenProcessPool) else "failed"
    return ScenarioOutcome(
        name=label,
        error=f"scenario {label!r}: worker process {what} ({type(exc).__name__}: {exc})",
    )


@dataclass
class _PreparedBatch:
    """Everything the prelude decided.

    Indexes are positions in the input scenario list: ``to_run`` holds
    the payloads that actually execute (cache misses, one per distinct
    fingerprint), ``cached_results`` the payloads satisfied from a prior
    batch, and ``duplicates`` maps an in-batch duplicate to the index of
    the identical scenario that executes on its behalf.
    """

    payloads: List[ResolvedRun]
    fingerprints: List[Optional[str]]
    to_run: List[int]
    cached_results: Dict[int, RunResult]
    duplicates: Dict[int, int]
    cache: Optional[ScenarioCacheBase]
    effective_workers: int
    #: The accountant that was charged (if any) and the admitted
    #: pre-charge per payload index — kept so an abandoned stream can
    #: refund the releases that never executed.
    accountant: Optional[PrivacyAccountant]
    charges: Dict[int, Precharge]
    #: Cache counter values when this batch started; the per-batch
    #: hit/miss counts on :class:`BatchResult` are deltas against these
    #: (in-batch duplicate hits are only counted once their primary
    #: actually succeeds, which happens during execution).
    hits_before: int
    misses_before: int

    def cache_counts(self) -> Tuple[int, int]:
        if self.cache is None:
            return 0, 0
        return self.cache.hits - self.hits_before, self.cache.misses - self.misses_before


def _resolve_cache(cache) -> Optional[ScenarioCacheBase]:
    if cache is None or cache is False:
        return None
    if cache is True:
        return ScenarioCache()
    if isinstance(cache, str) and cache.startswith("tcp://"):
        # refused, not taken for a directory named "tcp:"
        raise ConfigurationError(
            f"cache {cache!r}: the networked cache tier was removed; pass a "
            f"cache-directory path or a ScenarioCache"
        )
    if isinstance(cache, (str, os.PathLike)):
        return PersistentScenarioCache(cache)
    if isinstance(cache, ScenarioCacheBase):
        return cache
    raise ConfigurationError(
        f"cache must be a ScenarioCache, a cache-directory path, True, or "
        f"None — got {type(cache).__name__}"
    )


def _prepare_batch(
    template: "StressTest",
    scenarios,
    workers: int,
    accountant: Optional[PrivacyAccountant],
    cache,
) -> _PreparedBatch:
    """Resolve, dedupe against the cache, plan workers, charge budget.

    Everything that can refuse the batch happens here, eagerly — before
    any compute, and for the streaming path before the first ``next()``.
    """
    if workers < 1:
        raise ConfigurationError("workers must be at least 1")
    scenario_list = list(scenarios)
    if not scenario_list:
        raise ConfigurationError("run_many needs at least one scenario")
    names = [s.name for s in scenario_list]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ConfigurationError(f"duplicate scenario names: {dupes}")
    cache_obj = _resolve_cache(cache)

    # Resolve everything first: any bad scenario aborts the whole batch
    # before compute or budget is spent.
    payloads: List[ResolvedRun] = []
    for scenario in scenario_list:
        if not isinstance(scenario, Scenario):
            raise ConfigurationError(
                f"expected a Scenario, got {type(scenario).__name__}"
            )
        iterations = scenario.iterations if scenario.iterations is not None else "auto"
        try:
            session = _apply_scenario(template, scenario)
            payloads.append(session.resolve(iterations, label=scenario.name))
        except DStressError as exc:
            raise ConfigurationError(
                f"scenario {scenario.name!r} failed to resolve "
                f"(no scenario was executed): {exc}"
            ) from exc

    # Split the batch against the cache: prior hits are satisfied without
    # compute; in-batch duplicates execute once and share the result; the
    # rest run. Without a cache everything runs (historical behavior).
    hits_before = cache_obj.hits if cache_obj is not None else 0
    misses_before = cache_obj.misses if cache_obj is not None else 0
    graph_tokens: Dict[int, Any] = {}  # scenarios usually share the template graph
    # fingerprints are computed even without a cache: the accountant's
    # audit ledger stamps each pre-charge with the scenario fingerprint,
    # so a budget audit can name the exact run that spent each epsilon
    fingerprints: List[Optional[str]] = [
        run_fingerprint(p, _graph_tokens=graph_tokens) for p in payloads
    ]
    to_run: List[int] = []
    cached_results: Dict[int, RunResult] = {}
    duplicates: Dict[int, int] = {}
    first_with: Dict[str, int] = {}
    for index, payload in enumerate(payloads):
        fingerprint = fingerprints[index]
        if cache_obj is None:
            to_run.append(index)
            continue
        if fingerprint is not None and fingerprint in first_with:
            # registered now, counted as a hit only once the scenario
            # executing on its behalf succeeds (failures are never hits)
            duplicates[index] = first_with[fingerprint]
            continue
        prior = cache_obj.lookup(fingerprint)
        if prior is not None:
            cached_results[index] = prior
        else:
            if fingerprint is not None:
                first_with[fingerprint] = index
            to_run.append(index)

    # Planned before the accountant is touched: a planning failure must
    # not burn budget for runs that never happen. A refusal from here on
    # also rolls the cache counters back — an aborted batch executed
    # nothing, so a shared cache's cumulative hit/miss telemetry must not
    # remember it.
    try:
        effective_workers = plan_workers(workers, max(1, len(to_run)))

        # One accountant, charged sequentially (§4.5 composition) for
        # every scenario whose engine noises and releases an output — but
        # only for scenarios that will actually execute: a cached release
        # re-publishes an already-released value, which consumes no fresh
        # budget. The whole batch is affordability-checked first so a
        # refusal leaves the budget untouched — no partial charges for
        # runs that never happen. The itemization (one ledger line per
        # release window, pricing from the engine's release policy) is
        # the shared repro.privacy.admission authority, the same one the
        # engine lifecycle and the service admission gate charge through.
        charges: Dict[int, Precharge] = {}
        if accountant is not None:
            releasing = [
                i for i in to_run if payloads[i].engine.releases_output
            ]
            total = sum(
                release_epsilon(payloads[i].engine, payloads[i].config)
                for i in releasing
            )
            if not accountant.can_afford(total):
                raise PrivacyBudgetExceeded(
                    f"batch needs epsilon {total:.4g} across {len(releasing)} "
                    f"releasing scenario(s) but only {accountant.remaining:.4g} "
                    f"of {accountant.epsilon_max:.4g} remains; drop scenarios, "
                    "lower per-release epsilon, or replenish the accountant"
                )
            for i in releasing:
                payload = payloads[i]
                admitted = precharge(
                    accountant,
                    release_schedule(payload.engine, payload.config, payload.label),
                    fingerprint=fingerprints[i],
                )
                if admitted is not None:
                    charges[i] = admitted
    except Exception:
        if cache_obj is not None:
            cache_obj.hits = hits_before
            cache_obj.misses = misses_before
        raise

    return _PreparedBatch(
        payloads=payloads,
        fingerprints=fingerprints,
        to_run=to_run,
        cached_results=cached_results,
        duplicates=duplicates,
        cache=cache_obj,
        effective_workers=effective_workers,
        accountant=accountant,
        charges=charges,
        hits_before=hits_before,
        misses_before=misses_before,
    )


def _compile_plans(prepared: _PreparedBatch) -> None:
    """Compile, in this process, the circuit plans the scenarios that will
    actually execute need (:meth:`Engine.compile_plans
    <repro.api.engines.Engine.compile_plans>`).

    Called before the pool forks: workers inherit the process-wide plan
    table copy-on-write, so a sweep builds each distinct circuit once —
    not once per worker per run — and the next sweep in this process
    builds nothing. Cache hits never reach here: an all-hit replay
    compiles nothing.
    """
    for index in prepared.to_run:
        payload = prepared.payloads[index]
        compile_plans = getattr(payload.engine, "compile_plans", None)
        if compile_plans is None:
            continue  # an engine-shaped object outside the Engine base
        try:
            compile_plans(payload.program, payload.graph, payload.config)
        except Exception:
            # whatever stops this scenario's circuits from compiling stops
            # its run the same way; the run reports it under the scenario's
            # name (and refunds its charge), which this prelude cannot
            pass


def _cached_outcome(prepared: _PreparedBatch, index: int) -> ScenarioOutcome:
    return ScenarioOutcome(
        name=prepared.payloads[index].label,
        result=prepared.cached_results[index],
        seconds=0.0,
        cached=True,
    )


def _duplicate_outcome(
    prepared: _PreparedBatch, index: int, primary: ScenarioOutcome
) -> ScenarioOutcome:
    """An in-batch duplicate's outcome, from the scenario that ran for it.

    A successful primary makes the duplicate a cache hit (counted by the
    stream when the duplicate is delivered) with a private copy of its
    result — the copy keeps sibling outcomes isolated (mutating one
    scenario's result must never bleed into another's, or into the
    cache); a result that refuses to copy is shared as-is, better aliased
    than absent. A *failed* primary is no hit at all: the duplicate
    reports the failure under its own name with ``cached=False``,
    matching the across-batch rule that failures are never stored or
    reused as successes.
    """
    label = prepared.payloads[index].label
    if not primary.ok or primary.result is None:
        # the error must name THIS scenario (the established invariant for
        # every failed outcome), while still attributing the actual run
        return ScenarioOutcome(
            name=label,
            error=(
                f"scenario {label!r}: identical to scenario "
                f"{primary.name!r}, which failed: {primary.error}"
            ),
            seconds=0.0,
            cached=False,
        )
    return ScenarioOutcome(
        name=label,
        result=clone_result(primary.result) or primary.result,
        seconds=0.0,
        cached=True,
    )


def _finish_outcome(prepared: _PreparedBatch, index: int, outcome: ScenarioOutcome):
    """Post-process one executed outcome: remember successes in the cache."""
    if prepared.cache is not None and outcome.ok and outcome.result is not None:
        prepared.cache.store(prepared.fingerprints[index], outcome.result)
    return outcome


def _stream_outcomes(prepared: _PreparedBatch) -> Iterator[ScenarioOutcome]:
    """Yield outcomes as workers finish: cache hits immediately, executed
    scenarios in completion order, in-batch duplicates right after the
    scenario that ran on their behalf.

    Abandoning the stream (``close()``, ``break``, GC) refunds the
    accountant for every pre-charged releasing scenario whose outcome was
    never received, and a scenario that completed *failed* is refunded on
    the spot — releasing nothing consumes no privacy, so only the
    releases that actually happened stay on the books. The cache's hit/miss
    telemetry is rolled back the same way: a miss counts a scenario that
    executed, a hit counts a result actually delivered, so neither may
    remember work the abandoned stream never did.
    """
    completed: set = set()
    delivered_cached = 0
    results = None
    try:
        # priming point: run_batch advances the generator here before
        # handing it out, so the try/finally is entered and the refund
        # fires even if the consumer never iterates (close()/GC are
        # no-ops on an unstarted generator — its finally would never run)
        yield None  # type: ignore[misc]  # swallowed by run_batch
        # start the pool FIRST: iter_in_pool dispatches at call time, so
        # cache misses compute in workers while the consumer is still
        # processing the cached hits below
        run_payloads = [prepared.payloads[i] for i in prepared.to_run]
        results = iter_in_pool(_run_payload, run_payloads, prepared.effective_workers)
        for index in sorted(prepared.cached_results):
            # count before the yield: reaching the yield statement IS
            # delivery (a close() can only land at a suspension point),
            # while code after it never runs if the consumer closes there
            delivered_cached += 1
            yield _cached_outcome(prepared, index)
        dependents: Dict[int, List[int]] = {}
        for dup_index, primary_index in prepared.duplicates.items():
            dependents.setdefault(primary_index, []).append(dup_index)
        for position, outcome in results:
            index = prepared.to_run[position]
            completed.add(index)
            if isinstance(outcome, BaseException):
                outcome = _lost_outcome(prepared.payloads[index].label, outcome)
            outcome = _finish_outcome(prepared, index, outcome)
            if (
                not outcome.ok
                and prepared.accountant is not None
                and index in prepared.charges
            ):
                # completed but failed: the release never happened, so its
                # pre-charge goes back (the finally below skips it — the
                # index is in `completed` — so no double refund)
                prepared.charges[index].refund()
            # clone for dependents BEFORE the primary is yielded: once the
            # consumer holds the primary it may mutate it, and that must
            # not bleed into the duplicates still queued behind it. Hits
            # are counted only as each duplicate is actually delivered.
            duplicates = [
                _duplicate_outcome(prepared, dup_index, outcome)
                for dup_index in sorted(dependents.get(index, ()))
            ]
            yield outcome
            for duplicate in duplicates:
                if duplicate.cached and prepared.cache is not None:
                    prepared.cache.note_hit()
                yield duplicate
    finally:
        if results is not None:
            results.close()  # tears the pool down on abandonment
        if prepared.accountant is not None:
            for index, charge in prepared.charges.items():
                if index not in completed:
                    charge.refund()
        if prepared.cache is not None:
            prepared.cache.hits -= len(prepared.cached_results) - delivered_cached
            prepared.cache.misses -= sum(
                1 for i in prepared.to_run if i not in completed
            )


def run_batch(
    template: "StressTest",
    scenarios,
    workers: int = 1,
    accountant: Optional[PrivacyAccountant] = None,
    stream: bool = False,
    cache=None,
):
    """Resolve, budget-check, and execute a list of scenarios.

    ``workers > 1`` runs scenarios in forked worker processes (see
    :mod:`repro.api.pool`); ``workers=1`` runs inline (handy under
    debuggers and on platforms without fork). ``stream=True`` returns an
    iterator yielding each :class:`ScenarioOutcome` as its worker
    finishes (completion order); by default that stream is drained into
    a :class:`BatchResult` with outcomes in input order. Resolution,
    worker planning, and budget charging all happen before this call
    returns. ``cache`` enables scenario-level result reuse: pass a
    :class:`~repro.api.cache.ScenarioCache`, ``True`` for a per-call
    one, or a directory path (``str`` / :class:`os.PathLike`) for a
    :class:`~repro.api.diskcache.PersistentScenarioCache` whose entries
    survive process restarts.
    """
    prepared = _prepare_batch(template, scenarios, workers, accountant, cache)
    _compile_plans(prepared)
    started = clock_now()
    outcomes = _stream_outcomes(prepared)
    next(outcomes)  # enter the generator: arms the refund-on-abandon finally
    if stream:
        return outcomes
    position = {payload.label: index for index, payload in enumerate(prepared.payloads)}
    ordered = sorted(outcomes, key=lambda outcome: position[outcome.name])
    # a refunded charge reads 0.0: this is the net draw summed in charge
    # order, and exactly 0.0 (not float dust) when every release failed
    epsilon_charged = sum((charge.epsilon for charge in prepared.charges.values()), 0.0)
    cache_hits, cache_misses = prepared.cache_counts()
    batch_result = BatchResult(
        outcomes=ordered,
        wall_seconds=clock_now() - started,
        workers=prepared.effective_workers,
        epsilon_charged=epsilon_charged,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )
    recorder = current_recorder()
    if recorder.enabled and prepared.cache is not None:
        absorb_cache(recorder.metrics, prepared.cache)
    return batch_result
