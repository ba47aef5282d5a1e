"""Scenario-level result caching for the batch layer.

A regulator's scenario sweeps repeat themselves: the same quarter's
network under the same config and seed shows up in sweep after sweep
(baselines, ablations where only *other* scenarios change, re-runs after
a failed batch). Since every engine draws all randomness from
:class:`~repro.crypto.rng.DeterministicRNG` seeded by the config, an
identical ``(network, config, program, engine + options, seed,
iterations)`` tuple is guaranteed to reproduce the identical
:class:`~repro.api.result.RunResult` — so recomputing it is pure waste,
and *re-charging* the :class:`~repro.privacy.budget.PrivacyAccountant`
for it is worse than waste: re-publishing a value already released costs
no fresh privacy budget.

:func:`run_fingerprint` derives a stable digest of a resolved run from
exactly those inputs; :class:`ScenarioCache` maps digests to results.
The fingerprint is built only from values with *stable, content-based*
tokens (scalars, dataclasses, the graph's full structure and data, an
engine's scalar options). Anything unrecognized — say an engine carrying
a live :class:`~repro.core.transport.Transport` instance — makes the run
unfingerprintable and therefore *uncacheable*, never wrongly shared: a
cache must only ever err toward a miss.

:class:`ScenarioCacheBase` is the protocol the batch layer programs
against: the in-memory :class:`ScenarioCache` here and the on-disk
:class:`~repro.api.diskcache.PersistentScenarioCache` both implement it,
so ``run_batch(..., cache=...)`` accepts either (or a directory path,
which builds the persistent one).
"""

from __future__ import annotations

import copy
import hashlib
from abc import ABC, abstractmethod
from typing import Any, Dict, Optional

from repro.api.result import RunResult
from repro.api.session import ResolvedRun
from repro.core.program import program_token
from repro.core.tokens import Unfingerprintable, stable_token

__all__ = ["ScenarioCache", "ScenarioCacheBase", "run_fingerprint", "clone_result"]


def clone_result(result: RunResult) -> Optional[RunResult]:
    """An independent deep copy of a result, or ``None`` if uncopyable.

    Cached and duplicated outcomes must never alias a result another
    consumer can mutate — a cache entry whose trajectory someone edits in
    place would silently poison every later hit. All built-in results
    deep-copy cleanly; a third-party engine's result that refuses is
    treated as uncopyable and the caller falls back to recomputing.
    """
    try:
        return copy.deepcopy(result)
    except Exception:
        return None


def run_fingerprint(
    resolved: ResolvedRun,
    _graph_tokens: Optional[Dict[int, Any]] = None,
) -> Optional[str]:
    """Content digest of everything that determines a run's result.

    Covers the network fingerprint (the materialized graph, structure and
    per-vertex data), the full config (which includes the seed), the
    program identity and fixed-point format, the engine identity (class,
    registry name, and every constructor option — the class matters: two
    engine classes sharing a registry name must never share results), and
    the iteration spec (including the auto-mode tolerance/cap, which
    decide the resolved count). The scenario *label* is deliberately
    excluded — renaming a scenario must not defeat the cache. Returns
    ``None`` when any component lacks a stable token; such runs always
    execute.

    ``_graph_tokens`` is a per-call-site memo (``id(graph) -> digest``)
    for batches whose scenarios share graph objects: the graph is the
    O(V+E) part of the fingerprint, so it is collapsed to a fixed-size
    digest — built (and memoized) once per distinct graph object — before
    entering the outer token, and a 100-scenario sweep over one network
    pays the graph walk, serialization, and hash once, not 100 times.
    Only pass a memo whose lifetime is bounded by the graphs' (ids are
    reusable after GC).
    """
    engine = resolved.engine
    try:
        graph_key = id(resolved.graph)
        if _graph_tokens is not None and graph_key in _graph_tokens:
            graph_digest = _graph_tokens[graph_key]
        else:
            graph_digest = hashlib.sha256(
                repr(stable_token(resolved.graph)).encode("utf-8")
            ).hexdigest()
            if _graph_tokens is not None:
                _graph_tokens[graph_key] = graph_digest
        # sub-tokens are already stable tuples; assembling them directly
        # (no outer stable_token pass) avoids re-walking every nested tuple
        token = (
            ("graph", graph_digest),
            ("config", stable_token(resolved.config)),
            ("program",) + program_token(resolved.program),
            (
                "engine",
                type(engine).__module__ + "." + type(engine).__qualname__,
                engine.name,
                stable_token(vars(engine)),
            ),
            (
                "iterations",
                resolved.iterations,
                resolved.tolerance,
                resolved.max_iterations,
            ),
        )
    except Unfingerprintable:
        return None
    return hashlib.sha256(repr(token).encode("utf-8")).hexdigest()


class ScenarioCacheBase(ABC):
    """The cache protocol the batch layer programs against.

    Subclasses supply the storage (:meth:`_fetch` / :meth:`_persist`);
    this base owns the shared semantics: ``None`` fingerprints
    (uncacheable runs) always miss, only successful results are stored,
    every entry handed *out* is an isolated copy (isolating what is
    retained is the storage's job — see :meth:`_persist`), and the
    ``hits``/``misses`` counters are plain attributes so the batch layer
    can roll telemetry back when a batch is refused or abandoned.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    @abstractmethod
    def _fetch(self, fingerprint: str) -> Optional[RunResult]:
        """An *already isolated* copy of the entry, or ``None`` on miss."""

    @abstractmethod
    def _persist(self, fingerprint: str, result: RunResult) -> None:
        """Remember ``result``. The caller keeps ownership: never mutate
        it, and isolate (copy/serialize) whatever is retained — a
        disk-only store that just serializes it need not copy at all."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry (telemetry counters are kept)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    def lookup(self, fingerprint: Optional[str]) -> Optional[RunResult]:
        """A private copy of the cached result, counting the hit/miss."""
        if fingerprint is not None:
            clone = self._fetch(fingerprint)
            if clone is not None:
                self.hits += 1
                return clone
        self.misses += 1
        return None

    def store(self, fingerprint: Optional[str], result: RunResult) -> None:
        """Remember a successful result (no-op for uncacheable runs or
        results the storage cannot isolate)."""
        if fingerprint is not None:
            self._persist(fingerprint, result)

    def note_hit(self) -> None:
        """Count a reuse that bypassed :meth:`lookup` (an in-batch
        duplicate satisfied from a scenario still executing)."""
        self.hits += 1


class ScenarioCache(ScenarioCacheBase):
    """An in-memory fingerprint → :class:`RunResult` store.

    Pass an instance to :func:`repro.api.batch.run_batch` (or
    ``StressTest.run_many(..., cache=...)``) to reuse results across
    batches; ``cache=True`` builds a private per-call instance, which
    still deduplicates identical scenarios *within* one batch. Hits and
    misses are counted on the instance and surfaced per batch on
    :class:`~repro.api.batch.BatchResult`.

    Only successful results are stored — a failed scenario always re-runs.
    Entries are isolated by deep copy on both store and lookup, so no
    consumer ever holds a reference into the cache: mutating a hit's
    result cannot poison later hits, and mutating the original result
    after the batch cannot poison the stored golden copy.
    """

    def __init__(self) -> None:
        super().__init__()
        self._store: Dict[str, RunResult] = {}

    def __len__(self) -> int:
        return len(self._store)

    def _fetch(self, fingerprint: str) -> Optional[RunResult]:
        result = self._store.get(fingerprint)
        if result is None:
            return None
        clone = clone_result(result)
        if clone is None:
            del self._store[fingerprint]  # uncopyable entry: evict
        return clone

    def _persist(self, fingerprint: str, result: RunResult) -> None:
        clone = clone_result(result)
        if clone is not None:
            self._store[fingerprint] = clone

    def clear(self) -> None:
        self._store.clear()
