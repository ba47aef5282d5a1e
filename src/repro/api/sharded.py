"""The sharded engine: intra-run vertex partitioning across processes.

Every other backend walks all vertices in one process; ``run_many`` only
parallelizes *across* scenarios. This backend is the first intra-run
distribution mechanism: the graph's vertices are partitioned into
contiguous shards, each round's vertex programs run shard-locally in a
worker process, and boundary ("ghost") messages are exchanged between
shards at the round barrier — the §3.6 schedule driven by the shared
:func:`~repro.core.rounds.run_rounds` scheduler, with the superstep fanned
across a :mod:`repro.api.pool` pool.

Determinism argument (asserted bit-for-bit by the parity tests):

1. **Partition** — shards are contiguous runs of the sorted vertex ids,
   a pure function of ``(vertex_ids, shards)``; no scheduler state leaks in.
2. **Superstep** — each vertex's ``float_update`` sees exactly the state
   and inbox it would see in the plaintext engine; vertices are
   independent within a round, so *where* one runs cannot change its value.
3. **Merge order** — workers return their shard's states in ascending id
   order and shards are merged in ascending order, so the merged dict has
   the same insertion order as the plaintext engine's state map, and the
   trajectory observer sums floats in the same order (float addition is
   not associative — the merge preserving order is what makes the
   trajectory bit-identical rather than merely close).
4. **Ghost exchange** — routing runs once per round barrier on the full
   outbox map, identical to the single-process route.

Inside a batch worker (daemonic ⇒ no child processes allowed) the same
partition runs inline, sequentially; by (2) and (3) the result is
unchanged, so sharded scenarios compose with ``run_many`` transparently.

Like every backend the engine executes through the shared run lifecycle;
under ``release="windowed"`` each window spins up its own worker pool and
the round loop resumes via the :func:`~repro.core.rounds.run_rounds`
resumption contract, so the windowed trajectory stays bit-identical to
the one-shot run of the same total length.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.engines import Engine, _PlaintextCore, validate_intra_run_width
from repro.api.pool import create_pool, in_worker_process
from repro.api.registry import register_engine
from repro.api.result import RunResult
from repro.core.engine import PlaintextEngine, float_arithmetic
from repro.core.graph import DistributedGraph
from repro.core.lifecycle import ReleasePolicy, RunState, run_lifecycle
from repro.core.program import VertexProgram
from repro.core.rounds import sequential_superstep
from repro.core.transport import (
    attach_wan_extras,
    check_transport_spec,
    transport_from_spec,
    wan_meter_snapshot,
)
from repro.exceptions import ConfigurationError

__all__ = ["ShardedEngine", "partition_vertices", "cross_shard_edges"]


def partition_vertices(vertex_ids: List[int], shards: int) -> List[List[int]]:
    """Split sorted vertex ids into at most ``shards`` contiguous chunks.

    Chunk sizes differ by at most one and empty chunks are dropped (more
    shards than vertices degrades to one vertex per shard). Contiguity
    over the sorted ids is what lets the barrier merge reproduce the
    plaintext engine's state-map ordering by concatenation alone.
    """
    if shards < 1:
        raise ConfigurationError("shard count must be at least 1")
    ids = sorted(vertex_ids)
    count = min(shards, len(ids))
    if count == 0:
        return []
    base, extra = divmod(len(ids), count)
    chunks: List[List[int]] = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(ids[start : start + size])
        start += size
    return chunks


def cross_shard_edges(graph: DistributedGraph, chunks: List[List[int]]) -> int:
    """Directed edges whose endpoints live on different shards — each one
    carries a ghost message across the barrier every round."""
    shard_of = {vid: index for index, chunk in enumerate(chunks) for vid in chunk}
    return sum(
        1 for src, dst in graph.edges() if shard_of[src] != shard_of[dst]
    )


# Worker-side global, installed once per pool worker by the initializer so
# the per-round payloads carry only shard state, not the program: the float
# arithmetic's vertex update — the very function the inline path runs.
_WORKER_UPDATE: Callable = None  # type: ignore[assignment]


def _init_shard_worker(program: VertexProgram, degree_bound: int) -> None:
    global _WORKER_UPDATE
    _WORKER_UPDATE = float_arithmetic(program, degree_bound).update


def _shard_step(
    payload: Tuple[Dict[int, Dict[str, float]], Dict[int, List[float]]],
) -> Tuple[Dict[int, Dict[str, float]], Dict[int, List[float]]]:
    """One shard's share of a superstep: update its vertices, in id order."""
    states, inboxes = payload
    return sequential_superstep(sorted(states), _WORKER_UPDATE)(states, inboxes)


class _ShardedCore(_PlaintextCore):
    """The plaintext core with a pooled superstep.

    The inline path (one shard, or inside a daemonic batch worker) is the
    reference engine's own :class:`~repro.core.rounds.RoundLoop`,
    untouched. The pooled path drives the same loop — same arithmetic,
    same initial state, same routing — with only the superstep fanned
    across a fresh worker pool per window (pools don't outlive a window:
    a windowed run may idle for a long release stage between rounds, and
    worker placement can never change a value — see the determinism
    argument above).
    """

    def __init__(self, engine, program, graph, config) -> None:
        super().__init__(engine, program, graph, config)
        self.chunks: List[List[int]] = []
        self.ghost_edges = 0
        self.inline = True
        self.bus = None
        self.before = None
        self._pool = None

    def setup(self, state: RunState) -> None:
        self.chunks = partition_vertices(self.graph.vertex_ids, self.engine.shards)
        self.ghost_edges = cross_shard_edges(self.graph, self.chunks)
        self.bus = (
            transport_from_spec(self.engine.transport, self.config)
            if self.engine.transport is not None
            else None
        )
        self.before = wan_meter_snapshot(self.bus)
        # the barrier merge reuses the transport gather: the ghost
        # exchange is one full-round delivery over the same bus every
        # other engine routes through (and a WAN bus meters it)
        self.inner = PlaintextEngine(self.program, transport=self.bus)
        self.inline = len(self.chunks) <= 1 or in_worker_process()
        self.loop = self.inner.start(
            self.graph,
            phases=state.phases,
            superstep=None if self.inline else self._pooled_superstep,
        )

    def _pooled_superstep(self, state_map, inbox_map):
        payloads = [
            (
                {vid: state_map[vid] for vid in chunk},
                {vid: inbox_map[vid] for vid in chunk},
            )
            for chunk in self.chunks
        ]
        merged_states: Dict[int, Dict[str, float]] = {}
        merged_outboxes: Dict[int, List[float]] = {}
        for shard_states, shard_outboxes in self._pool.map(_shard_step, payloads):
            merged_states.update(shard_states)
            merged_outboxes.update(shard_outboxes)
        return merged_states, merged_outboxes

    def run_window(self, state: RunState, rounds: int, first: bool) -> None:
        if self.inline:
            super().run_window(state, rounds, first)
            return
        with create_pool(
            len(self.chunks),
            initializer=_init_shard_worker,
            initargs=(self.program, self.graph.degree_bound),
        ) as pool:
            self._pool = pool
            try:
                super().run_window(state, rounds, first)
            finally:
                self._pool = None

    def finalize(self, state: RunState, started: float) -> RunResult:
        result = super().finalize(state, started)
        result.extras.update(
            {
                "shards": float(len(self.chunks)),
                "requested_shards": float(self.engine.shards),
                "ghost_edges": float(self.ghost_edges),
                "ghost_messages": float(self.ghost_edges * state.rounds_done),
                "inline": 1.0 if self.inline else 0.0,
            }
        )
        attach_wan_extras(result, self.bus, self.before)
        return result


class ShardedEngine(Engine):
    """Float-mode execution partitioned across ``shards`` worker processes.

    Bit-identical to ``engine="plaintext"`` under the same seed and
    iteration count, for every shard count — the shard count only decides
    *where* each vertex update runs, never what it computes.
    """

    name = "sharded"

    def __init__(
        self,
        shards: int = 2,
        transport=None,
        release: Union[str, ReleasePolicy] = "oneshot",
        windows: Optional[Sequence[int]] = None,
        window_epsilon: Optional[float] = None,
    ) -> None:
        self.shards = validate_intra_run_width(shards, self.name)
        #: Bus the round-barrier ghost exchange is routed (and metered)
        #: over; ``None`` keeps the shared zero-delay in-memory bus.
        self.transport = check_transport_spec(transport, optional=True)
        self._configure_release(release, windows, window_epsilon)

    def execute(self, program, graph, iterations, config, accountant=None):
        core = _ShardedCore(self, program, graph, config)
        return run_lifecycle(self, core, program, config, iterations, accountant)


register_engine("sharded", ShardedEngine, aliases=("shard", "partitioned"))
