"""Shared process-pool plumbing for the batch, sharded and service layers.

Three layers fork worker processes: :func:`repro.api.batch.run_batch`
fans *scenarios* across a pool, the sharded engine fans *vertex shards
of one run* across a pool, and the service keeps *persistent* engine
processes for the runs it admits; all are planned and created here. A
batch or a shard window is one bounded ``map``: :func:`create_pool` is a
``multiprocessing.Pool``. A service worker may be killed under a run, and
a ``Pool`` task whose worker dies never completes — a hang where a typed
error is owed — so :func:`create_executor` is a ``ProcessPoolExecutor``:
a dead worker fails every pending future with ``BrokenProcessPool``.

* **No nested pools.** ``multiprocessing`` pool workers are daemonic and
  may not fork children, and an executor worker must not (``workers x
  shards`` processes on the same cores), so a sharded run scheduled
  inside either must not open its own pool. :func:`in_worker_process`
  detects that; the sharded engine then computes its shards inline (same
  partition, same arithmetic, so the result is bit-identical).
* **No oversubscription.** When a batch contains scenarios with intra-run
  parallelism — process shards (``sharded``) or asyncio task concurrency
  (``async``) — the useful parallelism is ``workers x width``;
  :func:`plan_workers` caps the scenario-level worker count so that
  product stays within the CPU budget instead of stacking two layers'
  worth of concurrency.
* **One fork policy.** Everything uses the fork start method: payloads
  stay picklable-small, and engines inherit read-only program/graph state
  instead of re-importing it.
* **No env leakage.** Fork inheritance copies the parent's environment
  wholesale, so a worker would silently see whatever ``REPRO_*`` knobs
  the *host* process happened to carry — ``REPRO_BENCH_SMOKE`` from a
  benchmark harness, ``REPRO_TCP_*`` from a cluster launcher, anything a
  server front-end was started under. Engine behavior must come from the
  payload (config/transport instances), never from ambient host state,
  so every pool worker is scrubbed of ``REPRO_*`` variables at
  initialization; callers that *intend* to pass one through name it in
  an explicit ``env_allowlist``. Inline execution (``workers == 1``)
  runs in the caller's own process and is never scrubbed.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import stat
import threading
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import get_context
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.trace import set_recorder

__all__ = [
    "cpu_budget",
    "in_worker_process",
    "plan_workers",
    "scrub_repro_env",
    "create_pool",
    "create_executor",
    "map_in_pool",
    "iter_in_pool",
]

#: Prefix of every environment knob this library reads. Worker processes
#: are scrubbed of it so host env cannot steer forked engine runs.
REPRO_ENV_PREFIX = "REPRO_"
_IN_EXECUTOR_WORKER = False  # set by _executor_worker_init


def scrub_repro_env(allowlist: Sequence[str] = ()) -> List[str]:
    """Delete every ``REPRO_*`` variable from ``os.environ`` except those
    named in ``allowlist``; returns the names removed (for audits/tests).

    Called in freshly-forked workers (pool initializers, cluster
    children) so an engine process starts from an explicit environment:
    whatever the payload carries, plus only the allowlisted variables.
    """
    keep = set(allowlist)
    removed = []
    for key in list(os.environ):
        if key.startswith(REPRO_ENV_PREFIX) and key not in keep:
            del os.environ[key]
            removed.append(key)
    return removed


def _scrubbing_initializer(
    allowlist: Tuple[str, ...],
    initializer: Optional[Callable[..., None]],
    initargs: Tuple[Any, ...],
) -> None:
    """Worker bootstrap: scrub first, then the caller's initializer.
    Module-level so it survives pickling under any start method."""
    scrub_repro_env(allowlist)
    if initializer is not None:
        initializer(*initargs)


def cpu_budget() -> int:
    """Usable CPU count (at least 1; the fallback when undetectable)."""
    return os.cpu_count() or 1


def in_worker_process() -> bool:
    """Whether we are inside a pool worker, which cannot or must not fork."""
    return _IN_EXECUTOR_WORKER or multiprocessing.current_process().daemon


def plan_workers(requested: int, num_tasks: int, shard_width: int = 1) -> int:
    """Effective worker count for a task-level pool.

    ``requested`` is bounded by the number of tasks (idle workers are
    pointless). ``shard_width`` is the widest intra-run parallelism any
    task would *like* to deploy — process shards for the sharded engine,
    or asyncio task concurrency for the async engine. (An event loop is
    single-threaded, so the task-width cap is deliberately conservative:
    it bounds the *declared* concurrency budget of the batch rather than
    measured CPU pressure, keeping wide-async and wide-sharded batches
    under one planning rule.) Shard
    pools inside a pool worker always degrade to inline execution
    (daemonic workers cannot fork), so each worker is one process either
    way — the only cap worth paying for is the CPU budget: never stack
    more wide-scenario workers than CPUs, and let a serial batch
    (``effective == 1``) keep the parent's full intra-run width. Live
    processes therefore never exceed ``max(cpu_budget, shard_width)``.
    ``shard_width == 1`` keeps the historical batch behavior: the
    caller's worker count is honored even beyond the CPU count (scenario
    workers are frequently I/O-idle in simulation).
    """
    if requested < 1:
        raise ConfigurationError("workers must be at least 1")
    if shard_width < 1:
        raise ConfigurationError("shard width must be at least 1")
    effective = min(requested, max(1, num_tasks))
    if shard_width > 1:
        effective = max(1, min(effective, cpu_budget()))
    return effective


def _check_may_fork(processes: int) -> None:
    if processes < 1:
        raise ConfigurationError("a pool needs at least one process")
    if in_worker_process():
        raise ConfigurationError(
            "cannot open a process pool inside a pool worker; run the "
            "nested stage inline instead (see repro.api.pool docs)"
        )


def create_pool(
    processes: int,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    env_allowlist: Sequence[str] = (),
):
    """A fork-context pool; the caller owns its lifetime (use ``with``).

    Every worker is scrubbed of ``REPRO_*`` environment variables before
    the caller's ``initializer`` runs; name variables in
    ``env_allowlist`` to let them through deliberately.
    """
    _check_may_fork(processes)
    ctx = get_context("fork")
    return ctx.Pool(
        processes=processes,
        initializer=_scrubbing_initializer,
        initargs=(tuple(env_allowlist), initializer, initargs),
    )


def _exit_with_parent() -> None:
    """Block on the pipe ``multiprocessing`` keeps to our parent: EOF, it is gone."""
    multiprocessing.parent_process().join()
    os._exit(1)


def _executor_worker_init() -> None:
    """A persistent worker takes nothing ambient from its parent but code and plans."""
    global _IN_EXECUTOR_WORKER
    _IN_EXECUTOR_WORKER = True
    # a full collection would copy every inherited page (large parent: 6.7 -> 4.8 s)
    gc.freeze()
    scrub_repro_env()
    # a recorder ambient at fork would grow for the worker's life, unread
    set_recorder(None)
    # Ctrl-C reaches the whole foreground group: the parent shuts workers down
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    # a pool rebuilt while serving inherits the listener and client
    # connections. dup2, not close(): inherited socket objects own the numbers
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in map(int, os.listdir("/dev/fd")):
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
        except OSError:
            pass  # the descriptor that listed the directory, closed since
    os.close(devnull)


def create_executor(processes: int) -> ProcessPoolExecutor:
    """``processes`` persistent fork-context workers, already forked when
    this returns; the caller owns ``shutdown``. Why an executor: see above."""
    _check_may_fork(processes)
    executor = ProcessPoolExecutor(
        processes, mp_context=get_context("fork"), initializer=_executor_worker_init
    )
    # fork launches every worker inside the first submit: none after a bind
    executor.submit(os.getpid).result()
    return executor


def map_in_pool(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int,
    env_allowlist: Sequence[str] = (),
) -> List[Any]:
    """Map ``fn`` over ``payloads`` preserving input order.

    ``workers == 1`` (or a single payload) runs inline — handy under
    debuggers, on platforms without fork, and inside pool workers where
    forking again is forbidden. Forked workers are env-scrubbed (see
    :func:`scrub_repro_env`); the inline path is not (it *is* the
    caller's process).
    """
    items = list(payloads)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with create_pool(min(workers, len(items)), env_allowlist=env_allowlist) as pool:
        return pool.map(fn, items)


def _indexed_apply(fn: Callable[[Any], Any], pair: Tuple[int, Any]) -> Tuple[int, Any]:
    """Worker shim for :func:`iter_in_pool`: tag each result with its
    input index so streaming consumers can reassociate out-of-order
    completions. Module-level so it pickles."""
    index, item = pair
    return index, fn(item)


def iter_in_pool(
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    workers: int,
    env_allowlist: Sequence[str] = (),
):
    """Yield ``(input_index, fn(payload))`` pairs as workers finish.

    The streaming sibling of :func:`map_in_pool`: no barrier — each
    result is yielded the moment its worker completes, in *completion*
    order, tagged with the payload's input index. ``workers == 1`` (or a
    single payload) runs inline, yielding in input order.

    Unlike a plain generator function, the pool is created and its tasks
    dispatched *at call time*, so workers compute while the caller does
    other things (e.g. streams cache hits) before draining the returned
    iterator. The pool is torn down when the iterator is exhausted or
    closed.
    """
    items = list(payloads)
    if workers == 1 or len(items) <= 1:

        def _inline():
            for index, item in enumerate(items):
                yield index, fn(item)

        return _inline()

    pool = create_pool(min(workers, len(items)), env_allowlist=env_allowlist)
    # imap_unordered dispatches eagerly: workers start on the payloads now
    results = pool.imap_unordered(partial(_indexed_apply, fn), list(enumerate(items)))

    def _drain():
        exhausted = False
        try:
            yield None  # priming point (consumed below): arms the finally
            yield from results
            exhausted = True
        finally:
            # clean exhaustion closes the pool and lets workers exit on
            # their own (atexit handlers and all); terminate() SIGTERMs
            # them, which could catch user-supplied engine code mid-write
            # to whatever external state it holds — needless on the happy
            # path, so it is reserved for abandonment (close()/break/GC
            # mid-stream), where undelivered results are discarded anyway
            if exhausted:
                pool.close()
            else:
                pool.terminate()
            pool.join()

    # enter the generator before handing it out: close() on an unstarted
    # generator skips its body — and with it the finally that owns the
    # pool teardown — so an abandonment before the first result would
    # leave teardown to GC finalizers instead of happening right away
    drain = _drain()
    next(drain)
    return drain
