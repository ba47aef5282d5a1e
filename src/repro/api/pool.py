"""The one process pool of the batch and service layers.

Two layers fork worker processes: :func:`repro.api.batch.run_batch`
fans *scenarios* across a pool, and the service keeps *persistent*
engine processes for the runs it admits. Both run on
:func:`create_executor`, a fork-context ``ProcessPoolExecutor``: a worker
that dies fails every pending future with ``BrokenProcessPool``, so the
caller gets a typed error to report and refund, never a task that waits
forever.

* **Payloads by inheritance.** What a batch hands its workers (the
  resolved runs) is set in a module slot just before the executor forks
  (:func:`inheriting`) and read back in the worker; only an index is
  submitted, and only results are pickled.
* **No nested pools.** An executor worker must not fork, nor may a
  caller's own daemonic ``multiprocessing`` worker:
  :func:`in_worker_process` detects both, and :func:`create_executor`
  refuses to open a pool there.
* **No env leakage.** Fork inheritance copies the parent's environment
  wholesale, so a worker would silently see whatever ``REPRO_*`` knobs
  the *host* process happened to carry — ``REPRO_TCP_*`` from a
  cluster launcher, say. Engine
  behavior must come from the payload, never from ambient host state, so
  every worker is scrubbed of ``REPRO_*`` variables when it starts.
  Inline execution (``workers == 1``) runs in the caller's own process
  and is never scrubbed.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import stat
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from multiprocessing import get_context
from typing import Any, Callable, Iterator, List, Sequence

from repro.exceptions import ConfigurationError
from repro.obs.trace import set_recorder

__all__ = [
    "in_worker_process",
    "plan_workers",
    "scrub_repro_env",
    "create_executor",
    "inheriting",
    "iter_in_pool",
]

#: Prefix of every environment knob this library reads. Worker processes
#: are scrubbed of it so host env cannot steer forked engine runs.
REPRO_ENV_PREFIX = "REPRO_"
_IN_EXECUTOR_WORKER = False  # set by _executor_worker_init
_INHERITED: Any = None  # set by inheriting() around a fork
_INHERIT_LOCK = threading.Lock()


def scrub_repro_env() -> List[str]:
    """Delete every ``REPRO_*`` variable from ``os.environ``; returns the
    names removed (for audits/tests).

    Called in freshly-forked workers and cluster children so an engine
    process starts from an explicit environment: whatever its payload
    carries, nothing ambient.
    """
    removed = [key for key in os.environ if key.startswith(REPRO_ENV_PREFIX)]
    for key in removed:
        del os.environ[key]
    return removed


def in_worker_process() -> bool:
    """Whether we are inside a pool worker, which cannot or must not fork."""
    return _IN_EXECUTOR_WORKER or multiprocessing.current_process().daemon


def plan_workers(requested: int, num_tasks: int) -> int:
    """Effective worker count for a task-level pool: ``requested``,
    bounded by the number of tasks (idle workers are pointless)."""
    if requested < 1:
        raise ConfigurationError("workers must be at least 1")
    return min(requested, max(1, num_tasks))


def _exit_with_parent() -> None:
    """Block on the pipe ``multiprocessing`` keeps to our parent: EOF, it is gone."""
    multiprocessing.parent_process().join()
    os._exit(1)


def _executor_worker_init() -> None:
    """A worker takes nothing ambient from its parent but code, plans and
    what :func:`inheriting` handed down."""
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
    """``processes`` fork-context workers, already forked when this
    returns; the caller owns ``shutdown``. Why an executor: see above."""
    if processes < 1:
        raise ConfigurationError("a pool needs at least one process")
    if in_worker_process():
        raise ConfigurationError(
            "cannot open a process pool inside a pool worker; run the "
            "nested stage inline instead (see repro.api.pool docs)"
        )
    executor = ProcessPoolExecutor(
        processes, mp_context=get_context("fork"), initializer=_executor_worker_init
    )
    # fork launches every worker inside the first submit: none after a bind
    executor.submit(os.getpid).result()
    return executor


@contextmanager
def inheriting(value: Any) -> Iterator[None]:
    """Workers forked inside this block find ``value`` in the module slot.

    One value at a time (the lock serializes forks), cleared on exit, so
    the parent keeps no reference to what it handed down.
    """
    global _INHERITED
    with _INHERIT_LOCK:
        _INHERITED = value
        try:
            yield
        finally:
            _INHERITED = None


def _apply_inherited(index: int) -> Any:
    fn, items = _INHERITED
    return fn(items[index])


def iter_in_pool(fn: Callable[[Any], Any], payloads: Sequence[Any], workers: int):
    """Yield ``(input_index, outcome)`` pairs as workers finish.

    ``outcome`` is ``fn(payload)``, or the exception that payload's future
    raised (its worker died, its result could not be pickled back): one
    payload's failure is that payload's, never the stream's. Yields come
    in *completion* order; ``workers == 1`` (or a single payload) runs
    inline, in input order, where ``fn`` raises as it would anywhere.

    The executor is forked and every payload submitted *at call time*, so
    workers compute while the caller does other things (e.g. streams
    cache hits) before draining the returned iterator. ``fn`` and the
    payloads reach the workers by fork inheritance, not pickling. A
    drained stream shuts the executor down and lets the workers exit on
    their own; an abandoned one (``close()``, ``break``, GC) cancels what
    is queued and terminates the workers still running.
    """
    items = list(payloads)
    if workers == 1 or len(items) <= 1:
        return ((index, fn(item)) for index, item in enumerate(items))
    with inheriting((fn, items)):
        executor = create_executor(min(workers, len(items)))

    def _drain():
        futures = {}
        drained = False
        try:
            futures = {executor.submit(_apply_inherited, i): i for i in range(len(items))}
            yield None  # priming point (consumed below): arms the finally
            for future in as_completed(futures):
                error = future.exception()
                yield futures[future], future.result() if error is None else error
            drained = True
        finally:
            # a drained executor's workers exit on their own (atexit
            # handlers and all); terminating them could catch user engine
            # code mid-write to its own external state, so that is kept
            # for abandonment, where undelivered results are discarded
            if not drained:
                running = list(executor._processes.values())  # no public handle
                for future in futures:
                    future.cancel()
                for process in running:
                    process.terminate()
            executor.shutdown(wait=True)

    # enter the generator before handing it out: close() on an unstarted
    # generator skips its body — and with it the finally that owns the
    # teardown — so an abandonment before the first result would leave
    # the workers to GC finalizers instead of stopping them right away
    drain = _drain()
    next(drain)
    return drain
