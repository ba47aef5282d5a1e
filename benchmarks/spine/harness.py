"""Timing, deadlines, the calibration kernel and the workload base class.

Everything the six workloads share lives here so that a workload file
only says *what* runs. The declared metric tables (:data:`END_TO_END`,
and ``PER_LAYER`` in :mod:`benchmarks.spine.layers`) are the single
source of the names the harness emits; ``--selftest`` holds
``BENCHMARK.json`` to them.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List

import numpy as np

ROOT = Path(__file__).resolve().parents[2]

#: End-to-end metric name -> unit. Every workload reports every one of
#: them (the benchmark contract), so each is defined per workload in
#: README.md rather than existing on one workload only.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "op_s": "s",
    "floor_ms": "ms",
    "traffic_mb": "MB",
}

#: The end-to-end metrics that are times. They are reported as same-run
#: ratios to the calibration kernel (see :func:`calibration_kernel`).
TIME_METRICS = ("setup_s", "op_s", "floor_ms")

#: What the calibration kernel takes on the sandbox this benchmark was
#: sized on, when the machine is quiet. A time metric is its median wall
#: time multiplied by ``CAL_REFERENCE_S / (this run's median kernel
#: time)``: seconds on the reference machine, not on a neighbour's burst.
CAL_REFERENCE_S = 0.022

#: No single operation of any workload takes a tenth of this when
#: healthy; a hang becomes one failed op, never a hung benchmark.
OP_DEADLINE_S = 20.0

#: ``bench.cal_spread`` (max / min of the calibration kernel over one
#: invocation) above this marks the run as measured on a noisy machine.
NOISY_SPREAD = 1.15


class CheckFailed(Exception):
    """An output of the program under test was wrong."""


class OpTimeout(Exception):
    """An operation overran its deadline."""


def log(message: str) -> None:
    """Progress goes to stderr: stdout's last line is the result."""
    print(f"[spine] {message}", file=sys.stderr, flush=True)


@contextlib.contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`OpTimeout` in the main thread after ``seconds``.

    Client threads cannot take signals; their operations are bounded by
    socket timeouts instead, so off the main thread this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _expired(signum: int, frame: Any) -> None:
        raise OpTimeout(f"operation exceeded its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def median(values: List[float]) -> float:
    if not values:
        raise CheckFailed("no samples were collected for a reported metric")
    return statistics.median(values)


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile; with few samples this is the maximum."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def spread_summary(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of one sample series."""
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    )
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "p95": percentile(values, 0.95),
        "max": max(values),
        "n": len(values),
    }


# ------------------------------------------------------- calibration kernel --

_CAL_MODULUS = (1 << 255) - 19
_CAL_BLOCK = b"\x5a" * (1 << 22)


def calibration_kernel() -> float:
    """Seconds a fixed mix of hashing, big-int, numpy and dict work takes.

    It touches no code of the program under test, so its drift across one
    invocation is the machine's, not the program's: a noise sentinel.
    """
    started = time.perf_counter()
    acc = int.from_bytes(hashlib.sha256(_CAL_BLOCK).digest(), "big")
    for _ in range(300):
        acc = pow(acc | 1, 65537, _CAL_MODULUS)
    lanes = np.arange(1 << 16, dtype=np.uint64)
    for _ in range(200):
        lanes ^= lanes >> np.uint64(3)
    table: Dict[int, int] = {}
    for i in range(100000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    if acc < 0 or int(lanes[1]) < 0 or not table:  # consume every result
        raise AssertionError("unreachable")
    return time.perf_counter() - started


# ------------------------------------------------------------ scratch space --


class Workdir:
    """A scratch directory inside the checkout, removed on every exit path.

    The benchmark may write only inside its checkout, so temporary cache
    directories and trace shards go under ``<root>/.spine_work/`` (which
    ``.gitignore`` names) instead of the system temp directory.
    """

    def __init__(self, tag: str) -> None:
        self.path = ROOT / ".spine_work" / tag
        self.path.mkdir(parents=True, exist_ok=True)
        self._count = 0

    def fresh(self, label: str) -> Path:
        """A new, not yet existing path under the work directory."""
        self._count += 1
        return self.path / f"{label}-{self._count}"

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.path.parent.rmdir()  # only when no other run is using it


def reap_children() -> None:
    """Terminate and wait for any forked child still alive (pool workers,
    cluster parties) — reached only after a timeout or an interrupt."""
    for child in multiprocessing.active_children():
        child.terminate()
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join(timeout=5.0)


# ----------------------------------------------------------- workload base --


class Workload:
    """One named set of inputs and the operations the benchmark times on it.

    Subclasses build their inputs from ``seed`` and start what they need
    in :meth:`boot`, run one round of operations per :meth:`step` through
    :meth:`timed`, and check outputs in :meth:`verify`. Sample series are named: ``"op"`` is the primary
    operation behind ``op_s``, ``"floor"`` the same request answered
    without secure computation behind ``floor_ms``.
    """

    name = ""

    def __init__(self, seed: int, workdir: Workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.times: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        #: output mismatches noticed while stepping; verify() reports them
        self.mismatches: List[str] = []
        #: what each failed op raised, kept for the result file
        self.failures: List[str] = []
        #: wall spent in failed ops; the measured section is extended by it
        self.lost_seconds = 0.0
        #: the ``RunResult``s each completed primary operation produced
        self.op_results: List[List[Any]] = []
        self._lock = threading.Lock()

    # -- lifecycle (overridden) ---------------------------------------------

    def boot(self) -> None:
        """Start whatever the workload runs against."""

    def step(self, rep: int, traced: bool = False) -> None:
        """One round: the primary operation and its floor operations."""
        raise NotImplementedError

    def verify(self) -> None:
        """Raise :class:`CheckFailed` unless every output was correct."""

    def shutdown(self) -> None:
        """Stop what :meth:`boot` started; safe to call twice."""

    def reset_samples(self) -> None:
        """Forget the set-up operation's timings (its op counts stay)."""
        self.times.clear()
        self.op_results.clear()

    def traffic_mb(self) -> float:
        """Bytes one primary operation puts on the (metered) wire, in MB."""
        raise NotImplementedError

    def layers(self) -> Dict[str, float]:
        """Per-layer attribution for the traced run (declared names only)."""
        return {}

    # -- shared machinery ---------------------------------------------------

    def timed(self, series: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the op deadline, time it into ``series``.

        Returns ``fn``'s result, or ``None`` when the operation raised or
        timed out — which counts as one failed op and is not timed.
        """
        started = time.perf_counter()
        try:
            with deadline(OP_DEADLINE_S):
                result = fn()
            elapsed = time.perf_counter() - started
        except Exception as exc:  # boundary: a failed op is a counted outcome
            message = f"{series}: {type(exc).__name__}: {exc}"
            log(f"{self.name}: op failed: {message}")
            with self._lock:
                self.attempted += 1
                self.failed += 1
                self.failures.append(message)
                self.lost_seconds += time.perf_counter() - started
            return None
        with self._lock:
            self.attempted += 1
            self.times[series].append(elapsed)
        return result

    def expect_same(self, what: str, seen: Any, reference: Any) -> None:
        if seen != reference:
            self.mismatches.append(f"{what}: {seen!r} != {reference!r}")

    def raise_mismatches(self) -> None:
        if self.mismatches:
            raise CheckFailed("; ".join(self.mismatches[:5]))

    def op_seconds(self) -> float:
        """The value behind ``op_s``: median wall of the primary operation."""
        return median(self.times["op"])

    def end_to_end(self) -> Dict[str, float]:
        return {
            "op_s": self.op_seconds(),
            "floor_ms": median(self.times["floor"]) * 1e3,
            "traffic_mb": self.traffic_mb(),
        }
