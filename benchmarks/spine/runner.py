"""Set up, measure, check and report one or more workloads.

One invocation with a single workload is the benchmark contract's unit
(``--workload W --seed N --seconds S --trace 0|1``). With several, their
reps are interleaved round-robin — one step of each per round, the
calibration kernel timed at the start of every round — so that a
neighbour waking up on a shared machine slows every workload a little
instead of one workload a lot.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs import TraceRecorder, recording

from benchmarks.spine.harness import (
    CAL_REFERENCE_S,
    END_TO_END,
    NOISY_SPREAD,
    OP_DEADLINE_S,
    ROOT,
    TIME_METRICS,
    CheckFailed,
    Workdir,
    Workload,
    calibration_kernel,
    deadline,
    log,
    median,
    reap_children,
    spread_summary,
)
from benchmarks.spine.layers import PER_LAYER
from benchmarks.spine.workloads import WORKLOADS

RESULT_SCHEMA = "dstress.spine.result/1"

#: Set-up (inputs, boot, first operation) is repeated this many times per
#: invocation and the median reported: one sample would make ``setup_s``
#: a coin toss on a shared machine.
SETUP_SAMPLES = 3


class _Slot:
    """One workload's state across set-up, the measured rounds and reporting."""

    def __init__(self, name: str, seed: int, workdir: Workdir) -> None:
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.workload: Optional[Workload] = None
        self.setup_samples: List[float] = []
        self.retired_attempted = 0
        self.retired_failed = 0
        self.failures: List[str] = []
        self.step_walls: Dict[bool, List[float]] = {False: [], True: []}
        self.spans_recorded = 0

    def set_up(self, samples: int, calibration: List[float]) -> None:
        for _ in range(samples):
            self.retire()
            calibration.append(calibration_kernel())
            started = time.perf_counter()
            self.workload = WORKLOADS[self.name](self.seed, self.workdir)
            with deadline(OP_DEADLINE_S):
                self.workload.boot()
            self.workload.step(0)
            self.setup_samples.append(time.perf_counter() - started)
        self.workload.reset_samples()

    def retire(self) -> None:
        """Stop the current instance, keeping its op counts."""
        if self.workload is not None:
            self.workload.shutdown()
            self.retired_attempted += self.workload.attempted
            self.retired_failed += self.workload.failed
            self.failures += self.workload.failures
            self.workload = None

    def step(self, rep: int, recorder: Optional[TraceRecorder]) -> None:
        started = time.perf_counter()
        if recorder is None:
            self.workload.step(rep)
        else:
            before = len(recorder.spans)
            with recording(recorder), recorder.span("bench.op", workload=self.name, rep=rep):
                self.workload.step(rep, traced=True)
            self.spans_recorded += len(recorder.spans) - before
        self.step_walls[recorder is not None].append(time.perf_counter() - started)

    @property
    def attempted(self) -> int:
        return self.retired_attempted + self.workload.attempted

    @property
    def failed(self) -> int:
        return self.retired_failed + self.workload.failed


def _provenance(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10.0,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown",  # a bare checkout is not a git repository
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def _report(
    slot: _Slot,
    trace: bool,
    import_s: float,
    calibration: List[float],
) -> Dict[str, Any]:
    """Check one workload's outputs and assemble its result object."""
    workload = slot.workload
    error = None
    values: Dict[str, float] = {}
    raw: Dict[str, float] = {}
    try:
        workload.verify()
        if trace:
            values = workload.layers()
            traced, plain = slot.step_walls[True], slot.step_walls[False]
            values["obs.trace_overhead_ratio"] = median(traced) / median(plain)
            values["obs.spans_per_run"] = slot.spans_recorded / len(traced)
            values["bench.cal_s"] = median(calibration)
            values["bench.cal_spread"] = max(calibration) / min(calibration)
            values["bench.fail_share"] = slot.failed / slot.attempted
        else:
            raw = workload.end_to_end()
            raw["setup_s"] = import_s + median(slot.setup_samples)
            speed = CAL_REFERENCE_S / median(calibration)
            values = {
                name: value * speed if name in TIME_METRICS else value
                for name, value in raw.items()
            }
    except CheckFailed as exc:
        error = str(exc)
        log(f"{slot.name}: CHECK FAILED: {error}")
    declared = PER_LAYER if trace else END_TO_END
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise AssertionError(f"{slot.name} emitted undeclared metrics: {undeclared}")
    return {
        "correct": error is None,
        "attempted": slot.attempted,
        "failed": slot.failed,
        "metrics": {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        },
        "error": error,
        "failures": slot.failures + workload.failures,
        "raw": raw,
        "reps": sum(len(walls) for walls in slot.step_walls.values()),
        "samples": {
            series: spread_summary(times)
            for series, times in sorted(workload.times.items())
            if times
        },
        "setup_samples": slot.setup_samples,
    }


def self_seconds(recorder: TraceRecorder) -> Dict[str, float]:
    """Self time per span kind: a span's duration minus what its child
    spans cover, summed by name (phase spans by their phase)."""
    children: Dict[int, float] = {}
    for span in recorder.spans:
        if span.parent_id is not None and span.duration is not None:
            children[span.parent_id] = children.get(span.parent_id, 0.0) + span.duration
    totals: Dict[str, float] = {}
    for span in recorder.spans:
        if span.duration is None:
            continue
        kind = f"phase:{span.attrs['phase']}" if span.name == "phase" else span.name
        own = max(0.0, span.duration - children.get(span.span_id, 0.0))
        totals[kind] = totals.get(kind, 0.0) + own
    return totals


def run(
    names: List[str],
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    smoke: bool = False,
) -> Dict[str, Any]:
    """Measure ``names`` for ``seconds`` each; returns the result document
    (``workloads`` maps each name to its contract-shaped result object).

    With ``trace`` every second step runs under one in-memory
    :class:`TraceRecorder` wrapped in a ``bench.op`` span, and the other
    steps run untraced: their ratio is the cost of watching.
    """
    started = time.perf_counter()
    workdir = Workdir(f"run-{os.getpid()}")
    recorder = TraceRecorder()
    slots = [_Slot(name, seed, workdir) for name in names]
    calibration: List[float] = []
    try:
        for slot in slots:
            log(f"{slot.name}: set-up")
            slot.set_up(1 if smoke else SETUP_SAMPLES, calibration)
        rounds = 0
        loop_started = time.perf_counter()
        while True:
            rounds += 1
            calibration.append(calibration_kernel())
            for slot in slots:
                slot.step(rounds, recorder if trace and rounds % 2 == 0 else None)
            enough = rounds >= (2 if trace else 1)
            # an op that hung until its deadline measured nothing
            lost = sum(slot.workload.lost_seconds for slot in slots)
            measured = time.perf_counter() - loop_started - lost
            if enough and (smoke or measured >= seconds * len(slots)):
                break
        calibration.append(calibration_kernel())
        document = _provenance(seed, seconds, trace)
        document["schema"] = RESULT_SCHEMA
        document["rounds"] = rounds
        document["calibration"] = spread_summary(calibration)
        document["noisy"] = max(calibration) / min(calibration) > NOISY_SPREAD
        document["workloads"] = {
            slot.name: _report(slot, trace, import_s, calibration) for slot in slots
        }
        if trace:
            document["spans"] = [span.to_dict() for span in recorder.spans]
            document["self_seconds"] = self_seconds(recorder)
        document["wall_s"] = time.perf_counter() - started
        return document
    finally:
        for slot in slots:
            slot.retire()
        reap_children()
        workdir.remove()
