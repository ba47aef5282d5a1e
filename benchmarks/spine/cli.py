"""Command line of the measurement spine.

::

    python3 benchmarks/spine --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/spine [--smoke] [--out PATH]      # all six, interleaved
    python3 benchmarks/spine --selftest                  # BENCHMARK.json vs harness
    python3 benchmarks/spine compare A.json B.json       # see compare.py

The last line of stdout is one JSON object. For a single workload it has
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
for several it maps each workload name to such an object. The exit code
is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

_STARTED = time.perf_counter()

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_CONTRACT_KEYS = ("correct", "attempted", "failed", "metrics")


def _terminate(signum: int, frame: Any) -> None:
    # unwind through every finally: the service and the parties must be reaped
    raise KeyboardInterrupt(f"signal {signum}")


def _catch_sigterm() -> None:
    """Turn SIGTERM into ``KeyboardInterrupt`` in this process only.

    A forked pool worker or cluster party must keep SIGTERM's default
    action, because ``Process.terminate()`` relies on it. An inherited
    Python-level handler only sets a flag for the interpreter to notice,
    and a worker that takes the signal just before it blocks on the
    pool's task lock (or before it has returned from ``fork``, which
    clears the flag) never looks: the parent's ``join`` then waits
    forever. That was one hung ``run_many`` in about a thousand on a busy
    machine, and never without a handler. So the default action is put
    back for the duration of every fork.
    """
    signal.signal(signal.SIGTERM, _terminate)

    def _set(action: Any) -> None:
        # signal.signal works on the main thread only, which is where the
        # program under test forks from
        if threading.current_thread() is threading.main_thread():
            signal.signal(signal.SIGTERM, action)

    os.register_at_fork(
        before=lambda: _set(signal.SIG_DFL),
        after_in_parent=lambda: _set(_terminate),
    )


def _contract(result: Dict[str, Any]) -> Dict[str, Any]:
    return {key: result[key] for key in _CONTRACT_KEYS}


def _print_human(document: Dict[str, Any]) -> None:
    print(
        f"# commit {document['commit']} seed {document['seed']} rounds {document['rounds']} "
        f"wall {document['wall_s']:.1f}s cal {document['calibration']['median'] * 1e3:.1f}ms "
        f"spread {document['calibration']['max'] / document['calibration']['min']:.3f}"
        + (" NOISY" if document["noisy"] else "")
    )
    for name, result in document["workloads"].items():
        status = "ok" if result["correct"] else f"INCORRECT: {result['error']}"
        print(
            f"## {name}: {status}; ops {result['attempted']} failed {result['failed']} "
            f"reps {result['reps']}"
        )
        for metric, entry in result["metrics"].items():
            if entry["value"] != 0.0:
                measured = result["raw"].get(metric, entry["value"])
                note = "" if measured == entry["value"] else f"  (measured {measured:.6g})"
                print(f"{name:16s} {metric:28s} {entry['value']:14.6g} {entry['unit']}{note}")
        for series, stats in result["samples"].items():
            print(
                f"{name:16s} series {series:14s} n={stats['n']:<4d} "
                f"p50={stats['median']:.6g}s q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
                f"min={stats['min']:.6g} p95={stats['p95']:.6g} max={stats['max']:.6g}"
            )


def _append_run(path: Path, document: Dict[str, Any]) -> None:
    """Result files hold a list of runs, so repeated invocations with the
    same ``--out`` build the sample that ``compare`` takes medians over."""
    from benchmarks.spine.runner import RESULT_SCHEMA

    runs: List[Dict[str, Any]] = []
    if path.exists():
        existing = json.loads(path.read_text())
        if existing.get("schema") != RESULT_SCHEMA:
            raise SystemExit(f"{path} is not a {RESULT_SCHEMA} file; refusing to overwrite it")
        runs = existing["runs"]
    runs.append({k: v for k, v in document.items() if k not in ("spans", "self_seconds")})
    path.write_text(json.dumps({"schema": RESULT_SCHEMA, "runs": runs}, indent=1) + "\n")


# ---------------------------------------------------------------- selftest --


def selftest() -> List[str]:
    """Problems that would make ``BENCHMARK.json`` disagree with what the
    harness emits, or fall outside the benchmark contract's limits."""
    from benchmarks.spine.harness import END_TO_END, ROOT
    from benchmarks.spine.layers import PER_LAYER
    from benchmarks.spine.workloads import WORKLOADS

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(manifest) != expected_keys:
        problems.append(f"keys are {sorted(manifest)}, expected {sorted(expected_keys)}")
    sections = (
        ("workloads", dict.fromkeys(WORKLOADS), 8, {"name", "why"}),
        ("end_to_end", END_TO_END, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", PER_LAYER, 128, {"name", "unit", "better"}),
    )
    seen: set = set()
    for section, emitted, limit, keys in sections:
        entries = manifest.get(section, [])
        if not 1 <= len(entries) <= limit:
            problems.append(f"{section} has {len(entries)} entries, limit is {limit}")
        for entry in entries:
            name = entry.get("name", "")
            if set(entry) != keys:
                problems.append(f"{section} {name!r} has keys {sorted(entry)}")
            if not _NAME.match(name):
                problems.append(f"{section} name {name!r} is not a valid name")
            if name in seen:
                problems.append(f"name {name!r} is used twice")
            seen.add(name)
            if "unit" in keys and entry.get("unit") != emitted.get(name):
                problems.append(
                    f"{section} {name!r}: unit {entry.get('unit')!r} declared, "
                    f"harness emits {emitted.get(name)!r}"
                )
            if "better" in keys and entry.get("better") not in ("lower", "higher"):
                problems.append(f"{section} {name!r} has no direction")
            if "bound" in keys and not 0 <= entry.get("bound", -1) <= 0.25:
                problems.append(f"{section} {name!r} has no bound in [0, 0.25]")
        declared = {entry.get("name") for entry in entries}
        for name in sorted(set(emitted) - declared):
            problems.append(f"{section}: harness emits {name!r} but it is not declared")
        for name in sorted(declared - set(emitted)):
            problems.append(f"{section}: {name!r} is declared but never emitted")
    if manifest.get("paths") != ["benchmarks/spine"]:
        problems.append(f"paths is {manifest.get('paths')!r}")
    if not any(
        e.get("name") == "setup_s" and e.get("unit") == "s" and e.get("better") == "lower"
        for e in manifest.get("end_to_end", [])
    ):
        problems.append("end_to_end lacks setup_s in s, lower is better")
    return problems


# -------------------------------------------------------------------- main --


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from benchmarks.spine.compare import main as compare_main

        return compare_main(argv[1:])

    parser = argparse.ArgumentParser(prog="python3 benchmarks/spine", description=__doc__)
    parser.add_argument("--workload", help="run this one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one rep, one set-up, checks on")
    parser.add_argument("--selftest", action="store_true", help="validate BENCHMARK.json only")
    parser.add_argument("--out", type=Path, help="append this run to a result file")
    parser.add_argument("--trace-out", type=Path, help="write the traced run's spans here")
    args = parser.parse_args(argv)

    if args.selftest:
        problems = selftest()
        for problem in problems:
            print(f"selftest: {problem}")
        print(f"selftest: {'FAILED' if problems else 'ok'}")
        return 1 if problems else 0

    from benchmarks.spine.runner import run
    from benchmarks.spine.workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.trace_out is not None and not args.trace:
        parser.error("--trace-out needs --trace 1")
    names = [args.workload] if args.workload else list(WORKLOADS)
    _catch_sigterm()
    document = run(names, args.seed, args.seconds, bool(args.trace), import_s, smoke=args.smoke)

    if args.trace_out is not None:
        args.trace_out.write_text(
            json.dumps({k: document[k] for k in ("schema", "commit", "spans", "self_seconds")})
        )
    if args.out is not None:
        _append_run(args.out, document)
    _print_human(document)
    results = document["workloads"]
    if args.workload:
        print(json.dumps(_contract(results[args.workload])))
    else:
        print(json.dumps({name: _contract(result) for name, result in results.items()}))
    return 0 if all(result["correct"] for result in results.values()) else 1
