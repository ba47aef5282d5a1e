"""``python3 benchmarks/spine compare A.json B.json`` — two result files, one table.

Each file is what ``--out`` writes: a list of runs. For every (metric,
workload) pair present in both, the table gives each side's median and
quartiles over its runs, the ratio B/A (A is the base), and a verdict:

* ``unresolved`` — either side's own spread (interquartile range over
  median) exceeds the metric's bound, so the runs cannot decide;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than both spreads;
* ``same`` — anything else.

Bounds and directions come from ``BENCHMARK.json``; per-layer metrics
have no bound, so only their spread separates ``same`` from a change.
The exit code is 1 when any end-to-end row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from benchmarks.spine.harness import ROOT, spread_summary

#: Relative differences below this are float dust between two runs of an
#: exact metric (byte counts summed in another order), not a change.
EXACT_TOLERANCE = 1e-3


def _runs(path: Path) -> List[Dict[str, Any]]:
    document = json.loads(path.read_text())
    if "runs" not in document:
        raise SystemExit(f"{path} is not a spine result file (no 'runs')")
    return document["runs"]


def _values(runs: List[Dict[str, Any]]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per run that measured it."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for workload, result in run["workloads"].items():
            if not result["correct"] or result["failed"]:
                continue  # a run with failed ops or wrong outputs proves nothing
            for metric, entry in result["metrics"].items():
                out.setdefault((workload, metric), []).append(entry["value"])
    return out


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    stats = spread_summary(values)
    return stats["q1"], stats["median"], stats["q3"]


def _cell(q: Tuple[float, float, float], n: int) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {n}"


def _verdict(
    a: Tuple[float, float, float],
    b: Tuple[float, float, float],
    lower_is_better: bool,
    bound: float,
) -> str:
    if a[1] == 0.0 or b[1] == 0.0:
        return "same" if a[1] == b[1] else "unresolved"
    spread = max((a[2] - a[0]) / abs(a[1]), (b[2] - b[0]) / abs(b[1]))
    worse_by = (b[1] - a[1]) / abs(a[1]) * (1.0 if lower_is_better else -1.0)
    if bound and spread > bound:
        return "unresolved"
    if worse_by > max(bound, spread):
        return "worse"
    if -worse_by > max(spread, EXACT_TOLERANCE):
        return "better"
    return "same"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 benchmarks/spine compare", description=__doc__)
    parser.add_argument("base", type=Path, help="result file A (the base of every ratio)")
    parser.add_argument("change", type=Path, help="result file B")
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {e["name"]: e for e in manifest["end_to_end"] + manifest["per_layer"]}
    base, change = _values(_runs(args.base)), _values(_runs(args.change))
    regressions = 0
    print(
        f"{'workload':16s} {'metric':28s} {'A median [q1, q3] n':>40s} "
        f"{'B median [q1, q3] n':>40s} {'B/A':>8s}  verdict"
    )
    for key in sorted(set(base) & set(change)):
        workload, metric = key
        entry = declared.get(metric)
        if entry is None:
            continue
        a, b = _quartiles(base[key]), _quartiles(change[key])
        if a[1] == 0.0 and b[1] == 0.0:
            continue  # a layer this workload does not exercise
        verdict = _verdict(a, b, entry["better"] == "lower", entry.get("bound", 0.0))
        if verdict == "worse" and "bound" in entry:
            regressions += 1
        ratio = f"{b[1] / a[1]:.3f}" if a[1] else "-"
        print(
            f"{workload:16s} {metric:28s} {_cell(a, len(base[key])):>40s} "
            f"{_cell(b, len(change[key])):>40s} {ratio:>8s}  {verdict}"
        )
    return 1 if regressions else 0
