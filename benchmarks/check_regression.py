"""The CI benchmark-regression guard.

CI reruns the smoke benchmarks (under ``REPRO_BENCH_SMOKE=1``) on every
push with ``--benchmark-json``, and this script compares the fresh means
against the committed ``BENCH_BASELINE.json``: a benchmark more than
``--threshold`` (default 30%) slower than its baseline fails the build,
and every comparison lands as a markdown delta table in
``$GITHUB_STEP_SUMMARY`` (or stdout when unset).

A committed wall-clock mean is only worth gating when scheduling, not
machine speed, dominates it — a benchmark that sleeps simulated link
delays, where a lost overlap moves the number by integer factors. The
two that did (the async and secure-async overlap-vs-sequential WAN
runs) are now tier-1 same-run ratio tests (``tests/test_async_overlap.py``),
so the baseline currently lists no mean: every smoke benchmark reports
as "NEW (no baseline)" or "volatile", and the ratio guard below is the
gate.

Compute-bound benchmarks (the bit-sliced GMW throughput pair in
``bench_bitslice.py``) cannot be gated on a committed wall-clock mean —
CI machine speed would dominate. They are guarded as **ratios** instead:
the baseline's ``ratios`` section names a fast/slow benchmark pair and a
minimum speedup, and both means come from the *same* run on the *same*
machine, so the quotient is portable. Benchmarks listed in the
baseline's ``volatile`` list are exempt from the mean comparison (and
from ``--write-baseline``) precisely because a ratio entry covers them.

Usage::

    # refresh the committed baseline (run on the reference machine):
    python benchmarks/check_regression.py --write-baseline \
        --results bench_results.json --baseline BENCH_BASELINE.json

    # gate a CI run:
    python benchmarks/check_regression.py --check \
        --results bench_results.json --baseline BENCH_BASELINE.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict

DEFAULT_THRESHOLD = 0.30


def load_result_means(results_path: Path) -> Dict[str, float]:
    """Benchmark name -> mean seconds, from a pytest-benchmark JSON file."""
    with results_path.open() as handle:
        payload = json.load(handle)
    means = {}
    for bench in payload.get("benchmarks", []):
        means[bench["name"]] = float(bench["stats"]["mean"])
    if not means:
        raise SystemExit(f"no benchmarks found in {results_path}")
    return means


def write_baseline(means: Dict[str, float], baseline_path: Path) -> None:
    """Rewrite the mean entries; carry the machine-portable sections
    (``ratios``, ``volatile``) over from the existing baseline and keep
    volatile benchmarks out of the mean table."""
    existing = {}
    if baseline_path.exists():
        with baseline_path.open() as handle:
            existing = json.load(handle)
    volatile = list(existing.get("volatile", []))
    means = {name: mean for name, mean in means.items() if name not in volatile}
    baseline = {
        "comment": (
            "Smoke-benchmark means (seconds) the CI regression guard compares "
            "against; refresh with benchmarks/check_regression.py --write-baseline"
        ),
        "threshold": DEFAULT_THRESHOLD,
        "benchmarks": {name: {"mean": mean} for name, mean in sorted(means.items())},
    }
    if volatile:
        baseline["volatile"] = volatile
    if existing.get("ratios"):
        baseline["ratios"] = existing["ratios"]
    baseline_path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {len(means)} baseline entr{'y' if len(means) == 1 else 'ies'} to {baseline_path}")


def markdown_delta_table(rows) -> str:
    lines = [
        "## Benchmark regression guard",
        "",
        "| benchmark | baseline [s] | current [s] | delta | verdict |",
        "|---|---:|---:|---:|---|",
    ]
    for name, base, current, delta, verdict in rows:
        base_cell = f"{base:.4f}" if base is not None else "-"
        delta_cell = f"{delta:+.1%}" if delta is not None else "-"
        lines.append(f"| `{name}` | {base_cell} | {current:.4f} | {delta_cell} | {verdict} |")
    lines.append("")
    return "\n".join(lines)


def markdown_ratio_table(rows) -> str:
    lines = [
        "### Speedup ratio guard",
        "",
        "| ratio | slow / fast | required | measured | verdict |",
        "|---|---|---:|---:|---|",
    ]
    for name, pair, required, measured, verdict in rows:
        measured_cell = f"{measured:.1f}x" if measured is not None else "-"
        lines.append(
            f"| `{name}` | {pair} | >= {required:.1f}x | {measured_cell} | {verdict} |"
        )
    lines.append("")
    return "\n".join(lines)


def check_ratios(means: Dict[str, float], baseline: dict):
    """Same-run speedup guards: ``means[slow] / means[fast]`` must reach
    each entry's ``min_speedup``. Missing benchmarks fail loudly — a
    silently skipped guard is how a 5x claim rots."""
    rows = []
    failures = []
    for name, spec in sorted(baseline.get("ratios", {}).items()):
        fast, slow = spec["fast"], spec["slow"]
        required = float(spec["min_speedup"])
        pair = f"`{slow}` / `{fast}`"
        if fast not in means or slow not in means:
            missing = [b for b in (fast, slow) if b not in means]
            rows.append((name, pair, required, None, "MISSING from this run"))
            failures.append(f"{name}: benchmark(s) missing from results: {missing}")
            continue
        measured = means[slow] / means[fast]
        if measured < required:
            verdict = f"FAIL (< {required:.1f}x)"
            failures.append(
                f"{name}: speedup {measured:.2f}x below required {required:.1f}x"
            )
        else:
            verdict = "ok"
        rows.append((name, pair, required, measured, verdict))
    return rows, failures


def deltas_json(rows, ratio_rows, failures, threshold: float) -> dict:
    """The markdown tables' machine-readable twin: a versioned document
    downstream tooling can diff without scraping markdown."""
    return {
        "schema": "dstress.bench.deltas",
        "version": 1,
        "threshold": threshold,
        "benchmarks": [
            {
                "name": name,
                "baseline_mean": base,
                # a benchmark missing from this run carries NaN in the
                # markdown row; null is the JSON-safe spelling
                "current_mean": None if current != current else current,
                "delta": delta,
                "verdict": verdict,
            }
            for name, base, current, delta, verdict in rows
        ],
        "ratios": [
            {
                "name": name,
                "pair": pair,
                "min_speedup": required,
                "measured": measured,
                "verdict": verdict,
            }
            for name, pair, required, measured, verdict in ratio_rows
        ],
        "failures": list(failures),
        "ok": not failures,
    }


def check(
    means: Dict[str, float],
    baseline_path: Path,
    threshold: float,
    json_out: Path | None = None,
) -> int:
    with baseline_path.open() as handle:
        baseline = json.load(handle)
    base_means = {
        name: float(entry["mean"]) for name, entry in baseline["benchmarks"].items()
    }
    volatile = set(baseline.get("volatile", []))
    rows = []
    failures = []
    for name in sorted(set(means) | set(base_means)):
        current = means.get(name)
        base = base_means.get(name)
        if current is None:
            rows.append((name, base, float("nan"), None, "MISSING from this run"))
            failures.append(f"{name}: present in baseline but not in results")
            continue
        if name in volatile:
            # compute-bound on purpose: gated by a ratio entry, not a mean
            rows.append((name, None, current, None, "volatile (ratio-guarded)"))
            continue
        if base is None:
            # a new benchmark has no history to regress against: record it
            # so the next --write-baseline picks it up, but don't fail
            rows.append((name, None, current, None, "NEW (no baseline)"))
            continue
        delta = (current - base) / base
        if delta > threshold:
            verdict = f"FAIL (> {threshold:.0%} slower)"
            failures.append(f"{name}: {base:.4f}s -> {current:.4f}s ({delta:+.1%})")
        else:
            verdict = "ok"
        rows.append((name, base, current, delta, verdict))

    ratio_rows, ratio_failures = check_ratios(means, baseline)
    failures.extend(ratio_failures)

    table = markdown_delta_table(rows)
    if ratio_rows:
        table += "\n" + markdown_ratio_table(ratio_rows)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(table + "\n")
    print(table)
    if json_out is not None:
        json_out.write_text(
            json.dumps(deltas_json(rows, ratio_rows, failures, threshold), indent=2)
            + "\n"
        )
    if failures:
        print("benchmark regression guard FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"benchmark regression guard ok ({len(rows)} benchmarks within "
        f"{threshold:.0%}, {len(ratio_rows)} speedup ratio(s) held)"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", type=Path, required=True,
                        help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--baseline", type=Path, default=Path("BENCH_BASELINE.json"))
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="max tolerated slowdown fraction (default 0.30)")
    parser.add_argument("--json-out", type=Path, default=None,
                        help="also write the deltas as a machine-readable "
                             "dstress.bench.deltas JSON document (--check only)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare results against the baseline; exit 1 on regression")
    mode.add_argument("--write-baseline", action="store_true",
                      help="(re)write the baseline from the results")
    args = parser.parse_args()

    means = load_result_means(args.results)
    if args.write_baseline:
        write_baseline(means, args.baseline)
        return 0
    return check(means, args.baseline, args.threshold, json_out=args.json_out)


if __name__ == "__main__":
    raise SystemExit(main())
