"""Render exported telemetry documents: ``python -m repro.obs.report``.

Accepts any document produced by :mod:`repro.obs.export` or
:mod:`repro.obs.merge` — a run export, a batch export, or a merged
cluster timeline — and renders the round timeline, per-link traffic
table, phase breakdown, and ledger summary as plain text.

``--check`` validates instead of rendering: the document must pass
:func:`~repro.obs.export.validate_export` (which, for batch documents
with an embedded ledger, includes the ledger reconciliation invariant).
Exit status 1 on any failure — this is the CI smoke gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.obs.export import (
    BATCH_SCHEMA,
    RUN_SCHEMA,
    TIMELINE_SCHEMA,
    validate_export,
)

__all__ = ["main", "render"]


def _table(headers: List[str], rows: List[List[Any]]) -> List[str]:
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return lines


def _render_traffic(traffic: Dict[str, Any], out: List[str]) -> None:
    links = traffic.get("links") or []
    out.append("")
    out.append(f"Per-link traffic ({len(links)} directed links, "
               f"{traffic.get('total_bytes_sent', 0.0):.0f} bytes total):")
    rows = [[src, dst, f"{nbytes:.0f}"] for src, dst, nbytes in links]
    out.extend(_table(["src", "dst", "bytes"], rows))


def _render_phases(phases: Dict[str, float], out: List[str]) -> None:
    out.append("")
    out.append("Phase breakdown:")
    # the stage:* envelopes partition a lifecycle run and the engine
    # phases nest inside them, so only the stages sum to the run's time
    stages = [seconds for name, seconds in phases.items() if name.startswith("stage:")]
    total = sum(stages or phases.values()) or 1.0
    rows = [
        [name, f"{seconds:.4f}", f"{seconds / total:.1%}"]
        for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1])
    ]
    out.extend(_table(["phase", "seconds", "share"], rows))


def _render_round_timeline(spans: List[Dict[str, Any]], out: List[str]) -> None:
    rounds: Dict[int, Dict[str, Any]] = {}
    for span in spans:
        attrs = span.get("attrs") or {}
        if "round" not in attrs:
            continue
        index = int(attrs["round"])
        end = span.get("end") or span["start"]
        slot = rounds.setdefault(
            index, {"start": span["start"], "end": end, "spans": 0}
        )
        slot["start"] = min(slot["start"], span["start"])
        slot["end"] = max(slot["end"], end)
        slot["spans"] += 1
    if not rounds:
        return
    out.append("")
    out.append("Round timeline:")
    rows = [
        [index, f"{slot['start']:.4f}", f"{slot['end']:.4f}",
         f"{slot['end'] - slot['start']:.4f}", slot["spans"]]
        for index, slot in sorted(rounds.items())
    ]
    out.extend(_table(["round", "start", "end", "duration", "spans"], rows))


def _render_tables(counters: Dict[str, float], out: List[str]) -> None:
    """The build-once tables the traced run touched (``mpc.plan``: compiled
    circuits, ``core.setup``: §3.4 deployments): built here vs. found."""
    tables = sorted(
        {name.rsplit(".", 1)[0] for name in counters if name.endswith((".builds", ".hits"))}
    )
    if not tables:
        return
    out.append("")
    out.append("Build-once tables:")
    rows = [
        [table, *(int(counters.get(f"{table}.{event}", 0)) for event in ("builds", "hits"))]
        for table in tables
    ]
    out.extend(_table(["table", "built", "found"], rows))


def _render_ledger(ledger: Dict[str, Any], out: List[str]) -> None:
    out.append("")
    reconciliation = ledger.get("reconciliation", {})
    verdict = "reconciles" if reconciliation.get("ok") else "DOES NOT RECONCILE"
    out.append(
        f"Budget ledger: {len(ledger.get('entries', []))} entries, "
        f"spent {ledger.get('spent', 0.0):.4g} of "
        f"{ledger.get('epsilon_max', 0.0):.4g} "
        f"(period {ledger.get('period', 0)}) — {verdict}"
    )
    rows = [
        [e["seq"], e["kind"], e["label"], f"{e['epsilon']:.4g}", e["period"],
         (e.get("fingerprint") or "")[:12]]
        for e in ledger.get("entries", [])
    ]
    if rows:
        out.extend(_table(["seq", "kind", "label", "epsilon", "period", "fingerprint"], rows))
    for issue in reconciliation.get("issues", []):
        out.append(f"  issue: {issue}")


def render(payload: Dict[str, Any]) -> str:
    out: List[str] = []
    schema = payload.get("schema")
    if schema == RUN_SCHEMA:
        out.append(
            f"Run export: {payload.get('program')} via {payload.get('engine')} — "
            f"aggregate={payload.get('aggregate'):.4f}, "
            f"iterations={payload.get('iterations')}, "
            f"wall={payload.get('wall_seconds'):.2f}s"
        )
        if payload.get("epsilon") is not None:
            out.append(f"Released under epsilon={payload['epsilon']:g}")
        trace = payload.get("trace")
        if trace:
            _render_round_timeline(trace.get("spans", []), out)
            _render_tables((trace.get("metrics") or {}).get("counters", {}), out)
        if payload.get("phases"):
            _render_phases(payload["phases"], out)
        if payload.get("traffic"):
            _render_traffic(payload["traffic"], out)
    elif schema == BATCH_SCHEMA:
        outcomes = payload.get("outcomes", [])
        ok = sum(1 for o in outcomes if o.get("ok"))
        out.append(
            f"Batch export: {ok}/{len(outcomes)} scenarios ok, "
            f"workers={payload.get('workers')}, "
            f"epsilon_charged={payload.get('epsilon_charged'):.4g}, "
            f"cache={payload.get('cache_hits', 0)}h/{payload.get('cache_misses', 0)}m"
        )
        rows = [
            [o["name"], "ok" if o.get("ok") else "FAILED",
             "cached" if o.get("cached") else "ran", f"{o.get('seconds', 0.0):.3f}s"]
            for o in outcomes
        ]
        out.extend(_table(["scenario", "status", "source", "seconds"], rows))
        if payload.get("ledger"):
            _render_ledger(payload["ledger"], out)
    elif schema == TIMELINE_SCHEMA:
        out.append(
            f"Cluster timeline: parties {payload.get('parties')} — "
            f"{len(payload.get('entries', []))} (round, party) entries"
        )
        rows = [
            [e["round"], e["party"], f"{e['start']:.4f}", f"{e['end']:.4f}", e["spans"]]
            for e in payload.get("entries", [])
        ]
        out.extend(_table(["round", "party", "start", "end", "spans"], rows))
        for party, traffic in sorted(payload.get("traffic", {}).items()):
            out.append("")
            out.append(f"Party {party}:")
            _render_traffic(traffic, out)
    else:
        out.append(f"unknown schema {schema!r}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__
    )
    parser.add_argument("files", nargs="+", type=Path,
                        help="exported JSON document(s) to render")
    parser.add_argument("--check", action="store_true",
                        help="validate the schema + ledger reconciliation "
                             "instead of rendering; exit 1 on any failure")
    args = parser.parse_args(argv)

    failures = 0
    for path in args.files:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)
            failures += 1
            continue
        if args.check:
            issues = validate_export(payload)
            if issues:
                failures += 1
                print(f"{path}: INVALID")
                for issue in issues:
                    print(f"  - {issue}")
            else:
                print(f"{path}: ok ({payload.get('schema')} v{payload.get('version')})")
        else:
            try:
                print(render(payload))
                print()
            except BrokenPipeError:
                # downstream pager/head closed the pipe; that's its call
                return 1 if failures else 0
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
