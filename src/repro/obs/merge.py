"""Cross-process trace collection: party run exports and the merged timeline.

Each party process in :func:`repro.net.cluster.run_scenario_cluster`
records its own :class:`~repro.obs.trace.TraceRecorder` and — after its
engine run completes, so no trace I/O interleaves with the protocol —
writes its run export (``party-<id>.json``: the run's ``dstress.obs.run``
document with the party's spans and metrics as its ``trace``). The
harness then merges the exports into a single ``dstress.obs.timeline``
document.

Clocks are per-process monotonic counters with unrelated origins, so the
merge never compares raw timestamps *across* parties. The causal order
it can assert is exactly what the round-synchronous protocol guarantees:
spans are totally ordered **within** a party (one process, one monotonic
clock) and round-**monotonic** across parties (round r+1 cannot start
anywhere before round r's messages exist somewhere). The timeline
therefore sorts by ``(round, party)`` — the key the property tests pin.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.exceptions import ResultFormatError
from repro.obs.export import RUN_SCHEMA, SCHEMA_VERSION, TIMELINE_SCHEMA, validate_export

__all__ = [
    "load_trace_shard",
    "merge_shards",
    "merge_cluster_trace",
]


def load_trace_shard(path) -> Dict[str, Any]:
    """Read one party's run export and check it: a valid ``dstress.obs.run``
    document whose ``trace.party`` is an integer. Anything else — bytes
    that are not JSON, a foreign schema, a mistyped field, an untraced
    run — raises :class:`~repro.exceptions.ResultFormatError`."""
    try:
        doc = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:
        raise ResultFormatError(f"{path}: not a JSON document: {exc}") from None
    issues = validate_export(doc)
    if issues:
        raise ResultFormatError(f"{path}: " + "; ".join(issues))
    party = (doc.get("trace") or {}).get("party")
    if doc["schema"] != RUN_SCHEMA or not isinstance(party, int):
        raise ResultFormatError(f"{path}: not a traced party's run export")
    return doc


def span_round(span: Dict[str, Any]) -> Optional[int]:
    """The ``round`` attr of an exported span, or None if it has none
    that reads as an integer."""
    value = (span.get("attrs") or {}).get("round")
    if value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        return None


def merge_shards(shards: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge party run exports (as :func:`load_trace_shard` returns them)
    into one ``dstress.obs.timeline`` document.

    Timeline entries aggregate each party's spans per round: entry
    ``(round, party)`` covers every span carrying that ``round`` attr
    (min start, max end, span count). Entries are sorted by
    ``(round, party)`` — the causal order the protocol guarantees.
    """
    parties: List[int] = []
    entries: Dict[Any, Dict[str, Any]] = {}
    traffic: Dict[str, Any] = {}
    metrics: Dict[str, Any] = {}
    for doc in shards:
        trace = doc["trace"]
        party = trace["party"]
        parties.append(party)
        if doc["traffic"] is not None:
            traffic[str(party)] = doc["traffic"]
        metrics[str(party)] = trace["metrics"]
        for span in trace["spans"]:
            round_index = span_round(span)
            if round_index is None:
                continue
            key = (round_index, party)
            end = span["start"] if span.get("end") is None else span["end"]
            entry = entries.get(key)
            if entry is None:
                entries[key] = {
                    "round": round_index,
                    "party": party,
                    "start": span["start"],
                    "end": end,
                    "spans": 1,
                }
            else:
                entry["start"] = min(entry["start"], span["start"])
                entry["end"] = max(entry["end"], end)
                entry["spans"] += 1
    return {
        "schema": TIMELINE_SCHEMA,
        "version": SCHEMA_VERSION,
        "parties": sorted(parties),
        "entries": [entries[key] for key in sorted(entries)],
        "traffic": traffic,
        "metrics": metrics,
    }


def merge_cluster_trace(trace_dir) -> Dict[str, Any]:
    """Merge every ``party-*.json`` export under ``trace_dir`` and write
    the result next to them as ``timeline.json``. A shard that cannot be
    read or does not check (a party that died mid-write, a stray file) is
    left out of the timeline: its party is missing from ``parties``."""
    trace_dir = Path(trace_dir)
    shards: List[Dict[str, Any]] = []
    for path in sorted(trace_dir.glob("party-*.json")):
        try:
            shards.append(load_trace_shard(path))
        except (OSError, ResultFormatError):
            continue
    timeline = merge_shards(shards)
    (trace_dir / "timeline.json").write_text(json.dumps(timeline, indent=2) + "\n")
    return timeline
