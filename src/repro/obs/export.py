"""Versioned, JSON-safe documents for runs, batches, ledgers, and traces.

Three document schemas, each carrying a ``schema`` name and integer
``version``:

* ``dstress.obs.run`` — one :class:`RunResult`, optionally with the
  trace recorder that watched it;
* ``dstress.obs.batch`` — one :class:`BatchResult`, optionally with the
  accountant's audit ledger;
* ``dstress.obs.timeline`` — a merged multi-party cluster trace (built
  by :mod:`repro.obs.merge`).

The schemas are **append-only**: new optional fields may be added in
later versions, but existing fields are never renamed, retyped, or
removed — dashboards built against version 1 keep working forever.

The run document is also **the** serialization of a :class:`RunResult`
(:data:`RUN_FIELDS`, :func:`encode_run_fields`, :func:`run_from_doc`):
the disk cache entry, the cache-tier payload, the service response and
the cluster summary are that document or a key projection of it. Both
directions whitelist — anything outside the table's types, or a
non-finite float, is a :class:`~repro.exceptions.ResultFormatError` — and
decoding builds ``RunResult``, ``TrafficMeter``, ``NodeStats``,
``PhaseTimer`` and ``ReleaseRecord`` and nothing else, so a document from
a socket or a shared directory is data, never code.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ResultFormatError

RUN_SCHEMA = "dstress.obs.run"
BATCH_SCHEMA = "dstress.obs.batch"
TIMELINE_SCHEMA = "dstress.obs.timeline"
SCHEMA_VERSION = 1

__all__ = [
    "RUN_SCHEMA",
    "BATCH_SCHEMA",
    "TIMELINE_SCHEMA",
    "SCHEMA_VERSION",
    "RUN_FIELDS",
    "encode_run_fields",
    "run_to_doc",
    "run_from_doc",
    "export_run",
    "export_batch",
    "export_ledger",
    "export_recorder",
    "export_traffic",
    "validate_export",
]

#: ``codec(value, where)`` returns the checked value or raises
#: :class:`ResultFormatError` naming ``where`` in the document it failed.
#: The result classes live in layers that import ``repro.obs`` (clock,
#: tracer), so the decoders that build them import them when called.
Codec = Callable[[Any, str], Any]


def _is(kind: Any, expected: str) -> Codec:
    def codec(value: Any, where: str) -> Any:
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ResultFormatError(
                f"{where}: expected {expected}, got {type(value).__name__}"
            )
        return value

    return codec


_string, _integer = _is(str, "a string"), _is(int, "an integer")
_real, _list, _dict = _is((int, float), "a number"), _is(list, "a list"), _is(dict, "an object")
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]{0,17}")


def _number(value: Any, where: str) -> Any:
    if isinstance(_real(value, where), float) and not math.isfinite(value):
        raise ResultFormatError(f"{where}: non-finite float {value!r}")
    return value


def _to_int_key(key: Any, where: str) -> str:
    return str(_integer(key, where))


def _from_int_key(key: Any, where: str) -> int:
    if not _CANONICAL_INT.fullmatch(_string(key, where)):
        raise ResultFormatError(f"{where}: key {key!r} is not an integer")
    return int(key)


def _optional(inner: Codec) -> Codec:
    return lambda value, where: None if value is None else inner(value, where)


def _list_of(inner: Codec) -> Codec:
    return lambda value, where: [
        inner(item, f"{where}[{i}]") for i, item in enumerate(_list(value, where))
    ]


def _map_of(inner: Codec, key: Codec = _string) -> Codec:
    return lambda value, where: {
        key(k, where): inner(item, f"{where}.{k}")
        for k, item in _dict(value, where).items()
    }


def _record(**spec: Codec) -> Codec:
    """An object with exactly the keys of ``spec``, emitted in its order."""

    def codec(value: Any, where: str) -> Dict[str, Any]:
        if _dict(value, where).keys() != spec.keys():
            raise ResultFormatError(f"{where}: expected the keys {sorted(spec)}")
        return {key: inner(value[key], f"{where}.{key}") for key, inner in spec.items()}

    return codec


_NUMBERS = _map_of(_number)
_NODE = _record(
    bytes_sent=_number,
    bytes_received=_number,
    exponentiations=_integer,
    ot_transfers=_integer,
    gmw_evaluations=_integer,
)
_RELEASE = _record(
    window=_integer,
    rounds=_integer,
    end=_integer,
    value=_number,
    pre_noise=_number,
    noise_raw=_optional(_integer),
    epsilon=_number,
)


def _link(value: Any, where: str) -> List[Any]:
    if len(_list(value, where)) != 3:
        raise ResultFormatError(f"{where}: expected a [src, dst, bytes] triple")
    src, dst, nbytes = value
    return [_integer(src, where), _integer(dst, where), _number(nbytes, where)]


_LINKS = _list_of(_link)
_ENCODE_NODES = _map_of(lambda stats, where: _NODE(vars(stats), where), _to_int_key)
_TRAFFIC = _record(
    nodes=_map_of(_NODE, _from_int_key), links=_LINKS, total_bytes_sent=_number
)


def export_traffic(traffic: Any, where: str = "traffic") -> Optional[Dict[str, Any]]:
    """TrafficMeter -> JSON-safe dict. Nodes and links keep the meter's
    own first-seen order — its totals are float sums over that order, so
    a decoded meter must iterate as the metered one did; links are
    ``[src, dst, bytes]`` triples because JSON objects can't key on tuples."""
    if traffic is None:
        return None
    links = [[src, dst, nbytes] for (src, dst), nbytes in traffic.links().items()]
    return {
        "nodes": _ENCODE_NODES(traffic.nodes(), f"{where}.nodes"),
        "links": _LINKS(links, f"{where}.links"),
        "total_bytes_sent": _number(traffic.total_bytes_sent, where),
    }


def _decode_traffic(doc: Any, where: str) -> Any:
    from repro.simulation.netsim import NodeStats, TrafficMeter

    body = _TRAFFIC(doc, where)
    links = {(src, dst): nbytes for src, dst, nbytes in body["links"]}
    if len(links) != len(body["links"]):
        raise ResultFormatError(f"{where}.links: a link appears twice")
    nodes = {node_id: NodeStats(**stats) for node_id, stats in body["nodes"].items()}
    return TrafficMeter(nodes, links)


def _decode_phases(doc: Any, where: str) -> Any:
    from repro.simulation.netsim import PhaseTimer

    return PhaseTimer(seconds=_NUMBERS(doc, where))


def _decode_release(doc: Any, where: str) -> Any:
    from repro.core.lifecycle import ReleaseRecord

    return ReleaseRecord(**_RELEASE(doc, where))


def _both(codec: Codec) -> Tuple[Codec, Codec]:
    """A field that is already JSON: one check serves both directions."""
    return codec, codec


#: The one field table: ``name -> (encode, decode)`` for every
#: :class:`RunResult` field, in document order.
RUN_FIELDS: Dict[str, Tuple[Codec, Codec]] = {
    "engine": _both(_string),
    "program": _both(_string),
    "aggregate": _both(_number),
    "pre_noise_aggregate": _both(_optional(_number)),
    "noise_raw": _both(_optional(_integer)),
    "epsilon": _both(_optional(_number)),
    "iterations": _both(_integer),
    "wall_seconds": _both(_number),
    "trajectory": _both(_list_of(_number)),
    "extras": _both(_NUMBERS),
    "phases": (
        _optional(lambda phases, where: _NUMBERS(phases.seconds, where)),
        _optional(_decode_phases),
    ),
    "traffic": (export_traffic, _optional(_decode_traffic)),
    "final_states": (
        _optional(_map_of(_NUMBERS, _to_int_key)),
        _optional(_map_of(_NUMBERS, _from_int_key)),
    ),
    "releases": (
        _list_of(lambda record, where: _RELEASE(vars(record), where)),
        _optional(_list_of(_decode_release)),
    ),
}


def encode_run_fields(
    result: Any, names: Sequence[str] = tuple(RUN_FIELDS)
) -> Dict[str, Any]:
    """The named fields of ``result`` as JSON-safe values, in ``names``
    order — the one RunResult encoder. ``releases`` is left out while
    there are none (non-releasing engines), as it always was."""
    fields: Dict[str, Any] = {}
    try:
        for name in names:
            value = getattr(result, name)
            if name != "releases" or value:
                fields[name] = RUN_FIELDS[name][0](value, name)
    except (AttributeError, TypeError) as exc:
        # vars()/attribute access on an object that is not one of ours
        raise ResultFormatError(f"{name}: not a RunResult-shaped value: {exc}") from exc
    return fields


def run_to_doc(result: Any) -> Dict[str, Any]:
    """One RunResult -> its ``dstress.obs.run`` document."""
    return {"schema": RUN_SCHEMA, "version": SCHEMA_VERSION, **encode_run_fields(result)}


def run_from_doc(doc: Any) -> Any:
    """A ``dstress.obs.run`` document -> the RunResult it describes.
    Reads exactly what :func:`run_to_doc` writes (an export's ``trace`` is
    not part of the result: drop it first); a foreign schema or version,
    an unknown field or a wrong type raises :class:`ResultFormatError`."""
    from repro.api.result import RunResult

    fields = dict(_dict(doc, "run document"))
    if fields.pop("schema", None) != RUN_SCHEMA:
        raise ResultFormatError(f"unknown schema {doc.get('schema')!r}")
    if _integer(fields.pop("version", None), "version") != SCHEMA_VERSION:
        raise ResultFormatError(f"unsupported version {doc['version']}")
    unknown = [name for name in fields if name not in RUN_FIELDS]
    if unknown:
        raise ResultFormatError(f"unknown fields {unknown!r}")
    decoded = {name: RUN_FIELDS[name][1](value, name) for name, value in fields.items()}
    try:
        return RunResult(**decoded)
    except TypeError as exc:  # a field without a default is missing
        raise ResultFormatError(f"run document: {exc}") from None


def export_recorder(recorder: Any) -> Optional[Dict[str, Any]]:
    """TraceRecorder -> JSON-safe spans + metrics dict."""
    if recorder is None or not getattr(recorder, "enabled", False):
        return None
    return {
        "party": recorder.party,
        "spans": [span.to_dict() for span in recorder.spans],
        "metrics": recorder.metrics.as_dict(),
    }


def export_run(result: Any, recorder: Any = None) -> Dict[str, Any]:
    """The run's document plus the trace that watched it."""
    doc = run_to_doc(result)
    doc["trace"] = export_recorder(recorder)
    return doc


def export_ledger(accountant: Any) -> Optional[Dict[str, Any]]:
    """PrivacyAccountant -> its audit ledger plus a reconciliation."""
    if accountant is None:
        return None
    reconciliation = accountant.reconcile()
    return {
        "epsilon_max": accountant.epsilon_max,
        "period": accountant.period,
        "spent": accountant.spent,
        "entries": [entry.to_dict() for entry in accountant.ledger],
        "reconciliation": {
            "ok": reconciliation.ok,
            "ledger_spent": reconciliation.ledger_spent,
            "accounted_spent": reconciliation.accounted_spent,
            "outstanding": reconciliation.outstanding,
            "issues": list(reconciliation.issues),
        },
    }


def export_batch(batch: Any, accountant: Any = None) -> Dict[str, Any]:
    """One BatchResult -> a ``dstress.obs.batch`` document."""
    outcomes = []
    for outcome in batch.outcomes:
        entry: Dict[str, Any] = {
            "name": outcome.name,
            "ok": outcome.ok,
            "error": outcome.error,
            "seconds": outcome.seconds,
            "cached": outcome.cached,
        }
        if outcome.result is not None:
            entry["engine"] = outcome.result.engine
            entry["aggregate"] = outcome.result.aggregate
            entry["epsilon"] = outcome.result.epsilon
        outcomes.append(entry)
    return {
        "schema": BATCH_SCHEMA,
        "version": SCHEMA_VERSION,
        "wall_seconds": batch.wall_seconds,
        "workers": batch.workers,
        "epsilon_charged": batch.epsilon_charged,
        "cache_hits": batch.cache_hits,
        "cache_misses": batch.cache_misses,
        "outcomes": outcomes,
        "ledger": export_ledger(accountant),
    }


def _issue(issues: List[str], condition: bool, message: str) -> None:
    if not condition:
        issues.append(message)


def _check_spans(spans: Any, where: str, issues: List[str]) -> None:
    if not isinstance(spans, list):
        issues.append(f"{where}: spans must be a list")
        return
    ids = set()
    for i, span in enumerate(spans):
        if not isinstance(span, dict):
            issues.append(f"{where}: span[{i}] is not an object")
            continue
        for key in ("span_id", "name", "start"):
            if key not in span:
                issues.append(f"{where}: span[{i}] missing {key!r}")
        if "span_id" in span:
            ids.add(span["span_id"])
        end = span.get("end")
        if end is not None and "start" in span and end < span["start"]:
            issues.append(f"{where}: span[{i}] ends before it starts")
    for i, span in enumerate(spans):
        parent = isinstance(span, dict) and span.get("parent_id")
        if parent and parent not in ids:
            issues.append(f"{where}: span[{i}] has unknown parent {parent}")


def validate_export(payload: Any) -> List[str]:
    """Hand-rolled schema check; returns a list of problems (empty = ok)."""
    issues: List[str] = []
    if not isinstance(payload, dict):
        return ["document must be a JSON object"]
    schema = payload.get("schema")
    version = payload.get("version")
    if schema not in (RUN_SCHEMA, BATCH_SCHEMA, TIMELINE_SCHEMA):
        return [f"unknown schema {schema!r}"]
    if not isinstance(version, int) or version < 1:
        issues.append(f"version must be a positive integer, got {version!r}")

    if schema == RUN_SCHEMA:
        try:
            run_from_doc({k: v for k, v in payload.items() if k != "trace"})
        except ResultFormatError as exc:
            issues.append(f"run document: {exc}")
        trace = payload.get("trace")
        if trace is not None:
            if not isinstance(trace, dict):
                issues.append("trace must be an object or null")
            else:
                _check_spans(trace.get("spans", []), "trace", issues)
    elif schema == BATCH_SCHEMA:
        for key in ("wall_seconds", "workers", "epsilon_charged", "outcomes"):
            _issue(issues, key in payload, f"batch document missing {key!r}")
        outcomes = payload.get("outcomes", [])
        if not isinstance(outcomes, list):
            issues.append("outcomes must be a list")
            outcomes = []
        for i, outcome in enumerate(outcomes):
            if not isinstance(outcome, dict) or "name" not in outcome:
                issues.append(f"outcomes[{i}] must be an object with a name")
        ledger = payload.get("ledger")
        if ledger is not None:
            if not isinstance(ledger, dict) or "entries" not in ledger:
                issues.append("ledger must be an object with entries")
            else:
                reconciliation = ledger.get("reconciliation", {})
                if not reconciliation.get("ok", False):
                    problems = reconciliation.get("issues", ["no reconciliation"])
                    issues.extend(f"ledger: {p}" for p in problems)
    elif schema == TIMELINE_SCHEMA:
        for key in ("parties", "entries"):
            _issue(issues, key in payload, f"timeline document missing {key!r}")
        entries = payload.get("entries", [])
        if not isinstance(entries, list):
            issues.append("entries must be a list")
            entries = []
        previous = None
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                issues.append(f"entries[{i}] must be an object")
                continue
            for key in ("round", "party", "start", "end"):
                if key not in entry:
                    issues.append(f"entries[{i}] missing {key!r}")
            if previous is not None and "round" in entry and "party" in entry:
                if (entry["round"], entry["party"]) < previous:
                    issues.append(
                        f"entries[{i}] breaks (round, party) ordering"
                    )
            if "round" in entry and "party" in entry:
                previous = (entry["round"], entry["party"])
    return issues
