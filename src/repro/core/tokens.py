"""Stable, content-based tokens: the one rule for what may key a cache.

Both caches in the repository — the scenario result cache
(:func:`repro.api.cache.run_fingerprint`) and the compiled-circuit table
(:func:`repro.core.program.compiled_update_circuit`) — key on the same
tokens, so "these two programs are the same program" has one definition.
A value without a stable token makes its owner *uncacheable*, never
wrongly shared: a cache must only ever err toward a miss.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.core.graph import DistributedGraph
from repro.crypto.group import CyclicGroup

__all__ = ["Unfingerprintable", "stable_token"]


class Unfingerprintable(Exception):
    """A value has no stable content token; whatever it keys is uncacheable."""


def stable_token(value: Any) -> Any:
    """A stable, content-based token for ``value`` (or raise).

    Scalars tokenize as themselves; containers recurse; dataclasses
    recurse over their fields; a :class:`CyclicGroup` is identified by its
    name and order (the singletons carry no other run-relevant state).
    Unknown object types raise — identity-based ``repr`` strings are not
    stable across processes and must never silently key a cache hit.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return (type(value).__name__, value)
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(stable_token(item) for item in value))
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(stable_token(item) for item in value)))
    if isinstance(value, dict):
        return (
            "map",
            tuple(sorted((stable_token(k), stable_token(v)) for k, v in value.items())),
        )
    if isinstance(value, CyclicGroup):
        return ("group", value.name, value.order)
    if isinstance(value, DistributedGraph):
        return (
            "graph",
            value.degree_bound,
            tuple(
                (
                    view.vertex_id,
                    stable_token(view.data),
                    tuple(view.out_neighbors),
                    tuple(view.in_neighbors),
                )
                for view in value.vertices()
            ),
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            "dc:" + type(value).__name__,
            tuple(
                (f.name, stable_token(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    raise Unfingerprintable(type(value).__name__)
