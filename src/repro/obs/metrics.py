"""A namespaced metrics registry plus absorbers for the two telemetry
sources that have no other home.

The registry is deliberately small: counters (monotonic sums), gauges
(last-write-wins), and histograms (count/sum/min/max). Keys are
``name{label=value,...}`` with labels sorted, so two code paths emitting
the same logical series always collide onto one entry.

:func:`absorb_gmw` and :func:`absorb_cache` copy GMW ``pair_bits`` and
scenario-cache counters into series under the names documented in
README.md. A run's phases, traffic, extras, wall-clock and iteration
count are not copied: the run export carries them, and phase spans
carry the timings.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple


def _key(name: str, labels: Mapping[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by name + sorted labels."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self.gauges[_key(name, labels)] = float(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _key(name, labels)
        hist = self.histograms.get(key)
        value = float(value)
        if hist is None:
            self.histograms[key] = {"count": 1.0, "sum": value, "min": value, "max": value}
            return
        hist["count"] += 1.0
        hist["sum"] += value
        hist["min"] = min(hist["min"], value)
        hist["max"] = max(hist["max"], value)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def merge(self, other: "MetricsRegistry") -> None:
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        self.gauges.update(other.gauges)
        for key, hist in other.histograms.items():
            mine = self.histograms.get(key)
            if mine is None:
                self.histograms[key] = dict(hist)
                continue
            mine["count"] += hist["count"]
            mine["sum"] += hist["sum"]
            mine["min"] = min(mine["min"], hist["min"])
            mine["max"] = max(mine["max"], hist["max"])


def absorb_gmw(registry: MetricsRegistry, pair_bits: Mapping[Tuple[int, int], Any]) -> None:
    """GMW per-pair bit counts -> ``gmw.pair_bits{src=,dst=}`` counters."""
    for (src, dst), bits in pair_bits.items():
        registry.inc("gmw.pair_bits", float(bits), src=src, dst=dst)


def absorb_cache(registry: MetricsRegistry, cache: Any) -> None:
    """Scenario-cache counters -> ``cache.*`` gauges (tiered caches expose
    eviction/rejection counts; the in-memory tier has only hits/misses)."""
    if cache is None:
        return
    registry.set_gauge("cache.hits", float(getattr(cache, "hits", 0)))
    registry.set_gauge("cache.misses", float(getattr(cache, "misses", 0)))
    for attr in ("evictions", "evicted_bytes", "rejections"):
        value = getattr(cache, attr, None)
        if value is not None:
            registry.set_gauge(f"cache.{attr}", float(value))

