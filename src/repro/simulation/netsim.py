"""Simulated deployment: per-node traffic and operation metering.

The real DStress runs one node per participant on a WAN; we run every node
in one process and *meter* what would have crossed the network. Meters are
deliberately dumb — they only add up what the protocol layers report — so
the numbers in the bandwidth figures are straight protocol arithmetic, not
wall-clock artifacts of the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "NodeStats",
    "SendPlan",
    "TrafficMeter",
    "PhaseTimer",
    "WanProjection",
    "meter_from_rounds",
    "project_wan_seconds",
]


@dataclass
class NodeStats:
    """Per-node counters for one run."""

    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    exponentiations: int = 0
    ot_transfers: int = 0
    gmw_evaluations: int = 0

    @property
    def total_bytes(self) -> float:
        return self.bytes_sent + self.bytes_received


class SendPlan:
    """A fixed list of point-to-point sends ``(src, dst, bytes)``, built
    once and replayed on a meter (:meth:`TrafficMeter.replay`): a protocol
    message whose shape never changes between steps is metered from its
    plan, not re-derived. ``links`` sums the bytes per directed link in
    first-seen order, as the sends themselves would."""

    __slots__ = ("sends", "links")

    def __init__(self, sends: Iterable[Tuple[int, int, float]]) -> None:
        self.sends = tuple(sends)
        links: Dict[Tuple[int, int], float] = {}
        for src, dst, num_bytes in self.sends:
            links[src, dst] = links.get((src, dst), 0.0) + num_bytes
        self.links = links


class TrafficMeter:
    """Aggregates :class:`NodeStats` across all simulated nodes.

    Beyond the historical per-node totals, every send is also attributed
    to its directed *link* ``(src, dst)`` — the granularity the simulated
    WAN transport schedules delays at — so link-level hot spots are
    inspectable (:meth:`link_bytes`, :attr:`num_links`).
    """

    def __init__(
        self,
        nodes: Optional[Dict[int, NodeStats]] = None,
        links: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> None:
        # a meter rebuilt from :meth:`nodes` and :meth:`links` keeps their
        # order: the totals below are float sums over it
        self._stats: Dict[int, NodeStats] = dict(nodes or {})
        self._links: Dict[Tuple[int, int], float] = dict(links or {})

    def copy(self) -> "TrafficMeter":
        """An independent meter: new :class:`NodeStats` and link table, in
        this meter's node and link order (the totals are float sums over it)."""
        return TrafficMeter(
            {node_id: replace(stats) for node_id, stats in self._stats.items()},
            self._links,
        )

    def node(self, node_id: int) -> NodeStats:
        if node_id not in self._stats:
            self._stats[node_id] = NodeStats()
        return self._stats[node_id]

    def nodes(self) -> Dict[int, NodeStats]:
        """All metered nodes in first-seen order (a shallow copy)."""
        return dict(self._stats)

    def record_send(self, src: int, dst: int, num_bytes: float) -> None:
        """A point-to-point message: bytes leave ``src`` and enter ``dst``."""
        self.node(src).bytes_sent += num_bytes
        self.node(dst).bytes_received += num_bytes
        self._links[(src, dst)] = self._links.get((src, dst), 0.0) + num_bytes

    def replay(self, plan: SendPlan) -> Dict[Tuple[int, int], float]:
        """Record ``plan``'s sends in order (node totals and links exactly as
        one :meth:`record_send` each); returns its per-link bytes, shared:
        read them, do not change them."""
        record_send = self.record_send
        for src, dst, num_bytes in plan.sends:
            record_send(src, dst, num_bytes)
        return plan.links

    def link_bytes(self, src: int, dst: int) -> float:
        """Total bytes carried by the directed link ``src -> dst``."""
        return self._links.get((src, dst), 0.0)

    def links(self) -> Dict[Tuple[int, int], float]:
        """All directed links with their carried bytes (a copy)."""
        return dict(self._links)

    @property
    def num_links(self) -> int:
        """Distinct directed links that carried at least one message."""
        return len(self._links)

    @property
    def node_ids(self) -> List[int]:
        return sorted(self._stats)

    @property
    def total_bytes_sent(self) -> float:
        return sum(s.bytes_sent for s in self._stats.values())

    def max_node_bytes_sent(self) -> float:
        return max((s.bytes_sent for s in self._stats.values()), default=0.0)

    def mean_node_bytes_sent(self) -> float:
        if not self._stats:
            return 0.0
        return self.total_bytes_sent / len(self._stats)

    def summary(self) -> Dict[str, float]:
        return {
            "nodes": len(self._stats),
            "total_bytes_sent": self.total_bytes_sent,
            "mean_node_bytes_sent": self.mean_node_bytes_sent(),
            "max_node_bytes_sent": self.max_node_bytes_sent(),
            "total_exponentiations": sum(s.exponentiations for s in self._stats.values()),
            "total_ot_transfers": sum(s.ot_transfers for s in self._stats.values()),
        }


def meter_from_rounds(graph, iterations: int, word_bytes: float) -> TrafficMeter:
    """The per-link meter of a round-synchronous run: the clear engines'
    only traffic record, on every bus.

    A round-synchronous protocol's byte profile is straight arithmetic —
    every directed edge of ``graph.routes()`` carries one fixed-point
    message per routed round, empty outboxes included (a silent edge
    still transmits framing in the deployment model) — so the meter is
    ``word_bytes * iterations`` on each link, whatever bus carried it.
    """
    per_link = word_bytes * iterations
    meter = TrafficMeter()
    for src, _, dst, _ in graph.routes():
        meter.record_send(src, dst, per_link)
    return meter


@dataclass(frozen=True)
class WanProjection:
    """What a metered run would cost on a WAN, from its per-link bytes.

    ``sequential_seconds`` is the straight-line deployment: every link's
    payload is waited for one after the other (one latency hit plus the
    serialization time per link). ``overlapped_seconds`` is the schedule
    the bus engines implement: all links run concurrently, but each
    *node's* egress is serialized (a NIC sends one byte at a time), so the
    bound is the busiest sender's total serialization time plus one
    latency. The gap between the two is the headroom the paper's §6
    communication-bound claim rests on.
    """

    sequential_seconds: float
    overlapped_seconds: float
    total_bytes: float
    num_links: int

    @property
    def overlap_speedup(self) -> float:
        if self.overlapped_seconds <= 0.0:
            return 1.0
        return self.sequential_seconds / self.overlapped_seconds


def project_wan_seconds(
    meter: TrafficMeter,
    latency_seconds: float,
    bandwidth_bytes: Optional[float] = None,
) -> WanProjection:
    """Project a metered run's wire time onto a WAN model.

    Feeds on the meter's per-link attribution — which, since the secure
    engine meters GMW traffic pairwise, includes every OT-extension byte —
    so the projection covers the crypto traffic that dominates §6, not
    just the round messages. ``bandwidth_bytes=None`` models unconstrained
    links (latency only).
    """
    if latency_seconds < 0:
        raise ValueError("latency cannot be negative")
    if bandwidth_bytes is not None and bandwidth_bytes <= 0:
        raise ValueError("bandwidth must be positive (or None)")
    links = meter.links()
    total_bytes = sum(links.values())

    def serialization(num_bytes: float) -> float:
        return 0.0 if bandwidth_bytes is None else num_bytes / bandwidth_bytes

    sequential = sum(latency_seconds + serialization(b) for b in links.values())
    egress: Dict[int, float] = {}
    for (src, _dst), num_bytes in links.items():
        egress[src] = egress.get(src, 0.0) + serialization(num_bytes)
    overlapped = (latency_seconds if links else 0.0) + max(egress.values(), default=0.0)
    return WanProjection(
        sequential_seconds=sequential,
        overlapped_seconds=overlapped,
        total_bytes=total_bytes,
        num_links=len(links),
    )


@dataclass
class PhaseTimer:
    """Wall-clock seconds accumulated per execution phase."""

    seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, elapsed: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + elapsed
