"""Simulated deployment: per-node traffic and operation metering.

The real DStress runs one node per participant on a WAN; we run every node
in one process and *meter* what would have crossed the network. Meters are
deliberately dumb — they only add up what the protocol layers report — so
the numbers in the bandwidth figures are straight protocol arithmetic, not
wall-clock artifacts of the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "NodeStats",
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


def meter_from_rounds(graph, iterations: int, message_bytes: float) -> TrafficMeter:
    """Synthesize the per-link meter of a round-synchronous run.

    The in-memory bus doesn't meter (nothing crosses a wire), which left
    ``RunResult.traffic`` empty for plaintext/sharded/async runs unless a
    :class:`SimulatedWanTransport` happened to be attached. But the byte
    profile of a round-synchronous protocol is straight arithmetic — every
    directed edge carries exactly one fixed-point message per routed
    round — so this reconstructs byte-for-byte what the WAN transport's
    meter would have recorded: ``message_bytes * iterations`` on each
    directed link of ``graph.edges()`` (the transport meters *all* edges
    each round, empty outboxes included, because a silent edge still
    transmits framing in the deployment model).
    """
    meter = TrafficMeter()
    for src, dst in graph.edges():
        meter.record_send(src, dst, message_bytes * iterations)
    return meter


@dataclass(frozen=True)
class WanProjection:
    """What a metered run would cost on a WAN, from its per-link bytes.

    ``sequential_seconds`` is the straight-line deployment: every link's
    payload is waited for one after the other (one latency hit plus the
    serialization time per link). ``overlapped_seconds`` is the schedule
    the async engines implement: all links run concurrently, but each
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
