"""Windowed async runs number their bus rounds across windows.

A windowed ``async`` run keeps one bus open for the whole execution: the
first window opens it, each later window resumes on it by routing the
previous window's pending outboxes through
:meth:`~repro.core.transport.Transport.deliver_outboxes`. Computation step
``s`` therefore communicates as bus round ``s`` whichever path carries it,
so no two windows share a mailbox — on a real-socket mesh a shared one lets
a fast peer's frames land in a round a slow peer is still gathering
(``test_net_transport.py`` drives that race over TCP). This file pins the
numbering on the in-process buses: the rounds each path sees, and fault
triples naming the same round on the async and the resume path.
"""

import asyncio
from collections import Counter

import pytest

from repro import StressTest
from repro.core.transport import FaultInjectingTransport, InMemoryTransport
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import TransportError
from repro.finance import apply_shock, uniform_shock
from repro.graphgen import CorePeripheryParams, core_periphery_network

SEED = 3

SPLITS = [[1, 1], [1, 2], [2, 1], [2, 2], [3, 1], [1, 3], [1, 1, 1], [1, 1, 2]]


@pytest.fixture(scope="module")
def network():
    net = core_periphery_network(
        CorePeripheryParams(num_banks=8, core_size=3), DeterministicRNG(5)
    )
    return apply_shock(net, uniform_shock(range(0, 3), 0.9, "core"))


def _session(network):
    return StressTest(network).program("eisenberg-noe").seed(SEED)


def _windowed(windows):
    return {"release": "windowed", "windows": list(windows)}


class RecordingTransport(InMemoryTransport):
    """The reference bus, logging the round each call carries."""

    name = "recording"

    def __init__(self) -> None:
        self.opens = 0
        self.resumes = 0
        self.sent: Counter = Counter()
        self.gathered: Counter = Counter()

    def open(self, graph, fill):
        self.opens += 1
        super().open(graph, fill)

    def deliver_outboxes(self, graph, outboxes, fill):
        self.resumes += 1
        return super().deliver_outboxes(graph, outboxes, fill)

    async def send_round(self, src, round_index, deliveries):
        self.sent[round_index] += len(deliveries)
        await super().send_round(src, round_index, deliveries)

    async def gather_round(self, vertex_id, round_index):
        self.gathered[round_index] += 1
        return await super().gather_round(vertex_id, round_index)


def _async_rounds(windows):
    """Bus rounds a window split carries on the async path: every step's
    communication except the resume step at each window edge."""
    edges, step = set(), 0
    for width in windows[:-1]:
        step += width
        edges.add(step)
    return [r for r in range(sum(windows)) if r not in edges]


@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "sequential"])
@pytest.mark.parametrize("windows", SPLITS, ids=lambda w: "-".join(map(str, w)))
def test_each_step_communicates_on_its_own_bus_round(network, windows, overlap):
    iterations = sum(windows)
    reference = (
        _session(network)
        .engine("plaintext", **_windowed(windows))
        .run(iterations=iterations)
    )
    bus = RecordingTransport()
    result = (
        _session(network)
        .engine("async", transport=bus, overlap=overlap, **_windowed(windows))
        .run(iterations=iterations)
    )
    assert result.releases == reference.releases
    assert result.trajectory == reference.trajectory
    assert bus.opens == 1  # one execution, one bus
    assert bus.resumes == len(windows) - 1  # one per window edge
    async_rounds = _async_rounds(windows)
    num_vertices = len(network.banks)
    assert sorted(bus.gathered) == async_rounds
    assert set(bus.gathered.values()) == {num_vertices}
    assert sorted(bus.sent) == async_rounds


@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "sequential"])
@pytest.mark.parametrize("fault_round", range(4))
def test_a_fault_triple_names_one_round_on_either_path(network, fault_round, overlap):
    """Windows [2, 2]: rounds 0, 1 and 3 travel the async path, round 2
    is the resume step. A drop at each raises at that round, and only
    there."""
    bus = FaultInjectingTransport(drop={(0, 1, fault_round)})
    session = _session(network).engine(
        "async", transport=bus, overlap=overlap, **_windowed([2, 2])
    )
    with pytest.raises(TransportError, match=rf"^round {fault_round}: .*0->1"):
        session.run(iterations=4)


@pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "sequential"])
def test_a_fault_past_the_last_round_is_inert(network, overlap):
    reference = (
        _session(network)
        .engine("plaintext", **_windowed([2, 2]))
        .run(iterations=4)
    )
    bus = FaultInjectingTransport(drop={(0, 1, 4)}, duplicate={(0, 1, 4)})
    result = (
        _session(network)
        .engine("async", transport=bus, overlap=overlap, **_windowed([2, 2]))
        .run(iterations=4)
    )
    assert result.releases == reference.releases


def test_resume_step_follows_the_rounds_already_sent(network):
    """The sync path alone counts from zero; after async rounds it picks
    up where they left off."""
    graph = network.to_en_graph()
    bus = FaultInjectingTransport(drop={(0, 1, 3)})
    bus.open(graph, 0.0)
    outboxes = {vid: [1.0] * graph.degree_bound for vid in graph.vertex_ids}
    bus.deliver_outboxes(graph, outboxes, 0.0)  # round 0

    async def async_rounds():
        for round_index in (1, 2):
            for src, _out_slot, dst, in_slot in graph.routes():
                await bus.send_round(src, round_index, [(dst, in_slot, 1.0)])
            for vid in graph.vertex_ids:
                await bus.gather_round(vid, round_index)

    asyncio.run(async_rounds())
    with pytest.raises(TransportError, match=r"^round 3: cannot complete delivery"):
        bus.deliver_outboxes(graph, outboxes, 0.0)
