"""Windowed async runs number their bus rounds across windows.

A windowed ``async`` run keeps one bus open for the whole execution: the
first window opens it, each later window resumes on it by conveying the
step the previous window left pending as the bus round it belongs to,
through :meth:`~repro.core.transport.Transport.convey_round` like every
other round. Computation step ``s`` therefore communicates as bus round
``s``, and a fault triple names one step whichever window runs it. This
file pins the numbering on the in-process buses: the rounds the bus sees,
through the fault wrapper too, the WAN bus metering every step, and drop
and duplicate triples naming the same round inside a window and at its
edge.
"""

from collections import Counter

import pytest

from repro import StressTest
from repro.core.transport import (
    FaultInjectingTransport,
    InMemoryTransport,
    SimulatedWanTransport,
)
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
    """The reference bus, logging the round each convey carries."""

    name = "recording"

    def __init__(self) -> None:
        self.opens = 0
        self.conveys: Counter = Counter()
        self.links: Counter = Counter()

    def open(self, graph):
        self.opens += 1
        super().open(graph)

    async def convey_round(self, round_index, kind, links):
        assert kind == "round"
        self.conveys[round_index] += 1
        self.links[round_index] += len(links)
        await super().convey_round(round_index, kind, links)


@pytest.mark.parametrize("windows", SPLITS, ids=lambda w: "-".join(map(str, w)))
def test_each_step_communicates_on_its_own_bus_round(network, windows):
    iterations = sum(windows)
    reference = (
        _session(network)
        .engine("plaintext", **_windowed(windows))
        .run(iterations=iterations)
    )
    bus = RecordingTransport()
    result = (
        _session(network)
        .engine("async", transport=bus, **_windowed(windows))
        .run(iterations=iterations)
    )
    assert result.releases == reference.releases
    assert result.trajectory == reference.trajectory
    assert bus.opens == 1  # one execution, one bus
    # every step's communication, window edges included, is one convey on
    # its own round carrying every edge
    assert sorted(bus.conveys) == list(range(iterations))
    assert set(bus.conveys.values()) == {1}
    assert set(bus.links.values()) == {network.to_en_graph().num_edges}


@pytest.mark.parametrize("windows", SPLITS, ids=lambda w: "-".join(map(str, w)))
def test_the_fault_wrapper_carries_every_round_to_its_inner_bus(network, windows):
    """Fault sets naming no edge leave the run clean: the wrapper hands
    every step, the resume steps included, to its inner bus as that
    step's round."""
    iterations = sum(windows)
    reference = (
        _session(network)
        .engine("plaintext", **_windowed(windows))
        .run(iterations=iterations)
    )
    inner = RecordingTransport()
    bus = FaultInjectingTransport(drop={(0, 0, 0)}, duplicate={(1, 1, 1)}, inner=inner)
    result = (
        _session(network)
        .engine("async", transport=bus, **_windowed(windows))
        .run(iterations=iterations)
    )
    assert result.releases == reference.releases
    assert result.trajectory == reference.trajectory
    assert inner.opens == 1
    assert sorted(inner.conveys) == list(range(iterations))


@pytest.mark.parametrize("windows", SPLITS, ids=lambda w: "-".join(map(str, w)))
def test_the_wan_bus_meters_every_step_once(network, windows):
    """Each step, window edges included, pays every edge's link once:
    no resume step goes unmetered and none is carried twice."""
    iterations = sum(windows)
    reference = (
        _session(network)
        .engine("plaintext", **_windowed(windows))
        .run(iterations=iterations)
    )
    bus = SimulatedWanTransport(latency_seconds=0.25, realtime=False)
    result = (
        _session(network)
        .engine("async", transport=bus, **_windowed(windows))
        .run(iterations=iterations)
    )
    assert result.releases == reference.releases
    assert result.trajectory == reference.trajectory
    links = iterations * network.to_en_graph().num_edges
    assert bus.bytes_sent == 2.0 * links  # one 16-bit word per link
    assert bus.simulated_seconds == pytest.approx(0.25 * links)


@pytest.mark.parametrize("fault_round", range(4))
def test_a_fault_triple_names_one_round_inside_and_at_the_edge(network, fault_round):
    """Windows [2, 2]: round 2 is the resume step at the window edge,
    rounds 0, 1 and 3 run inside a window. A drop at each raises at that
    round, and only there."""
    bus = FaultInjectingTransport(drop={(0, 1, fault_round)})
    session = _session(network).engine("async", transport=bus, **_windowed([2, 2]))
    with pytest.raises(TransportError, match=rf"^round {fault_round}: .*0->1"):
        session.run(iterations=4)


@pytest.mark.parametrize("fault_round", range(4))
def test_a_duplicate_triple_names_one_round_inside_and_at_the_edge(
    network, fault_round
):
    """Windows [2, 2]: a duplicated link raises at the round it names,
    the resume step's round 2 included."""
    bus = FaultInjectingTransport(duplicate={(0, 1, fault_round)})
    session = _session(network).engine("async", transport=bus, **_windowed([2, 2]))
    with pytest.raises(
        TransportError, match=rf"^round {fault_round}: duplicate round delivery 0->1"
    ):
        session.run(iterations=4)


def test_a_fault_past_the_last_round_is_inert(network):
    reference = (
        _session(network)
        .engine("plaintext", **_windowed([2, 2]))
        .run(iterations=4)
    )
    bus = FaultInjectingTransport(drop={(0, 1, 4)}, duplicate={(0, 1, 4)})
    result = (
        _session(network)
        .engine("async", transport=bus, **_windowed([2, 2]))
        .run(iterations=4)
    )
    assert result.releases == reference.releases
