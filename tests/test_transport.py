"""The transport bus: round conveys, WAN modelling, fault paths.

The transport layer's contract is narrow but absolute: whatever the bus
(zero-delay memory, simulated WAN, fault injection), a window conveyed
over it computes exactly what the window drained in process computes,
every communication step puts one word on each routed link, and a round
that *cannot* complete raises a :class:`TransportError` naming the link
and round — never hangs the step's barrier.
"""

import asyncio

import pytest

from repro.core.graph import DistributedGraph
from repro.core.rounds import (
    Arithmetic,
    RoundLoop,
    RoundScheduler,
    route_messages,
    sequential_superstep,
)
from repro.core.transport import (
    FaultInjectingTransport,
    InMemoryTransport,
    SimulatedWanTransport,
    transport_from_spec,
)
from repro.core.config import DStressConfig
from repro.exceptions import ConfigurationError, TransportError
from repro.simulation.netsim import TrafficMeter


def _diamond_graph() -> DistributedGraph:
    """0 -> {1, 2} -> 3, degree bound 2 (one unused slot on 1 and 2)."""
    graph = DistributedGraph(degree_bound=2)
    for vid in range(4):
        graph.add_vertex(vid)
    graph.add_edge(0, 1)
    graph.add_edge(0, 2)
    graph.add_edge(1, 3)
    graph.add_edge(2, 3)
    return graph


class _LinkLoggingWan(SimulatedWanTransport):
    """A WAN bus that also logs every link it charges a delay for, with the
    bytes that delay was charged on: the per-link record the bus itself
    does not keep (a run's traffic is the protocol's, not the bus's)."""

    def __init__(self, **options):
        super().__init__(**options)
        self.log = TrafficMeter()

    def link_delay(self, src, dst, num_bytes):
        self.log.record_send(src, dst, num_bytes)
        return super().link_delay(src, dst, num_bytes)


def _outboxes(graph, base=100.0):
    return {
        vid: [base + 10 * vid + slot for slot in range(graph.degree_bound)]
        for vid in graph.vertex_ids
    }


#: A toy clear arithmetic: a vertex's state is a float, it adds its inbox
#: and sends its old state on every out-slot, one 2-byte word per message.
_SUMS = Arithmetic(
    fill=0.0,
    initial=lambda view: float(view.vertex_id + 1),
    update=lambda _vid, state, inbox: (state + sum(inbox), [state, state]),
    observe=lambda states: sum(states.values()),
    decode=lambda state: {"x": state},
    word_bytes=2.0,
)


def _loop(graph):
    return RoundLoop(graph, _SUMS, sequential_superstep(graph.vertex_ids, _SUMS.update))


def _convey_window(bus, graph, rounds):
    """A fresh loop's window over ``bus``, opened as an engine opens it."""
    loop = _loop(graph)
    bus.open(graph)
    bus.run(RoundScheduler(bus, max_tasks=4).run(loop.window(rounds)))
    return loop


# ------------------------------------------------------------ slot routing --


def test_route_messages_matches_legacy_routing():
    graph = _diamond_graph()
    outboxes = _outboxes(graph)
    legacy = {v: [0.0] * graph.degree_bound for v in graph.vertex_ids}
    for view in graph.vertices():
        for out_slot, neighbor in enumerate(view.out_neighbors):
            in_slot = graph.vertex(neighbor).in_slot(view.vertex_id)
            legacy[neighbor][in_slot] = outboxes[view.vertex_id][out_slot]
    assert route_messages(graph, outboxes, 0.0) == legacy


def test_wan_link_delays_are_deterministic_and_jittered():
    a = SimulatedWanTransport(latency_seconds=0.01, jitter=0.5, seed=7)
    b = SimulatedWanTransport(latency_seconds=0.01, jitter=0.5, seed=7)
    delays = {(s, d): a.link_delay(s, d, 8.0) for s in range(3) for d in range(3) if s != d}
    # reproducible across instances (and independent of query order)
    for (s, d), delay in sorted(delays.items(), reverse=True):
        assert b.link_delay(s, d, 8.0) == delay
        assert 0.005 <= delay <= 0.015
    # jitter actually differentiates links
    assert len(set(delays.values())) > 1


def test_wan_bandwidth_adds_serialization_delay_on_the_bytes_given():
    wan = SimulatedWanTransport(bandwidth_bytes=100.0)
    assert wan.link_delay(0, 1, 50.0) == pytest.approx(0.5)
    assert wan.link_delay(0, 1, 1000.0) == pytest.approx(10.0)


def test_transport_from_spec_resolution():
    config = DStressConfig(wan_latency_seconds=0.25, wan_jitter=0.1, seed=3)
    assert isinstance(transport_from_spec("memory", config), InMemoryTransport)
    wan = transport_from_spec("wan", config)
    assert isinstance(wan, SimulatedWanTransport)
    assert (wan.latency_seconds, wan.jitter, wan.seed) == (0.25, 0.1, 3)
    passthrough = InMemoryTransport()
    assert transport_from_spec(passthrough, config) is passthrough
    with pytest.raises(ConfigurationError, match="unknown transport"):
        transport_from_spec("carrier-pigeon", config)
    with pytest.raises(ConfigurationError, match="Transport instance or a name"):
        transport_from_spec(42, config)


def test_config_validates_wan_fields():
    with pytest.raises(ConfigurationError, match="latency"):
        DStressConfig(wan_latency_seconds=-0.1)
    with pytest.raises(ConfigurationError, match="bandwidth"):
        DStressConfig(wan_bandwidth_bytes=0.0)
    with pytest.raises(ConfigurationError, match="jitter"):
        DStressConfig(wan_jitter=1.0)


# ------------------------------------------------------------ round conveys --


def _run(coro):
    return asyncio.run(coro)


@pytest.mark.parametrize(
    "make_bus",
    [
        InMemoryTransport,
        lambda: SimulatedWanTransport(latency_seconds=0.5, jitter=0.5, realtime=False),
        lambda: FaultInjectingTransport(drop=[(3, 0, 0)], inner=SimulatedWanTransport()),
    ],
    ids=["memory", "wan", "faulty-wan"],
)
def test_a_conveyed_window_computes_what_the_drained_one_does(make_bus):
    graph = _diamond_graph()
    drained = _loop(graph)
    drained.advance(3)
    conveyed = _convey_window(make_bus(), graph, 3)
    assert drained.trajectory[-1] != drained.trajectory[0]
    assert (conveyed.states, conveyed.pending, conveyed.trajectory) == (
        drained.states, drained.pending, drained.trajectory,
    )


def test_only_a_conveyed_window_builds_its_link_table():
    graph = _diamond_graph()
    drained = _loop(graph)
    drained.advance(3)
    assert drained.link_bytes._links is None  # in process: no wire, no table
    conveyed = _convey_window(InMemoryTransport(), graph, 1)
    assert dict(conveyed.link_bytes) == {(0, 1): 2.0, (0, 2): 2.0, (1, 3): 2.0, (2, 3): 2.0}


def test_wan_round_is_carried_one_word_per_routed_link():
    graph = _diamond_graph()
    wan = _LinkLoggingWan(latency_seconds=0.5, realtime=False)
    _convey_window(wan, graph, 1)
    # one communication step: 4 edges x one 2-byte word, delays accounted
    assert wan.bytes_sent == 8.0
    assert wan.log.links() == {(0, 1): 2.0, (0, 2): 2.0, (1, 3): 2.0, (2, 3): 2.0}
    assert wan.simulated_seconds == pytest.approx(4 * 0.5)


# --------------------------------------------------------------- fault paths --


_ROUTE_LINKS = [(0, 1), (0, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("round_index", [0, 1])
@pytest.mark.parametrize("link", _ROUTE_LINKS, ids=lambda link: "%d-%d" % link)
def test_a_dropped_route_link_raises_at_its_round(link, round_index):
    src, dst = link
    bus = FaultInjectingTransport(drop=[(src, dst, round_index)])
    with pytest.raises(
        TransportError, match=rf"^round {round_index}: round delivery {src}->{dst} was dropped"
    ):
        _convey_window(bus, _diamond_graph(), 2)


@pytest.mark.parametrize("round_index", [0, 1])
@pytest.mark.parametrize("link", _ROUTE_LINKS, ids=lambda link: "%d-%d" % link)
def test_a_duplicated_route_link_raises_at_its_round(link, round_index):
    src, dst = link
    bus = FaultInjectingTransport(duplicate=[(src, dst, round_index)])
    with pytest.raises(
        TransportError, match=rf"^round {round_index}: duplicate round delivery {src}->{dst}"
    ):
        _convey_window(bus, _diamond_graph(), 2)


def test_async_chaos_run_raises_scenario_error():
    # a chaos run through an engine actually exercises the fault
    from repro import StressTest
    from repro.crypto.rng import DeterministicRNG
    from repro.finance import apply_shock, uniform_shock
    from repro.graphgen import CorePeripheryParams, core_periphery_network

    net = core_periphery_network(
        CorePeripheryParams(num_banks=10, core_size=3), DeterministicRNG(11)
    )
    net = apply_shock(net, uniform_shock(range(0, 3), 0.9, "core-shock"))
    src, dst = next(iter(net.to_en_graph(None).edges()))
    session = (
        StressTest(net)
        .program("eisenberg-noe")
        .engine("async", transport=FaultInjectingTransport(drop=[(src, dst, 1)]))
        .seed(1)
    )
    with pytest.raises(TransportError, match="round 1"):
        session.run(iterations=3)


def test_reused_faulty_bus_faults_every_run():
    # engines open() the bus per execution, so a round-0 fault must fire
    # on EVERY run of a reused engine instance, not just the first
    from repro import StressTest
    from repro.crypto.rng import DeterministicRNG
    from repro.finance import apply_shock, uniform_shock
    from repro.graphgen import CorePeripheryParams, core_periphery_network

    net = core_periphery_network(
        CorePeripheryParams(num_banks=10, core_size=3), DeterministicRNG(11)
    )
    net = apply_shock(net, uniform_shock(range(0, 3), 0.9, "core-shock"))
    src, dst = next(iter(net.to_en_graph(None).edges()))
    session = (
        StressTest(net)
        .program("eisenberg-noe")
        .engine("async", transport=FaultInjectingTransport(drop=[(src, dst, 0)]))
        .seed(1)
    )
    for _ in range(2):
        with pytest.raises(TransportError, match="round 0"):
            session.run(iterations=2)


def test_unfaulted_rounds_still_convey_on_a_faulty_bus():
    graph = _diamond_graph()
    drained = _loop(graph)
    drained.advance(2)
    # the faults name round 5 and a non-edge: both inert in a 2-round window
    bus = FaultInjectingTransport(drop=[(1, 3, 5)], duplicate=[(3, 0, 1)])
    conveyed = _convey_window(bus, graph, 2)
    assert conveyed.trajectory == drained.trajectory


# ----------------------------------------------------------------- convey --


def test_memory_convey_is_instant_noop():
    """The reference bus carries crypto payloads with no delay and no
    bookkeeping — the protocol meter owns the byte accounting."""
    bus = InMemoryTransport()

    async def scenario():
        await bus.convey_round(0, "ot", [(0, 1, 1024.0)])

    _run(scenario())  # nothing to assert beyond "returns immediately"


def test_wan_convey_accounts_payload_scaled_delay_and_meters():
    bus = _LinkLoggingWan(
        latency_seconds=0.010,
        bandwidth_bytes=1000.0,
        seed=3,
        realtime=False,
    )

    async def scenario():
        await bus.convey_round(0, "ot", [(0, 1, 500.0)])
        await bus.convey_round(1, "transfer", [(0, 1, 500.0)])

    _run(scenario())
    # latency + 500/1000 serialization, twice, no jitter
    assert bus.simulated_seconds == pytest.approx(2 * (0.010 + 0.5))
    assert bus.bytes_sent == pytest.approx(1000.0)
    assert bus.log.link_bytes(0, 1) == pytest.approx(1000.0)


def test_faulty_convey_drop_raises_named_error():
    bus = FaultInjectingTransport(drop=[(4, 7, 2)])

    async def scenario():
        await bus.convey_round(2, "ot", [(4, 7, 64.0)])

    with pytest.raises(TransportError, match=r"round 2: ot delivery 4->7 was dropped"):
        _run(scenario())


def test_faulty_convey_duplicate_raises_named_error():
    bus = FaultInjectingTransport(duplicate=[(4, 7, 1)])

    async def scenario():
        await bus.convey_round(1, "transfer", [(4, 7, 64.0)])

    with pytest.raises(TransportError, match=r"round 1: duplicate transfer delivery 4->7"):
        _run(scenario())


def test_unfaulted_convey_passes_on_a_faulty_bus():
    bus = FaultInjectingTransport(drop=[(4, 7, 2)])

    async def scenario():
        await bus.convey_round(0, "ot", [(4, 7, 64.0)])  # different round: clean
        await bus.convey_round(2, "ot", [(7, 4, 64.0)])  # different link: clean

    _run(scenario())


@pytest.mark.parametrize(
    "faults, message",
    [
        ({"drop": [(4, 7, 2)]}, r"round 2: ot delivery 4->7 was dropped"),
        ({"duplicate": [(4, 7, 2)]}, r"round 2: duplicate ot delivery 4->7"),
    ],
    ids=["drop", "duplicate"],
)
def test_fault_inside_a_convey_batch_still_carries_its_siblings(faults, message):
    wan = _LinkLoggingWan(latency_seconds=0.01, realtime=False)
    bus = FaultInjectingTransport(inner=wan, **faults)
    links = [(3, 7, 64.0), (4, 7, 64.0), (7, 4, 32.0)]

    with pytest.raises(TransportError, match=message):
        _run(bus.convey_round(2, "ot", links))
    assert wan.log.links() == {(3, 7): 64.0, (7, 4): 32.0}
    assert wan.bytes_sent == 96.0
