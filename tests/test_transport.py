"""The transport bus: delivery semantics, WAN modelling, fault paths.

The transport layer's contract is narrow but absolute: whatever the bus
(zero-delay memory, simulated WAN, fault injection), a complete round's
inbox must equal the historical dict-shuffle routing bit-for-bit, and a
round that *cannot* complete must raise a :class:`TransportError` naming
the link and round — never hang a gather.
"""

import asyncio

import pytest

from repro.core.graph import DistributedGraph
from repro.core.rounds import route_messages
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

    def link_delay(self, src, dst, num_bytes=None):
        self.log.record_send(src, dst, self.message_bytes if num_bytes is None else num_bytes)
        return super().link_delay(src, dst, num_bytes)


def _outboxes(graph, base=100.0):
    return {
        vid: [base + 10 * vid + slot for slot in range(graph.degree_bound)]
        for vid in graph.vertex_ids
    }


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
    delays = {(s, d): a.link_delay(s, d) for s in range(3) for d in range(3) if s != d}
    # reproducible across instances (and independent of query order)
    for (s, d), delay in sorted(delays.items(), reverse=True):
        assert b.link_delay(s, d) == delay
        assert 0.005 <= delay <= 0.015
    # jitter actually differentiates links
    assert len(set(delays.values())) > 1


def test_wan_bandwidth_adds_serialization_delay():
    wan = SimulatedWanTransport(bandwidth_bytes=100.0, message_bytes=50.0)
    assert wan.link_delay(0, 1) == pytest.approx(0.5)


def test_transport_from_spec_resolution():
    config = DStressConfig(wan_latency_seconds=0.25, wan_jitter=0.1, seed=3)
    assert isinstance(transport_from_spec("memory", config), InMemoryTransport)
    wan = transport_from_spec("wan", config)
    assert isinstance(wan, SimulatedWanTransport)
    assert wan.latency_seconds == 0.25
    assert wan.message_bytes == config.fmt.total_bits / 8.0
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


# ----------------------------------------------------------- async delivery --


def _run(coro):
    return asyncio.run(coro)


def test_async_send_gather_round_trip():
    graph = _diamond_graph()
    bus = InMemoryTransport()

    async def scenario():
        bus.open(graph, fill=-1.0)
        await bus.send_round(
            0,
            0,
            [(1, graph.vertex(1).in_slot(0), 41.0), (2, graph.vertex(2).in_slot(0), 42.0)],
        )
        inbox_1 = await bus.gather_round(1, 0)
        inbox_2 = await bus.gather_round(2, 0)
        # no in-edges at vertex 0: resolves immediately, all fill
        inbox_0 = await bus.gather_round(0, 0)
        return inbox_0, inbox_1, inbox_2

    inbox_0, inbox_1, inbox_2 = _run(scenario())
    assert inbox_0 == [-1.0, -1.0]
    assert inbox_1[graph.vertex(1).in_slot(0)] == 41.0
    assert -1.0 in inbox_1  # the unused slot holds fill
    assert inbox_2[graph.vertex(2).in_slot(0)] == 42.0


def test_wan_round_arrives_as_routed_and_is_metered():
    graph = _diamond_graph()
    outboxes = _outboxes(graph)
    wan = _LinkLoggingWan(latency_seconds=0.5, message_bytes=2.0, realtime=False)

    async def scenario():
        wan.open(graph, fill=0.0)
        for src in graph.vertex_ids:
            view = graph.vertex(src)
            await wan.send_round(src, 0, [
                (dst, graph.vertex(dst).in_slot(src), outboxes[src][out_slot])
                for out_slot, dst in enumerate(view.out_neighbors)
            ])
        return {vid: await wan.gather_round(vid, 0) for vid in graph.vertex_ids}

    # payloads untouched by the WAN model...
    assert _run(scenario()) == route_messages(graph, outboxes, 0.0)
    # ...but the round is carried: 4 edges x 2 bytes, and delays accounted
    assert wan.bytes_sent == 8.0
    assert wan.log.num_links == 4
    assert wan.log.link_bytes(0, 1) == 2.0
    assert wan.simulated_seconds == pytest.approx(4 * 0.5)


def test_gather_blocks_until_round_complete():
    graph = _diamond_graph()
    bus = InMemoryTransport()
    order = []

    async def receiver():
        inbox = await bus.gather_round(3, 0)
        order.append("gathered")
        return inbox

    async def senders():
        order.append("send-1")
        await bus.send_round(1, 0, [(3, graph.vertex(3).in_slot(1), 1.5)])
        await asyncio.sleep(0)  # give the receiver a chance to (not) fire
        order.append("send-2")
        await bus.send_round(2, 0, [(3, graph.vertex(3).in_slot(2), 2.5)])

    async def scenario():
        bus.open(graph, fill=0.0)
        inbox, _ = await asyncio.gather(receiver(), senders())
        return inbox

    inbox = _run(scenario())
    assert order == ["send-1", "send-2", "gathered"]
    assert inbox[graph.vertex(3).in_slot(1)] == 1.5
    assert inbox[graph.vertex(3).in_slot(2)] == 2.5


# --------------------------------------------------------------- fault paths --


def test_dropped_delivery_raises_instead_of_hanging():
    graph = _diamond_graph()
    bus = FaultInjectingTransport(drop=[(1, 3, 0)])

    async def scenario():
        bus.open(graph, fill=0.0)
        await bus.send_round(1, 0, [(3, graph.vertex(3).in_slot(1), 1.5)])
        await bus.send_round(2, 0, [(3, graph.vertex(3).in_slot(2), 2.5)])
        return await bus.gather_round(3, 0)

    with pytest.raises(TransportError, match=r"round 0: vertex 3 .* 1->3 .* dropped"):
        _run(scenario())


def test_duplicate_delivery_raises_at_the_sender():
    graph = _diamond_graph()
    bus = FaultInjectingTransport(duplicate=[(0, 1, 2)])

    async def scenario():
        bus.open(graph, fill=0.0)
        await bus.send_round(0, 2, [(1, graph.vertex(1).in_slot(0), 9.0)])

    with pytest.raises(TransportError, match="round 2: duplicate delivery 0->1"):
        _run(scenario())


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


def test_unfaulted_rounds_still_deliver_on_a_faulty_bus():
    graph = _diamond_graph()
    bus = FaultInjectingTransport(drop=[(1, 3, 5)])  # fault targets round 5 only

    async def scenario():
        bus.open(graph, fill=0.0)
        await bus.send_round(1, 0, [(3, graph.vertex(3).in_slot(1), 1.5)])
        await bus.send_round(2, 0, [(3, graph.vertex(3).in_slot(2), 2.5)])
        return await bus.gather_round(3, 0)

    inbox = _run(scenario())
    assert sorted(inbox) == [1.5, 2.5]


def _fan_out_graph() -> DistributedGraph:
    """0 -> {1, 2, 3}: one vertex-round is a three-delivery batch."""
    graph = DistributedGraph(degree_bound=3)
    for vid in range(4):
        graph.add_vertex(vid)
    for dst in (1, 2, 3):
        graph.add_edge(0, dst)
    return graph


def _fan_out_batch(graph):
    return [(dst, graph.vertex(dst).in_slot(0), 10.0 * dst) for dst in (1, 2, 3)]


def test_drop_inside_a_batch_faults_only_its_link():
    graph = _fan_out_graph()
    bus = FaultInjectingTransport(drop=[(0, 2, 0)])

    async def scenario():
        bus.open(graph, fill=0.0)
        await bus.send_round(0, 0, _fan_out_batch(graph))
        landed = [await bus.gather_round(dst, 0) for dst in (1, 3)]
        with pytest.raises(TransportError, match=r"round 0: vertex 2 .* 0->2 .* dropped"):
            await bus.gather_round(2, 0)
        return landed

    inbox_1, inbox_3 = _run(scenario())
    assert inbox_1[graph.vertex(1).in_slot(0)] == 10.0
    assert inbox_3[graph.vertex(3).in_slot(0)] == 30.0


def test_duplicate_inside_a_batch_raises_after_its_siblings_land():
    graph = _fan_out_graph()
    bus = FaultInjectingTransport(duplicate=[(0, 1, 0)])

    async def scenario():
        bus.open(graph, fill=0.0)
        with pytest.raises(TransportError, match="round 0: duplicate delivery 0->1"):
            await bus.send_round(0, 0, _fan_out_batch(graph))
        return [await bus.gather_round(dst, 0) for dst in (1, 2, 3)]

    inboxes = _run(scenario())
    for dst, inbox in zip((1, 2, 3), inboxes):
        assert inbox[graph.vertex(dst).in_slot(0)] == 10.0 * dst


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


def test_wan_convey_payload_overrides_message_size_for_serialization():
    bus = SimulatedWanTransport(
        latency_seconds=0.0, bandwidth_bytes=100.0, message_bytes=8.0, realtime=False
    )
    assert bus.link_delay(0, 1) == pytest.approx(0.08)
    assert bus.link_delay(0, 1, num_bytes=1000.0) == pytest.approx(10.0)


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
