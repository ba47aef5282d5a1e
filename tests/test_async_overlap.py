"""What the asyncio schedules cost, and what their overlap buys.

Two claims, each measured inside one test run so the numbers are
machine-portable ratios and counts, never committed wall-clock:

* **a round message is a call, not a Task** — on the in-memory bus an
  ``engine="async"`` run creates one Task per vertex pipeline and no
  more, however many edges and rounds it routes; a WAN bus pays its
  links' delays concurrently inside one ``send_round`` call;
* **overlap beats the sequential schedule on a realtime WAN** — the same
  run over the same :class:`SimulatedWanTransport`, overlapped against
  ``overlap=False`` (every link awaited one at a time), for the float
  ``async`` engine and for ``secure-async``, with bit-identical releases.
"""

import asyncio
import time

import repro.api.async_engine as async_engine
from repro import StressTest
from repro.core.graph import DistributedGraph
from repro.core.transport import SimulatedWanTransport
from repro.crypto.rng import DeterministicRNG
from repro.finance import Bank, FinancialNetwork, apply_shock, uniform_shock
from repro.graphgen import CorePeripheryParams, core_periphery_network


def _core_periphery(num_banks: int) -> FinancialNetwork:
    net = core_periphery_network(
        CorePeripheryParams(num_banks=num_banks, core_size=3), DeterministicRNG(1)
    )
    return apply_shock(net, uniform_shock(range(3), 0.9, "core"))


def _debt_chain(num_banks: int) -> FinancialNetwork:
    """A debt chain with one under-reserved bank: a cascading default
    whose secure run exercises every protocol phase."""
    net = FinancialNetwork()
    for i in range(num_banks):
        net.add_bank(Bank(i, cash=2.0 if i == 0 else (0.5 if i == num_banks - 1 else 1.0)))
    net.add_debt(0, 1, 4.0)
    for i in range(1, num_banks - 1):
        net.add_debt(i, i + 1, 3.0 - i * 0.2)
    return net


# ------------------------------------------------------------- task count --


def test_memory_bus_run_creates_one_task_per_vertex_pipeline(monkeypatch):
    created = []

    def counting_run(coro):
        def factory(loop, task_coro, **kwargs):
            created.append(task_coro)
            return asyncio.Task(task_coro, loop=loop, **kwargs)

        async def main():
            # counted while the schedule runs; asyncio.run's own shutdown
            # tasks afterwards are not the engine's
            loop = asyncio.get_running_loop()
            loop.set_task_factory(factory)
            try:
                return await coro
            finally:
                loop.set_task_factory(None)

        return asyncio.run(main())

    monkeypatch.setattr(async_engine, "run_coroutine", counting_run)
    messages = []
    for num_banks, iterations in ((8, 2), (8, 5), (12, 5)):
        network = _core_periphery(num_banks)
        created.clear()
        result = (
            StressTest(network)
            .program("eisenberg-noe")
            .engine("async", tasks=2, transport="memory")
            .seed(1)
            .run(iterations=iterations)
        )
        assert len(created) == num_banks
        messages.append(result.extras["messages_sent"])
    # the Task count held while the messages routed grew with edges and
    # rounds, far past the vertex count
    assert messages[0] < messages[1] < messages[2]
    assert messages[2] > 10 * 12


# ----------------------------------------------------------- WAN batching --


def test_wan_send_round_pays_its_links_concurrently():
    latency = 0.020
    graph = DistributedGraph(degree_bound=4)
    for vid in range(5):
        graph.add_vertex(vid)
    for dst in range(1, 5):
        graph.add_edge(0, dst)
    batch = [(dst, graph.vertex(dst).in_slot(0), float(dst)) for dst in range(1, 5)]
    bus = SimulatedWanTransport(latency_seconds=latency, realtime=True)

    async def timed(round_index, calls):
        started = time.perf_counter()
        for deliveries in calls:
            await bus.send_round(0, round_index, deliveries)
        return time.perf_counter() - started

    async def scenario():
        bus.open(graph, fill=0.0)
        # the batch is timed twice and the faster kept: one pause inside
        # a 20 ms window would otherwise decide the comparison
        batched = min([await timed(0, [batch]), await timed(2, [batch])])
        sequential = await timed(1, [[delivery] for delivery in batch])
        inboxes = [await bus.gather_round(dst, r) for r in range(3) for dst in range(1, 5)]
        return batched, sequential, inboxes

    batched, sequential, inboxes = asyncio.run(scenario())
    assert all(sorted(inbox) == [0.0, 0.0, 0.0, float(dst)]
               for inbox, dst in zip(inboxes, list(range(1, 5)) * 3))
    assert batched < 2 * latency
    assert sequential > 3 * latency
    assert sequential / batched > 2.0


# --------------------------------------------------------- overlap ratios --


def _overlap_ratio(template, engine, iterations, tasks):
    """Sequential wall-clock over overlapped, same bus, same run.

    The overlapped side is the faster of two runs: it lasts tens of
    milliseconds, so one collector pause or scheduler hiccup inside it
    would otherwise decide the ratio. Returns the ratio and both results.
    """
    def run(**options):
        return template.clone().engine(engine, transport="wan", **options).run(
            iterations=iterations
        )

    sequential = run(overlap=False)
    overlapped = min(
        (run(tasks=tasks) for _ in range(2)),
        key=lambda result: result.wall_seconds,
    )
    return sequential.wall_seconds / overlapped.wall_seconds, sequential, overlapped


def test_async_overlap_beats_sequential_on_a_realtime_wan():
    template = (
        StressTest(_core_periphery(8))
        .program("eisenberg-noe")
        .seed(1)
        .configure(wan_latency_seconds=0.002, wan_jitter=0.25)
    )
    ratio, sequential, overlapped = _overlap_ratio(template, "async", 3, tasks=16)
    assert overlapped.trajectory == sequential.trajectory
    assert overlapped.final_states == sequential.final_states
    assert ratio >= 5.0


def test_secure_async_overlap_beats_sequential_on_a_realtime_wan():
    template = (
        StressTest(_debt_chain(4))
        .program("eisenberg-noe")
        .preset("demo")
        .degree_bound(2)
        .configure(wan_latency_seconds=0.002, wan_jitter=0.25)
    )
    ratio, sequential, overlapped = _overlap_ratio(template, "secure-async", 1, tasks=8)
    for attr in ("aggregate", "pre_noise_aggregate", "noise_raw", "trajectory"):
        assert getattr(overlapped, attr) == getattr(sequential, attr)
    assert ratio >= 1.5
