"""What the asyncio schedules cost, and what their overlap buys.

Three claims, each measured inside one test run so the numbers are
machine-portable ratios and counts, never committed wall-clock:

* **the memory bus pays for no schedule** — ``secure`` and ``plaintext``
  (here by its alias ``async``) on it drain each window in place: no
  event loop, no Task;
* **a round is one convey, not a Task per vertex or per message** — on
  a scheduling bus a ``plaintext`` run creates at most one Task
  per communication step (its convey), however many vertices and edges
  it routes; a WAN bus pays a convey's link delays concurrently inside
  that one call;
* **overlap beats the link delays on a realtime WAN** — a run's
  wall-clock against what a schedule awaiting every link in turn must at
  least pay: the link delays its :class:`SimulatedWanTransport` accounted
  (``extras["simulated_seconds"]``), plus, for ``secure``, the memory
  run's own ``computation`` phase, which such a schedule cannot overlap
  with its links. Both engines release bit-identically to their
  memory-bus runs.
"""

import asyncio
import time

import pytest

from repro import StressTest
from repro.core.transport import SimulatedWanTransport, Transport
from repro.crypto.rng import DeterministicRNG
from repro.finance import Bank, FinancialNetwork, apply_shock, uniform_shock
from repro.graphgen import CorePeripheryParams, core_periphery_network

WORD_BYTES = 16 / 8.0  # default FixedPointFormat(16, 8)


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


@pytest.mark.parametrize("engine, oracle", [("secure", "fixed"), ("async", "plaintext")])
def test_memory_bus_runs_without_an_event_loop(monkeypatch, engine, oracle):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the memory bus started a schedule")

    monkeypatch.setattr(Transport, "run", refuse)
    monkeypatch.setattr(asyncio, "run", refuse)
    template = StressTest(_debt_chain(4)).program("eisenberg-noe").preset("demo")
    drained = template.clone().engine(engine, transport="memory").run(iterations=2)
    assert drained.trajectory == template.clone().engine(oracle).run(iterations=2).trajectory


def test_scheduled_run_creates_one_task_per_round_not_per_vertex(monkeypatch):
    created = []

    def counting_run(bus, coro):
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

    monkeypatch.setattr(SimulatedWanTransport, "run", counting_run)
    messages = []
    for num_banks, iterations in ((8, 2), (8, 5), (12, 5)):
        network = _core_periphery(num_banks)
        created.clear()
        result = (
            StressTest(network)
            .program("eisenberg-noe")
            .engine("async", tasks=2, transport=SimulatedWanTransport(realtime=False))
            .seed(1)
            .run(iterations=iterations)
        )
        # one convey per communication step, none per vertex or message
        assert len(created) == iterations
        # one fixed-point word per directed edge per round
        messages.append(result.traffic.total_bytes_sent / WORD_BYTES)
    # the Task count held at the round count while the messages routed
    # grew with edges and rounds, far past it
    assert messages[0] < messages[1] < messages[2]
    assert messages[2] > 10 * 12


# ----------------------------------------------------------- WAN batching --


def test_wan_convey_pays_its_links_concurrently():
    latency = 0.020
    links = [(0, dst, 2.0) for dst in range(1, 5)]
    bus = SimulatedWanTransport(latency_seconds=latency, realtime=True)

    async def timed(round_index, calls):
        started = time.perf_counter()
        for batch in calls:
            await bus.convey_round(round_index, "round", batch)
        return time.perf_counter() - started

    async def scenario():
        # the batch is timed twice and the faster kept: one pause inside
        # a 20 ms window would otherwise decide the comparison
        batched = min([await timed(0, [links]), await timed(2, [links])])
        sequential = await timed(1, [[link] for link in links])
        return batched, sequential

    batched, sequential = asyncio.run(scenario())
    assert bus.bytes_sent == 3 * 8.0
    assert batched < 2 * latency
    assert sequential > 3 * latency
    assert sequential / batched > 2.0


# --------------------------------------------------------- overlap ratios --


def _fastest_wan_run(template, engine, iterations, tasks):
    """The faster of two runs over a realtime WAN: a run lasts tens of
    milliseconds, so one collector pause or scheduler hiccup inside it
    would otherwise decide the ratio."""
    return min(
        (
            template.clone()
            .engine(engine, transport="wan", tasks=tasks)
            .run(iterations=iterations)
            for _ in range(2)
        ),
        key=lambda result: result.wall_seconds,
    )


def test_async_overlap_beats_the_link_delays_on_a_realtime_wan():
    template = (
        StressTest(_core_periphery(8))
        .program("eisenberg-noe")
        .seed(1)
        .configure(wan_latency_seconds=0.002, wan_jitter=0.25)
    )
    reference = template.clone().engine("plaintext").run(iterations=3)
    overlapped = _fastest_wan_run(template, "async", 3, tasks=16)
    assert overlapped.trajectory == reference.trajectory
    assert overlapped.final_states == reference.final_states
    ratio = overlapped.extras["simulated_seconds"] / overlapped.wall_seconds
    assert ratio >= 5.0


def test_secure_overlap_beats_the_link_delays_on_a_realtime_wan():
    template = (
        StressTest(_debt_chain(4))
        .program("eisenberg-noe")
        .preset("demo")
        .degree_bound(2)
        .configure(wan_latency_seconds=0.002, wan_jitter=0.25)
    )
    reference = template.clone().engine("secure").run(iterations=1)
    overlapped = _fastest_wan_run(template, "secure", 1, tasks=8)
    for attr in ("aggregate", "pre_noise_aggregate", "noise_raw", "trajectory"):
        assert getattr(overlapped, attr) == getattr(reference, attr)
    # the in-process run's computation phase is pure compute: over the
    # bus that phase also spans the barrier waits for the step's links,
    # which simulated_seconds already counts
    in_turn = (
        overlapped.extras["simulated_seconds"]
        + reference.phases.seconds["computation"]
    )
    assert in_turn / overlapped.wall_seconds >= 1.5
