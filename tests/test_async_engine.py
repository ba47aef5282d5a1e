"""The async engine: options, WAN metering, overlap, batch integration.

Bit-identity against ``plaintext`` at every task count is asserted by
the cross-engine parity matrix (``test_engine_parity_matrix.py``); this
file covers everything around it — engine options through the registry,
sessions and batch scenarios, the simulated-WAN traffic accounting, and
transport faults surfacing as scenario-named batch errors.
"""

import pytest

from repro import StressTest
from repro.api import AsyncEngine, Scenario, get_engine
from repro.core.transport import FaultInjectingTransport, InMemoryTransport
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, TransportError
from repro.finance import apply_shock, uniform_shock
from repro.graphgen import CorePeripheryParams, core_periphery_network

SEED = 123
ITERATIONS = 4


@pytest.fixture(scope="module")
def network():
    net = core_periphery_network(
        CorePeripheryParams(num_banks=10, core_size=3), DeterministicRNG(11)
    )
    return apply_shock(net, uniform_shock(range(0, 3), 0.9, "core-shock"))


@pytest.fixture(scope="module")
def reference(network):
    return (
        StressTest(network)
        .program("eisenberg-noe")
        .engine("plaintext")
        .seed(SEED)
        .run(iterations=ITERATIONS)
    )


def _session(network, **engine_options):
    return (
        StressTest(network)
        .program("eisenberg-noe")
        .engine("async", **engine_options)
        .seed(SEED)
    )


# ------------------------------------------------------------------ options --


def test_engine_options_validated_through_registry():
    with pytest.raises(ConfigurationError, match="positive int"):
        get_engine("async", tasks=0)
    # a misdeclared task count must surface, not silently mean "serial"
    for bad in ("16", 2.5, True, -1):
        with pytest.raises(ConfigurationError, match="positive int"):
            AsyncEngine(tasks=bad)
    with pytest.raises(ConfigurationError, match="Transport instance or a name"):
        AsyncEngine(transport=3.14)
    with pytest.raises(ConfigurationError, match="rejected options"):
        get_engine("async", shards=4)  # not an option of this engine
    with pytest.raises(ConfigurationError, match="'overlap'"):
        get_engine("async", overlap=False)  # one schedule: always overlapped
    with pytest.raises(ConfigurationError, match="tasks"):
        get_engine("plaintext", tasks=2)  # engine takes no such option
    # aliases resolve
    assert isinstance(get_engine("asyncio"), AsyncEngine)
    assert isinstance(get_engine("overlapped", tasks=2), AsyncEngine)


@pytest.mark.parametrize("engine", ["async", "secure-async"])
@pytest.mark.parametrize("bad", [0, -1, True, False, 2.5, "2", None], ids=repr)
def test_tasks_must_be_a_positive_int(engine, bad):
    with pytest.raises(
        ConfigurationError, match=f"engine '{engine}': tasks must be a positive int"
    ):
        get_engine(engine, tasks=bad)


@pytest.mark.parametrize("engine", ["async", "secure-async"])
@pytest.mark.parametrize("tasks", [1, 2, 64])
def test_tasks_is_kept_as_given(engine, tasks):
    assert get_engine(engine, tasks=tasks).tasks == tasks


def test_engine_options_reach_the_factory():
    assert get_engine("async", tasks=6).tasks == 6
    assert get_engine("asyncio").tasks == 4  # alias, default options


def test_engine_options_refused_for_instances(network):
    with pytest.raises(ConfigurationError, match="instance"):
        StressTest(network).engine(AsyncEngine(tasks=2), tasks=4)


def test_engine_options_survive_clone_and_replacement(network):
    session = _session(network, tasks=3)
    assert session.clone().resolve(iterations=1).engine.tasks == 3
    # choosing a new engine drops the previous options
    session.engine("plaintext")
    assert session.resolve(iterations=1).engine.name == "plaintext"


def test_scenario_engine_options_flow_through(network):
    template = _session(network, tasks=8)
    batch = template.run_many(
        [
            Scenario(name="inherit", iterations=2),  # template options: tasks=8
            Scenario(
                name="narrow", engine="async", engine_options={"tasks": 3}, iterations=2
            ),
            Scenario(name="reset", engine="async", iterations=2),  # default 4
            Scenario(name="rewidth", engine_options={"tasks": 1}, iterations=2),
        ],
        workers=1,
    )
    assert all(o.ok for o in batch)
    assert batch.by_name("inherit").result.extras["tasks"] == 8
    assert batch.by_name("narrow").result.extras["tasks"] == 3
    assert batch.by_name("reset").result.extras["tasks"] == 4
    assert batch.by_name("rewidth").result.extras["tasks"] == 1


def test_scenario_engine_options_refused_for_instance_template(network):
    template = StressTest(network).program("eisenberg-noe").engine(AsyncEngine(tasks=2))
    # the refusal carries the scenario name (batch error contract)
    with pytest.raises(ConfigurationError, match=r"scenario 'opts'.*Engine instance"):
        template.run_many(
            [Scenario(name="opts", engine_options={"tasks": 3})], workers=1
        )


def test_runs_inside_an_already_running_event_loop(network, reference):
    # notebook kernels execute user code on a running loop; the engine
    # must still work (and stay bit-identical) from that context
    import asyncio

    async def in_loop():
        return _session(network, tasks=4).run(iterations=ITERATIONS)

    result = asyncio.run(in_loop())
    assert result.trajectory == reference.trajectory
    assert result.final_states == reference.final_states


def test_unknown_transport_name_fails_at_construction(network):
    # a typo'd transport must refuse at engine construction so a batch
    # aborts at resolve time, before compute or budget is spent
    with pytest.raises(ConfigurationError, match="unknown transport"):
        AsyncEngine(transport="avian")
    template = StressTest(network).program("eisenberg-noe").seed(SEED)
    with pytest.raises(ConfigurationError, match="failed to resolve"):
        template.run_many(
            [Scenario("typo", engine="async", engine_options={"transport": "avian"})]
        )


# -------------------------------------------------------------- wan metering --


def test_wan_run_is_bit_identical_and_metered(network, reference):
    result = _session(network, tasks=4, transport="wan").run(iterations=ITERATIONS)
    assert result.trajectory == reference.trajectory
    assert result.aggregate == reference.aggregate
    assert result.final_states == reference.final_states
    # traffic: every real edge carries one fixed-point word per round
    graph = network.to_en_graph(None)
    word_bytes = 16 / 8.0  # default FixedPointFormat(16, 8)
    expected = graph.num_edges * ITERATIONS * word_bytes
    assert result.traffic is not None
    assert result.traffic.total_bytes_sent == pytest.approx(expected)
    assert result.traffic.num_links == graph.num_edges
    assert result.extras["wan_bytes"] == pytest.approx(expected)
    assert result.extras["messages_sent"] == graph.num_edges * ITERATIONS


def test_reused_transport_instance_reports_per_run_deltas(network):
    from repro.core.transport import SimulatedWanTransport

    bus = SimulatedWanTransport(latency_seconds=0.0, realtime=False)
    engine = AsyncEngine(tasks=4, transport=bus)
    session = StressTest(network).program("eisenberg-noe").engine(engine).seed(SEED)
    first = session.run(iterations=ITERATIONS)
    links_when_returned = dict(first.traffic.links())
    second = session.run(iterations=ITERATIONS)
    # the bus's totals are cumulative, but each result reports its own run
    assert second.extras["wan_bytes"] == first.extras["wan_bytes"]
    assert bus.bytes_sent == pytest.approx(2 * first.extras["wan_bytes"])
    # and a returned result never changes: the second run on the same bus
    # leaves the first one's traffic as it was, and reports the same links
    assert first.traffic.links() == links_when_returned
    assert second.traffic.links() == first.traffic.links()


def test_wan_latency_accounts_simulated_seconds(network, reference):
    result = (
        _session(network, tasks=8, transport="wan")
        .configure(wan_latency_seconds=0.0005, wan_jitter=0.25)
        .run(iterations=ITERATIONS)
    )
    # values never move, only the clock and the meters
    assert result.trajectory == reference.trajectory
    assert result.extras["simulated_seconds"] > 0.0


# ------------------------------------------------------------------- faults --


def test_transport_fault_surfaces_as_scenario_named_batch_error(network):
    graph = network.to_en_graph(None)
    src, dst = next(iter(graph.edges()))
    faulty = AsyncEngine(tasks=4, transport=FaultInjectingTransport(drop=[(src, dst, 1)]))
    template = StressTest(network).program("eisenberg-noe").seed(SEED)
    batch = template.run_many(
        [
            Scenario("dropped-link", engine=faulty, iterations=ITERATIONS),
            Scenario("healthy", iterations=ITERATIONS),
        ]
    )
    failed = batch.by_name("dropped-link")
    assert not failed.ok
    assert "dropped-link" in failed.error  # scenario-named, not a hang
    assert "TransportError" in failed.error
    assert f"{src}->{dst}" in failed.error
    assert batch.by_name("healthy").ok


def test_duplicate_fault_raises_directly(network):
    graph = network.to_en_graph(None)
    src, dst = next(iter(graph.edges()))
    engine = AsyncEngine(
        tasks=2, transport=FaultInjectingTransport(duplicate=[(src, dst, 0)])
    )
    session = StressTest(network).program("eisenberg-noe").engine(engine).seed(SEED)
    with pytest.raises(TransportError, match="duplicate round delivery"):
        session.run(iterations=2)


# ------------------------------------------------------------ batch workers --


def test_async_inside_batch_workers_stays_bit_identical(network, reference):
    template = StressTest(network).program("eisenberg-noe").seed(SEED)
    batch = template.run_many(
        [
            Scenario("async-a", engine="async", engine_options={"tasks": 4}),
            Scenario("async-b", engine="async", engine_options={"tasks": 16}),
        ],
        workers=2,
    )
    assert all(outcome.ok for outcome in batch)
    a, b = batch.by_name("async-a"), batch.by_name("async-b")
    # task count must not change a single bit, even through pool workers
    assert a.result.trajectory == b.result.trajectory
    assert a.result.aggregate == b.result.aggregate
