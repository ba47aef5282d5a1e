"""The sharded backend: partitioning, ghost exchange, pool composition.

The contract: ``engine="sharded"`` is bit-identical to ``plaintext`` for
every shard count (the shard count decides *where* a vertex update runs,
never what it computes), shards degrade gracefully (more shards than
vertices, nested inside a batch pool), and the engine-option plumbing
(``.engine("sharded", shards=4)``) round-trips through the registry.
"""

import multiprocessing

import pytest

from repro import Bank, FinancialNetwork, Scenario, StressTest
from repro.api import ShardedEngine, get_engine
from repro.api.pool import cpu_budget, in_worker_process, plan_workers
from repro.api.sharded import cross_shard_edges, partition_vertices
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def en_network():
    net = FinancialNetwork()
    net.add_bank(Bank(0, cash=2.0))
    net.add_bank(Bank(1, cash=1.0))
    net.add_bank(Bank(2, cash=1.0))
    net.add_bank(Bank(3, cash=0.5))
    net.add_debt(0, 1, 4.0)
    net.add_debt(0, 2, 2.0)
    net.add_debt(1, 3, 3.0)
    net.add_debt(2, 3, 1.0)
    return net


# ------------------------------------------------------------ partitioning --


def test_partition_contiguous_and_balanced():
    chunks = partition_vertices([5, 1, 3, 2, 4], 2)
    assert chunks == [[1, 2, 3], [4, 5]]
    assert partition_vertices([1, 2, 3], 1) == [[1, 2, 3]]


def test_partition_more_shards_than_vertices_drops_empties():
    assert partition_vertices([1, 2], 5) == [[1], [2]]
    assert partition_vertices([], 3) == []


def test_partition_rejects_bad_shard_count():
    with pytest.raises(ConfigurationError, match="at least 1"):
        partition_vertices([1], 0)


def test_cross_shard_edges_counts_boundary_traffic(en_network):
    graph = en_network.to_en_graph(degree_bound=2)
    one = partition_vertices(graph.vertex_ids, 1)
    assert cross_shard_edges(graph, one) == 0
    per_vertex = partition_vertices(graph.vertex_ids, 4)
    assert cross_shard_edges(graph, per_vertex) == graph.num_edges


# ----------------------------------------------------------------- parity --


def test_sharded_bit_identical_to_plaintext(en_network):
    plain = StressTest(en_network).program("en").engine("plaintext").run(iterations=5)
    for shards in (1, 2, 3, 4, 7):
        sharded = (
            StressTest(en_network)
            .program("en")
            .engine("sharded", shards=shards)
            .run(iterations=5)
        )
        assert sharded.trajectory == plain.trajectory
        assert sharded.aggregate == plain.aggregate
        assert sharded.final_states == plain.final_states
        assert sharded.engine == "sharded"
        assert sharded.extras["shards"] == min(shards, 4)


def test_sharded_auto_iterations(en_network):
    plain = StressTest(en_network).program("en").engine("plaintext").run()
    sharded = StressTest(en_network).program("en").engine("sharded", shards=2).run()
    assert sharded.iterations == plain.iterations
    assert sharded.trajectory == plain.trajectory


def test_sharded_extras_report_ghost_traffic(en_network):
    result = (
        StressTest(en_network)
        .program("en")
        .engine("sharded", shards=2)
        .run(iterations=3)
    )
    assert result.extras["ghost_edges"] > 0
    assert result.extras["ghost_messages"] == result.extras["ghost_edges"] * 3
    assert result.extras["inline"] == 0.0
    single = (
        StressTest(en_network)
        .program("en")
        .engine("sharded", shards=1)
        .run(iterations=3)
    )
    assert single.extras["ghost_edges"] == 0.0
    assert single.extras["inline"] == 1.0


# --------------------------------------------------------- option plumbing --


def test_engine_options_reach_the_factory():
    assert get_engine("sharded", shards=4).shards == 4
    assert get_engine("shard").shards == 2  # alias, default options


def test_engine_options_are_validated():
    with pytest.raises(ConfigurationError, match="positive int"):
        get_engine("sharded", shards=0)
    with pytest.raises(ConfigurationError, match="shards"):
        get_engine("plaintext", shards=2)  # engine takes no options


def test_engine_options_refused_for_instances(en_network):
    with pytest.raises(ConfigurationError, match="instance"):
        StressTest(en_network).engine(ShardedEngine(2), shards=4)


def test_engine_options_survive_clone_and_replacement(en_network):
    session = StressTest(en_network).program("en").engine("sharded", shards=3)
    assert session.clone().resolve(iterations=1).engine.shards == 3
    # choosing a new engine drops the previous options
    session.engine("plaintext")
    assert session.resolve(iterations=1).engine.name == "plaintext"


# ------------------------------------------------------- batch composition --


def _shock_scenarios(count=3):
    def net(shock):
        n = FinancialNetwork()
        n.add_bank(Bank(0, cash=2.0 - shock))
        n.add_bank(Bank(1, cash=1.0))
        n.add_bank(Bank(2, cash=1.0))
        n.add_bank(Bank(3, cash=0.5))
        n.add_debt(0, 1, 4.0)
        n.add_debt(0, 2, 2.0)
        n.add_debt(1, 3, 3.0)
        n.add_debt(2, 3, 1.0)
        return n

    return [
        Scenario(name=f"shock-{i}", network=net(i / 2.0), seed=50 + i)
        for i in range(count)
    ]


def test_sharded_scenarios_compose_with_run_many(en_network):
    template = StressTest(en_network).program("en").engine("sharded", shards=2)
    scenarios = _shock_scenarios(3)
    pooled = template.run_many(scenarios, workers=4)
    serial = template.run_many(scenarios, workers=1)
    plain = (
        StressTest(en_network)
        .program("en")
        .engine("plaintext")
        .run_many(scenarios, workers=1)
    )
    assert pooled.aggregates() == serial.aggregates() == plain.aggregates()
    # sharded batches never run more scenario workers than CPUs (each
    # worker computes its shards inline, so it is exactly one process)
    assert pooled.workers <= cpu_budget()


def test_scenario_engine_options_flow_through(en_network):
    template = StressTest(en_network).program("en").engine("sharded", shards=4)
    batch = template.run_many(
        [
            Scenario(name="inherit"),  # template options: shards=4
            Scenario(name="narrow", engine="sharded", engine_options={"shards": 3}),
            Scenario(name="reset", engine="sharded"),  # replaces options: default 2
            Scenario(name="rewidth", engine_options={"shards": 1}),  # template name
        ],
        workers=1,
    )
    assert all(o.ok for o in batch)
    assert batch.by_name("inherit").result.extras["shards"] == 4
    assert batch.by_name("narrow").result.extras["shards"] == 3
    assert batch.by_name("reset").result.extras["shards"] == 2
    assert batch.by_name("rewidth").result.extras["shards"] == 1


def test_scenario_engine_options_refused_for_instance_template(en_network):
    template = StressTest(en_network).program("en").engine(ShardedEngine(2))
    # the refusal carries the scenario name (batch error contract)
    with pytest.raises(ConfigurationError, match=r"scenario 'opts'.*Engine instance"):
        template.run_many(
            [Scenario(name="opts", engine_options={"shards": 3})], workers=1
        )


def test_plan_workers_policy():
    assert plan_workers(3, 5) == 3  # historical: no CPU cap for plain runs
    assert plan_workers(8, 2) == 2
    # sharded batches are CPU-bound one-process workers: cap at the budget
    assert plan_workers(2 * cpu_budget(), 4 * cpu_budget(), shard_width=2) == min(
        2 * cpu_budget(), cpu_budget()
    )
    with pytest.raises(ConfigurationError, match="at least 1"):
        plan_workers(0, 3)


def test_sharded_runs_inline_inside_pool_workers(en_network):
    """A daemonic pool worker cannot fork; the engine must degrade inline."""
    graph = en_network.to_en_graph(degree_bound=2)
    resolved = (
        StressTest(en_network)
        .program("en")
        .engine("sharded", shards=3)
        .resolve(iterations=4)
    )
    direct = resolved.engine.execute(
        resolved.program, graph, 4, resolved.config
    )
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=1) as pool:
        nested = pool.apply(
            _execute_in_worker, (resolved.engine, resolved.program, graph, resolved.config)
        )
    assert nested["daemon"] is True
    assert nested["inline"] == 1.0
    assert nested["trajectory"] == direct.trajectory
    assert direct.extras["inline"] == 0.0


def _execute_in_worker(engine, program, graph, config):
    result = engine.execute(program, graph, 4, config)
    return {
        "daemon": in_worker_process(),
        "inline": result.extras["inline"],
        "trajectory": result.trajectory,
    }
