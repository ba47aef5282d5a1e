"""Streaming batch runs and the scenario-level result cache.

Streaming must change *when* outcomes arrive, never *what* they contain:
every streamed outcome is bit-identical to its barriered sibling, at any
worker count, in any completion order. The cache must only ever err
toward a miss: identical (network, config, program, engine + options,
seed) tuples reuse the prior result — and skip the accountant — while
anything unfingerprintable always executes.
"""

import math

import pytest

from repro import StressTest
from repro.api import AsyncEngine, Scenario, ScenarioCache, run_fingerprint
from repro.core.transport import InMemoryTransport
from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ConfigurationError, PrivacyBudgetExceeded
from repro.finance import apply_shock, uniform_shock
from repro.graphgen import CorePeripheryParams, core_periphery_network
from repro.privacy.budget import PrivacyAccountant

SEED = 123


@pytest.fixture(scope="module")
def network():
    net = core_periphery_network(
        CorePeripheryParams(num_banks=10, core_size=3), DeterministicRNG(11)
    )
    return apply_shock(net, uniform_shock(range(0, 3), 0.9, "core-shock"))


@pytest.fixture
def template(network):
    return StressTest(network).program("eisenberg-noe").seed(SEED)


def _sweep(count, iterations=3):
    return [Scenario(f"s{i}", seed=i, iterations=iterations) for i in range(count)]


# ---------------------------------------------------------------- streaming --


def test_streaming_outcomes_are_ordering_independent(template):
    """Whatever order workers finish in, the streamed set equals the
    barriered batch bit-for-bit."""
    scenarios = _sweep(6)
    barriered = {o.name: o for o in template.run_many(scenarios, workers=1)}
    streamed = list(template.run_many_iter(scenarios, workers=3))
    assert sorted(o.name for o in streamed) == sorted(barriered)
    for outcome in streamed:
        assert outcome.ok
        sibling = barriered[outcome.name]
        assert outcome.result.aggregate == sibling.result.aggregate
        assert outcome.result.trajectory == sibling.result.trajectory
        assert outcome.result.final_states == sibling.result.final_states


def test_streaming_inline_yields_in_input_order(template):
    scenarios = _sweep(4)
    names = [o.name for o in template.run_many_iter(scenarios, workers=1)]
    assert names == [s.name for s in scenarios]


def test_streaming_is_lazy_but_fails_eagerly(template):
    # a bad scenario refuses the whole batch at call time, before any
    # outcome is consumed — same contract as the barriered path
    with pytest.raises(ConfigurationError, match="failed to resolve"):
        template.run_many_iter([Scenario("typo", engine="sahrded")])
    # an unaffordable batch is refused before the first next() too
    accountant = PrivacyAccountant(epsilon_max=0.05)
    scenarios = [
        Scenario(
            "too-expensive",
            engine="fixed",
            engine_options={"release": "windowed", "windows": [2]},
            epsilon=0.1,
            iterations=2,
        )
    ]
    with pytest.raises(PrivacyBudgetExceeded):
        template.run_many_iter(scenarios, accountant=accountant)
    assert accountant.spent == 0.0


def test_streaming_failure_does_not_block_other_outcomes(template, network):
    from repro.core.transport import FaultInjectingTransport

    src, dst = next(iter(network.to_en_graph(None).edges()))
    faulty = AsyncEngine(
        tasks=2, transport=FaultInjectingTransport(drop=[(src, dst, 0)])
    )
    scenarios = [
        Scenario("ok-1", iterations=2),
        Scenario("boom", iterations=2, engine=faulty),
        Scenario("ok-2", iterations=2, seed=9),
    ]
    outcomes = list(template.run_many_iter(scenarios, workers=2))
    by_name = {o.name: o for o in outcomes}
    assert sorted(by_name) == ["boom", "ok-1", "ok-2"]
    assert by_name["ok-1"].ok and by_name["ok-2"].ok
    assert not by_name["boom"].ok
    assert "boom" in by_name["boom"].error and "dropped" in by_name["boom"].error


# -------------------------------------------------------------------- cache --


def test_cache_reuses_identical_scenarios_across_batches(template):
    cache = ScenarioCache()
    first = template.run_many(_sweep(3), cache=cache)
    assert (first.cache_hits, first.cache_misses) == (0, 3)
    # same scenarios under new labels: all hits, results bit-identical
    relabeled = [Scenario(f"other-{i}", seed=i, iterations=3) for i in range(3)]
    second = template.run_many(relabeled, cache=cache)
    assert (second.cache_hits, second.cache_misses) == (3, 0)
    for i in range(3):
        hit = second.by_name(f"other-{i}")
        assert hit.cached
        assert hit.result.aggregate == first.by_name(f"s{i}").result.aggregate
        assert hit.result.trajectory == first.by_name(f"s{i}").result.trajectory
    assert "cache=3h/0m" in second.summary()


def test_cache_misses_on_any_input_delta(template):
    cache = ScenarioCache()
    base = Scenario("base", seed=1, iterations=3)
    template.run_many([base], cache=cache)
    deltas = [
        Scenario("new-seed", seed=2, iterations=3),
        Scenario("new-iters", seed=1, iterations=4),
        Scenario("new-epsilon", seed=1, iterations=3, epsilon=0.4),
        Scenario(
            "new-engine", seed=1, iterations=3, engine="async",
            engine_options={"tasks": 2},
        ),
    ]
    result = template.run_many(deltas, cache=cache)
    assert (result.cache_hits, result.cache_misses) == (0, 4)


def test_in_batch_duplicates_execute_once(template):
    scenarios = [
        Scenario("primary", seed=4, iterations=3),
        Scenario("duplicate", seed=4, iterations=3),
        Scenario("different", seed=5, iterations=3),
    ]
    batch = template.run_many(scenarios, cache=True)
    assert (batch.cache_hits, batch.cache_misses) == (1, 2)
    dup = batch.by_name("duplicate")
    assert dup.cached
    assert dup.result.aggregate == batch.by_name("primary").result.aggregate
    assert not batch.by_name("different").cached


def test_failed_duplicates_are_not_hits(template):
    from repro.api import Engine
    from repro.exceptions import DStressError

    class FailingEngine(Engine):
        name = "always-fails"

        def execute(self, program, graph, iterations, config, accountant=None):
            raise DStressError("engine exploded")

    engine = FailingEngine()
    batch = template.run_many(
        [
            Scenario("first", engine=engine, iterations=2),
            Scenario("second", engine=engine, iterations=2),
        ],
        cache=True,
    )
    # the duplicate reports the failure under its own name, is NOT marked
    # cached, and registers no hit — failures are never reused as successes
    assert not batch.by_name("first").ok
    second = batch.by_name("second")
    assert not second.ok and not second.cached
    # the error names THIS scenario (the invariant every failed outcome
    # keeps), while still attributing the run that actually failed
    assert "'second'" in second.error and "'first'" in second.error
    assert "engine exploded" in second.error
    assert batch.cache_hits == 0


def test_abandoned_stream_refunds_uncompleted_releases(template):
    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    scenarios = [
        Scenario(
            f"release-{i}",
            engine="fixed",
            engine_options={"release": "windowed", "windows": [2]},
            epsilon=0.1,
            seed=i,
            iterations=2,
        )
        for i in range(4)
    ]
    stream = template.run_many_iter(scenarios, accountant=accountant)
    # the whole batch is pre-charged (eager refusal contract)...
    assert accountant.spent == pytest.approx(0.4)
    first = next(stream)
    assert first.ok
    stream.close()
    # ...but abandoning it refunds the releases that never happened
    assert accountant.spent == pytest.approx(0.1)
    # a stream that is never even started refunds everything on close
    untouched = template.run_many_iter(scenarios, accountant=accountant)
    assert accountant.spent == pytest.approx(0.1 + 0.4)
    untouched.close()
    assert accountant.spent == pytest.approx(0.1)
    # a fully-consumed stream keeps every charge
    stream2 = template.run_many_iter(scenarios, accountant=accountant)
    assert sum(1 for _ in stream2) == 4
    assert accountant.spent == pytest.approx(0.1 + 0.4)


def test_pool_failure_refunds_barriered_batch(template, monkeypatch):
    # a pool that cannot start released nothing: every pre-charge comes
    # back. An engine that cannot be pickled needs not be (the workers
    # inherit it at fork), and its failure there is refunded the same way
    from repro.api import Engine
    from repro.api import pool as pool_mod
    from repro.api.pool import in_worker_process
    from repro.exceptions import ProtocolError

    class UnpicklableReleasingEngine(Engine):
        name = "unpicklable-releasing"
        releases_output = True

        def __init__(self):
            self.hook = lambda: None  # lambdas cannot pickle

        def execute(self, program, graph, iterations, config, accountant=None):
            raise ProtocolError(f"in a worker: {in_worker_process()}")

    def refuse(processes):
        raise OSError("fork refused")

    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    scenarios = [
        Scenario(f"s{i}", engine=UnpicklableReleasingEngine(), epsilon=0.1, iterations=2)
        for i in range(2)
    ]
    with monkeypatch.context() as patch:
        patch.setattr(pool_mod, "create_executor", refuse)
        with pytest.raises(OSError, match="fork refused"):
            template.run_many(scenarios, workers=2, accountant=accountant)
    assert accountant.spent == 0.0

    batch = template.run_many(scenarios, workers=2, accountant=accountant)
    assert all("in a worker: True" in outcome.error for outcome in batch)
    assert accountant.spent == 0.0 and batch.epsilon_charged == 0.0
    assert accountant.reconcile().ok


def test_refused_batch_rolls_back_cache_counters(template):
    cache = ScenarioCache()
    template.run_many([Scenario("warm", seed=2, iterations=3)], cache=cache)
    hits, misses = cache.hits, cache.misses
    accountant = PrivacyAccountant(epsilon_max=0.05)
    scenarios = [
        Scenario("warm-dup", seed=2, iterations=3),
        Scenario(
            "unaffordable",
            engine="fixed",
            engine_options={"release": "windowed", "windows": [2]},
            epsilon=0.1,
            iterations=2,
        ),
    ]
    with pytest.raises(PrivacyBudgetExceeded):
        template.run_many(scenarios, accountant=accountant, cache=cache)
    # nothing ran, so the shared cache's telemetry must not remember it
    assert (cache.hits, cache.misses) == (hits, misses)


def test_cache_hits_skip_the_accountant(template):
    cache = ScenarioCache()
    accountant = PrivacyAccountant(epsilon_max=math.log(2))
    scenarios = [
        Scenario(
            "release",
            engine="fixed",
            engine_options={"release": "windowed", "windows": [2]},
            epsilon=0.1,
            iterations=2,
        )
    ]
    first = template.run_many(scenarios, accountant=accountant, cache=cache)
    assert first.epsilon_charged == pytest.approx(0.1)
    assert accountant.spent == pytest.approx(0.1)
    # the identical release replays the published value: no fresh budget
    second = template.run_many(scenarios, accountant=accountant, cache=cache)
    assert second.cache_hits == 1
    assert second.epsilon_charged == 0.0
    assert accountant.spent == pytest.approx(0.1)
    assert (
        second.by_name("release").result.aggregate
        == first.by_name("release").result.aggregate
    )


def test_unfingerprintable_engines_never_hit(template):
    # a live Transport instance has no stable content token, so the run
    # must execute every time — a cache may only ever err toward a miss
    cache = ScenarioCache()
    engine = AsyncEngine(tasks=2, transport=InMemoryTransport())
    scenarios = [Scenario("opaque", engine=engine, iterations=2)]
    for _ in range(2):
        batch = template.run_many(scenarios, cache=cache)
        assert batch.cache_hits == 0
    assert cache.misses == 2
    assert len(cache) == 0


def test_abandoned_stream_rolls_back_cache_telemetry(template):
    cache = ScenarioCache()
    stream = template.run_many_iter(_sweep(4), workers=1, cache=cache)
    first = next(stream)
    assert first.ok
    stream.close()
    # only the one scenario that executed stays counted as a miss
    assert (cache.hits, cache.misses) == (0, 1)
    # a cached outcome that WAS delivered keeps its hit on abandon...
    stream = template.run_many_iter(
        [Scenario("again-0", seed=0, iterations=3), Scenario("fresh", seed=50, iterations=3)],
        workers=1,
        cache=cache,
    )
    delivered = next(stream)
    assert delivered.cached
    stream.close()
    assert (cache.hits, cache.misses) == (1, 1)
    # ...and an in-batch duplicate abandoned before delivery counts no hit
    stream = template.run_many_iter(
        [Scenario("p", seed=60, iterations=3), Scenario("q", seed=60, iterations=3)],
        workers=1,
        cache=cache,
    )
    primary = next(stream)
    assert primary.ok and not primary.cached
    stream.close()  # the duplicate 'q' was cloned but never delivered
    assert (cache.hits, cache.misses) == (1, 2)


def test_streaming_with_cache_yields_hits_immediately(template):
    cache = ScenarioCache()
    template.run_many(_sweep(2), cache=cache)
    mixed = [
        Scenario("hit-a", seed=0, iterations=3),
        Scenario("fresh", seed=77, iterations=3),
        Scenario("hit-b", seed=1, iterations=3),
    ]
    outcomes = list(template.run_many_iter(mixed, workers=2, cache=cache))
    # cache hits arrive before any executed scenario completes
    assert [o.name for o in outcomes[:2]] == ["hit-a", "hit-b"]
    assert all(o.cached for o in outcomes[:2])
    assert outcomes[2].name == "fresh" and not outcomes[2].cached


def test_cache_entries_are_isolated_from_consumer_mutation(template):
    cache = ScenarioCache()
    scenarios = [Scenario("base", seed=3, iterations=3)]
    first = template.run_many(scenarios, cache=cache)
    pristine = list(first.by_name("base").result.trajectory)
    # vandalize both the original result and a cache hit's result
    first.by_name("base").result.trajectory[0] = -1e9
    hit_one = template.run_many([Scenario("hit-1", seed=3, iterations=3)], cache=cache)
    hit_one.by_name("hit-1").result.extras["note"] = 1.0
    hit_one.by_name("hit-1").result.trajectory[-1] = -2e9
    # the next hit still sees the golden copy
    hit_two = template.run_many([Scenario("hit-2", seed=3, iterations=3)], cache=cache)
    result = hit_two.by_name("hit-2").result
    assert result.trajectory == pristine
    assert "note" not in result.extras
    # in-batch duplicates are isolated from each other too
    batch = template.run_many(
        [Scenario("p", seed=6, iterations=3), Scenario("q", seed=6, iterations=3)],
        cache=True,
    )
    batch.by_name("p").result.trajectory[0] = -3e9
    assert batch.by_name("q").result.trajectory[0] != -3e9


def test_streamed_duplicates_isolated_from_primary_mutation(template):
    # the duplicate's copy must be taken BEFORE the primary is handed to
    # the consumer — mutating the primary mid-stream must not bleed over
    stream = template.run_many_iter(
        [Scenario("p", seed=5, iterations=3), Scenario("q", seed=5, iterations=3)],
        cache=True,
    )
    primary = next(stream)
    assert primary.name == "p"
    pristine = list(primary.result.trajectory)
    primary.result.trajectory.clear()
    duplicate = next(stream)
    assert duplicate.name == "q" and duplicate.cached
    assert duplicate.result.trajectory == pristine


def test_cache_argument_validation(template, tmp_path):
    with pytest.raises(ConfigurationError, match="cache must be"):
        template.run_many(_sweep(1), cache=42)
    # a string is a directory path now: it builds the persistent cache
    batch = template.run_many(_sweep(1), cache=str(tmp_path / "store"))
    assert batch.cache_misses == 1
    assert (tmp_path / "store").is_dir()


def test_impostor_engine_class_never_hits_the_real_ones_cache(template):
    # same registry name, no constructor options, different class: the
    # fingerprint must differ — a wrong hit would silently substitute the
    # builtin's result for the impostor's (cache may only err toward miss)
    from repro.api import Engine

    class ImpostorEngine(Engine):
        name = "plaintext"

        def execute(self, program, graph, iterations, config, accountant=None):
            raise AssertionError("the cache should not have let this run vanish")

    cache = ScenarioCache()
    template.run_many([Scenario("real", seed=1, iterations=3)], cache=cache)
    resolved_real = template.clone().resolve(3, label="x")
    impostor_session = template.clone().engine(ImpostorEngine())
    resolved_fake = impostor_session.resolve(3, label="x")
    assert run_fingerprint(resolved_real) != run_fingerprint(resolved_fake)


def test_fingerprint_semantics(template):
    resolved_a = template.clone().resolve(3, label="a")
    resolved_b = template.clone().resolve(3, label="b")
    # labels are excluded: renaming must not defeat the cache
    assert run_fingerprint(resolved_a) == run_fingerprint(resolved_b)
    resolved_c = template.clone().seed(999).resolve(3, label="a")
    assert run_fingerprint(resolved_a) != run_fingerprint(resolved_c)
    # auto-iteration specs fingerprint their tolerance/cap
    auto_tight = template.clone().resolve("auto", tolerance=1e-6, label="a")
    auto_loose = template.clone().resolve("auto", tolerance=1e-2, label="a")
    assert run_fingerprint(auto_tight) != run_fingerprint(auto_loose)
