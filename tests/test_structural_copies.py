"""Structural copies on the shock and cache-hit paths.

``apply_shock`` copies its network with :meth:`FinancialNetwork.copy` and
every cache store, cache hit and in-batch duplicate copies its result with
:func:`~repro.api.cache.clone_result`. Both rebuild only what can change
(lists, dicts, balance-sheet records, meters) and share what cannot
(frozen contracts, numbers, strings). Three things are held here:

* **isolation** — mutating any mutable part of a copy leaves the stored
  entry, the original and the next copy untouched;
* **fidelity** — a clone's run document equals the original's, for every
  engine, one-shot and windowed;
* **no deep copy** — with ``copy.deepcopy`` patched to raise, a cached
  service re-submit, a ``run_many`` warm replay and ``apply_shock`` still
  succeed, and the call is never made.
"""

import copy
import threading

import pytest

from test_lifecycle import ALL_ENGINES, PLAINTEXT_WAN, make_network, make_test, with_engine
from test_service_server import ServiceHarness, make_doc

from repro.api import Scenario, ScenarioCache
from repro.api.cache import clone_result
from repro.api.diskcache import PersistentScenarioCache
from repro.finance import apply_shock, uniform_shock

FP = "f" * 64
MODES = ("oneshot", "windowed")


def _run(engine, mode):
    if mode == "oneshot":
        session = with_engine(make_test(), engine)
    else:
        session = with_engine(
            make_test(), engine, release="windowed", windows=[1, 1], window_epsilon=0.1
        )
    return session.run(iterations=2)


@pytest.fixture(scope="module")
def results():
    return {(engine, mode): _run(engine, mode) for engine in ALL_ENGINES for mode in MODES}


@pytest.fixture
def rich(results):
    """A result with every mutable part present: final states, traffic,
    phases, releases and extras (the windowed ``plaintext`` run on the
    WAN bus)."""
    return clone_result(results[(PLAINTEXT_WAN, "windowed")])


def _vandalize(result):
    """Mutate every mutable part of ``result`` in place."""
    result.trajectory[0] = -1e9
    result.trajectory.append(-2e9)
    vertex = next(iter(result.final_states))
    result.final_states[vertex]["cash"] = -3e9
    result.final_states[vertex]["extra"] = 1.0
    result.extras["note"] = 1.0
    result.releases[0].value = -4e9
    result.releases.append(result.releases[0])
    node = result.traffic.node_ids[0]
    result.traffic.node(node).bytes_sent += 5e9
    result.traffic.node(10**6).exponentiations += 1
    result.traffic.record_send(node, 10**6, 6e9)
    result.phases.add("vandal", 1.0)
    result.phases.seconds["stage:setup"] = -7e9


class TestFidelity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_clone_document_equals_the_original(self, results, engine, mode):
        result = results[(engine, mode)]
        clone = clone_result(result)
        assert clone is not None and clone is not result
        assert clone.to_doc() == result.to_doc()
        assert clone.trajectory is not result.trajectory
        assert clone.traffic is not result.traffic
        assert clone.phases is not result.phases
        assert clone.extras is not result.extras
        assert list(clone.traffic.nodes()) == list(result.traffic.nodes())
        assert list(clone.traffic.links()) == list(result.traffic.links())
        if result.releases is not None:
            assert all(a is not b for a, b in zip(clone.releases, result.releases))
        if result.final_states is not None:
            assert all(
                clone.final_states[v] is not result.final_states[v]
                for v in result.final_states
            )


class TestIsolation:
    def test_clone_is_independent_of_its_original(self, rich):
        pristine = rich.to_doc()
        clone = clone_result(rich)
        _vandalize(clone)
        assert rich.to_doc() == pristine
        again = clone_result(rich)
        _vandalize(rich)
        assert again.to_doc() == pristine

    def test_scenario_cache_entry_survives_both_sides(self, rich):
        pristine = rich.to_doc()
        cache = ScenarioCache()
        cache.store(FP, rich)
        _vandalize(rich)  # the stored entry is not the caller's object
        hit = cache.lookup(FP)
        assert hit.to_doc() == pristine
        _vandalize(hit)  # nor is it any hit's
        assert cache.lookup(FP).to_doc() == pristine

    def test_persistent_memory_tier_survives_both_sides(self, rich, tmp_path):
        pristine = rich.to_doc()
        cache = PersistentScenarioCache(tmp_path)
        cache.store(FP, rich)
        _vandalize(rich)
        hit = cache.lookup(FP)
        _vandalize(hit)
        assert cache.lookup(FP).to_doc() == pristine
        assert cache.memory_hits == 2 and cache.disk_hits == 0

    def test_in_batch_duplicate_is_its_own_copy(self):
        session = make_test().engine(
            "plaintext", transport="wan", release="windowed", windows=[1, 1], window_epsilon=0.1
        )
        batch = session.run_many(
            [Scenario("p", seed=4, iterations=2), Scenario("q", seed=4, iterations=2)],
            workers=1,
            cache=True,
        )
        primary, duplicate = batch.by_name("p").result, batch.by_name("q").result
        assert batch.by_name("q").cached
        pristine = primary.to_doc()
        _vandalize(primary)
        assert duplicate.to_doc() == pristine

    def test_a_nested_extras_value_is_copied_not_shared(self, rich):
        rich.extras["histogram"] = [1, 2, 3]
        cache = ScenarioCache()
        cache.store(FP, rich)
        cache.lookup(FP).extras["histogram"].append(4)
        assert cache.lookup(FP).extras["histogram"] == [1, 2, 3]

    def test_a_result_deepcopy_refuses_still_misses(self, rich, tmp_path):
        rich.extras["handle"] = threading.Lock()
        with pytest.raises(TypeError):
            copy.deepcopy(rich)
        assert clone_result(rich) is None
        for cache in (ScenarioCache(), PersistentScenarioCache(tmp_path)):
            cache.store(FP, rich)
            assert cache.lookup(FP) is None
            assert len(cache) == 0


class TestNoDeepCopy:
    """The hot paths must not reach ``copy.deepcopy`` at all."""

    @pytest.fixture
    def deepcopy_calls(self, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("copy.deepcopy on a hot path")

        monkeypatch.setattr(copy, "deepcopy", refuse)
        return calls

    def test_apply_shock(self, deepcopy_calls):
        shocked = apply_shock(make_network(), uniform_shock([0, 1], 0.5))
        assert shocked.banks[0].cash == 1.0
        assert deepcopy_calls == []

    def test_run_many_warm_replay(self, deepcopy_calls, tmp_path):
        scenarios = [Scenario(f"s{i}", seed=i, iterations=2) for i in range(3)]
        session = make_test().engine("secure")
        for cache in (ScenarioCache(), PersistentScenarioCache(tmp_path)):
            cold = session.run_many(scenarios, workers=1, cache=cache)
            warm = session.run_many(scenarios, workers=1, cache=cache)
            assert (cold.cache_misses, warm.cache_hits) == (3, 3)
            assert all(outcome.cached for outcome in warm)
            assert [r.to_doc() for r in warm.results] == [
                r.to_doc() for r in cold.results
            ]
        assert deepcopy_calls == []

    def test_service_cached_resubmit(self, deepcopy_calls):
        doc = make_doc(engine="plaintext")
        with ServiceHarness(cache=ScenarioCache()) as harness:
            with harness.client() as client:
                first = client.submit(doc).raise_for_status()
                second = client.submit(doc).raise_for_status()
        assert not first.cached and second.cached
        assert second.result == first.result
        assert harness.service.counters["engine_runs"] == 1
        assert deepcopy_calls == []
