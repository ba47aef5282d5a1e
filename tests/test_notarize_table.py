"""Notarization builds each network spec once: the ``GRAPHS`` table.

A warm spec must be indistinguishable from a cold one — same
fingerprint, digest, canonical text, graph content and service response
— for every document that shares the spec, whatever its name, seed or
epsilon. A refused spec publishes nothing and is refused in the same
words every time; the table stays within its bound and an evicted spec
rebuilds to the same fingerprint; a tabled graph is sealed, and its
pickled copy runs in a worker exactly as a hand-built session does.
"""

import pickle

import pytest

from repro.api.cache import graph_digest, run_fingerprint
from repro.api.pool import create_executor
from repro.api.session import execute_resolved
from repro.core.graph import DistributedGraph, SealedGraph
from repro.core.tokens import stable_token
from repro.exceptions import ConfigurationError, ScenarioValidationError, SealedGraphError
from repro.obs.trace import TraceRecorder, recording
from repro.service.scenario_ast import (
    GRAPH_ELEMENT_BOUND,
    GRAPH_WEIGHT_FLOOR,
    GRAPHS,
    build_network,
    build_session,
    notarize,
    validate_scenario,
)
from repro.service.server import result_payload
from tests.test_service_server import ServiceHarness

ITERATIONS = 2


def make_doc(name="table", seed=7, epsilon=0.23, topology=7, **over):
    doc = {
        "version": 1,
        "name": name,
        "network": {
            "generator": "core-periphery",
            "params": {"num_banks": 12, "core_size": 3},
            "seed": topology,
        },
        "shock": {"targets": [0, 1], "severity": 0.5},
        "program": "eisenberg-noe",
        "engine": "plaintext",
        "preset": "demo",
        "epsilon": epsilon,
        "iterations": ITERATIONS,
        "seed": seed,
    }
    doc.update(over)
    return doc


#: Documents sharing one network spec: they differ in name, seed, epsilon
#: or engine, never in what the graph depends on.
SHARED_SPEC = [
    make_doc(),
    make_doc(name="renamed"),
    make_doc(seed=8),
    make_doc(epsilon=0.5),
    make_doc(engine={"name": "secure", "options": {"backend": "scalar"}}),
]


@pytest.fixture(autouse=True)
def cold_table():
    GRAPHS.clear()
    yield
    GRAPHS.clear()


def stamp(notarized):
    return (
        notarized.fingerprint,
        notarized.digest,
        notarized.canonical,
        stable_token(notarized.resolved.graph),
    )


def untabled_fingerprint(doc):
    """The fingerprint of the run a library caller builds by hand."""
    validated = validate_scenario(doc)
    resolved = build_session(validated).resolve(
        validated.iterations, label=validated.name
    )
    return run_fingerprint(resolved)


def counts():
    """(builds, hits) so far; ``clear()`` leaves the counters running."""
    return GRAPHS.builds, GRAPHS.hits


def tabled_weight():
    return sum(tabled.weight for tabled in GRAPHS._entries.values())


class TestColdAndWarm:
    def test_warm_notarization_is_bit_identical_to_cold(self):
        cold = []
        for doc in SHARED_SPEC:
            GRAPHS.clear()
            cold.append(stamp(notarize(doc)))
        GRAPHS.clear()
        builds, hits = counts()
        warm = [notarize(doc) for doc in reversed(SHARED_SPEC)][::-1]
        assert [stamp(n) for n in warm] == cold
        assert counts() == (builds + 1, hits + len(SHARED_SPEC) - 1)
        assert len({id(n.resolved.graph) for n in warm}) == 1
        for doc, notarized in zip(SHARED_SPEC, warm):
            assert notarized.fingerprint == untabled_fingerprint(doc)
        # the digest in the table is the digest of the graph it holds
        (tabled,) = GRAPHS._entries.values()
        assert tabled.digest == graph_digest(tabled.graph)

    def test_every_graph_determining_field_is_its_own_spec(self):
        specs = [
            make_doc(),
            make_doc(topology=8),
            make_doc(network={"generator": "random", "params": {"num_banks": 12}, "seed": 7}),
            make_doc(shock={"targets": [0, 2], "severity": 0.5}),
            make_doc(shock={"targets": [0, 1], "severity": 0.25}),
            make_doc(program="egj"),
            make_doc(degree_bound=11),
        ]
        builds, _ = counts()
        notarized = [notarize(doc) for doc in specs]
        assert GRAPHS.builds == builds + len(specs) and len(GRAPHS) == len(specs)
        assert len({n.fingerprint for n in notarized}) == len(specs)
        for doc, n in zip(specs, notarized):
            assert n.fingerprint == untabled_fingerprint(doc)

    def test_service_responses_are_bit_identical_cold_and_warm(self):
        bodies = []
        builds, _ = counts()
        for order in (range(len(SHARED_SPEC)), reversed(range(len(SHARED_SPEC)))):
            # a new service each time: its own notarization memo starts empty
            with ServiceHarness(max_workers=1) as harness, harness.client() as client:
                bodies.append(
                    {i: client.submit(SHARED_SPEC[i]).raise_for_status().body for i in order}
                )
            assert GRAPHS.builds == builds + 1
        assert bodies[0] == bodies[1]

    def test_the_table_reports_to_the_ambient_recorder(self):
        counters = []
        for _ in range(2):
            recorder = TraceRecorder()
            with recording(recorder):
                notarize(make_doc())
            counters.append(dict(recorder.metrics.counters))
        assert counters[0].get("service.graphs.builds") == 1.0
        assert counters[1].get("service.graphs.hits") == 1.0
        assert "service.graphs.builds" not in counters[1]


class TestRefusals:
    @pytest.mark.parametrize(
        "doc, words",
        [
            (make_doc(shock={"targets": [0, 40], "severity": 0.5}), "network has only 12 banks"),
            (make_doc(degree_bound=1), "failed to resolve: vertex"),
        ],
        ids=["target-outside-banks", "degree-bound-too-small"],
    )
    def test_a_refused_spec_is_refused_identically_and_publishes_nothing(self, doc, words):
        messages = set()
        before = counts()
        for _ in range(3):
            with pytest.raises(ScenarioValidationError) as refused:
                notarize(doc)
            messages.add(str(refused.value))
        (message,) = messages
        assert words in message
        assert len(GRAPHS) == 0 and counts() == before
        # a valid document over the same generator still builds its own graph
        notarize(make_doc())
        assert len(GRAPHS) == 1

    @pytest.mark.parametrize(
        "overrides, words",
        [
            ({}, "would exceed out-degree bound"),
        ],
        ids=["graph-fault"],
    )
    def test_a_refused_build_words_its_refusal_as_the_cold_resolve_does(
        self, overrides, words
    ):
        doc = make_doc(degree_bound=1, overrides=overrides)
        validated = validate_scenario(doc)
        with pytest.raises(ConfigurationError) as cold:
            build_session(validated).resolve(ITERATIONS)
        with pytest.raises(ScenarioValidationError) as refused:
            notarize(doc)
        assert words in str(cold.value)
        assert str(refused.value) == f"scenario 'table' failed to resolve: {cold.value}"
        assert len(GRAPHS) == 0


class TestBound:
    def test_the_bound_is_a_constant_and_holds_few_graphs(self):
        assert GRAPHS.bound == GRAPH_ELEMENT_BOUND
        tiny = make_doc(network={"generator": "random", "params": {"num_banks": 2}, "seed": 1})
        notarize(tiny)
        (tabled,) = GRAPHS._entries.values()
        assert tabled.weight == GRAPH_WEIGHT_FLOOR
        assert GRAPH_ELEMENT_BOUND // GRAPH_WEIGHT_FLOOR == 128

    def test_a_flood_of_specs_stays_within_the_bound(self, monkeypatch):
        first = notarize(make_doc(topology=0))
        per_graph = tabled_weight()
        monkeypatch.setattr(GRAPHS, "bound", 3 * per_graph + per_graph // 2)
        for topology in range(1, 12):
            notarize(make_doc(topology=topology))
            assert tabled_weight() <= GRAPHS.bound
        assert len(GRAPHS) == 3
        # the first spec was evicted: it rebuilds, to the same fingerprint
        builds = GRAPHS.builds
        again = notarize(make_doc(topology=0))
        assert GRAPHS.builds == builds + 1
        assert stamp(again) == stamp(first)
        assert again.resolved.graph is not first.resolved.graph

    def test_a_graph_above_the_bound_is_built_and_not_kept(self, monkeypatch):
        monkeypatch.setattr(GRAPHS, "bound", 1)
        builds, _ = counts()
        first = notarize(make_doc())
        second = notarize(make_doc())
        assert len(GRAPHS) == 0 and GRAPHS.builds == builds + 2
        assert stamp(first) == stamp(second)
        assert isinstance(first.resolved.graph, SealedGraph)


class TestSealedGraph:
    def test_a_tabled_graph_refuses_mutation(self):
        graph = notarize(make_doc()).resolved.graph
        before = stable_token(graph)
        assert isinstance(graph, SealedGraph) and isinstance(graph, DistributedGraph)
        with pytest.raises(SealedGraphError):
            graph.add_vertex(99, cash=1.0)
        with pytest.raises(SealedGraphError):
            graph.add_edge(0, 2, debt=1.0)
        assert stable_token(graph) == before
        assert issubclass(SealedGraphError, ConfigurationError)

    def test_graphs_built_outside_the_table_stay_unsealed(self):
        graph = build_network(validate_scenario(make_doc())).to_en_graph()
        assert type(graph) is DistributedGraph
        graph.add_vertex(99, cash=1.0)

    def test_a_pickled_tabled_run_is_bit_identical_in_a_worker(self):
        doc = make_doc(
            network={"generator": "random", "params": {"num_banks": 5}, "seed": 3},
            engine={"name": "secure", "options": {"backend": "scalar"}},
            iterations=1,
        )
        notarized = notarize(doc)
        copied = pickle.loads(pickle.dumps(notarized.resolved))
        assert isinstance(copied.graph, SealedGraph)
        with pytest.raises(SealedGraphError):
            copied.graph.add_vertex(99)
        executor = create_executor(1)
        try:
            remote = executor.submit(execute_resolved, notarized.resolved).result(timeout=120)
        finally:
            executor.shutdown()
        direct = build_session(validate_scenario(doc)).run(iterations=1)
        assert result_payload(remote) == result_payload(direct)
        assert remote.traffic.summary() == direct.traffic.summary()
