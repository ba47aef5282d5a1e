"""Tests for the distributed graph model."""

import pytest

from repro.core.graph import DistributedGraph
from repro.exceptions import ConfigurationError


def diamond():
    graph = DistributedGraph(degree_bound=2)
    for v in range(4):
        graph.add_vertex(v, weight=float(v))
    graph.add_edge(0, 1, debt=5.0)
    graph.add_edge(0, 2, debt=3.0)
    graph.add_edge(1, 3, debt=2.0)
    graph.add_edge(2, 3, debt=1.0)
    return graph


class TestConstruction:
    def test_vertices_and_edges(self):
        graph = diamond()
        assert graph.num_vertices == 4
        assert graph.num_edges == 4
        assert sorted(graph.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_duplicate_vertex_rejected(self):
        graph = DistributedGraph(2)
        graph.add_vertex(0)
        with pytest.raises(ConfigurationError):
            graph.add_vertex(0)

    def test_self_loop_rejected(self):
        graph = DistributedGraph(2)
        graph.add_vertex(0)
        with pytest.raises(ConfigurationError):
            graph.add_edge(0, 0)

    def test_duplicate_edge_rejected(self):
        graph = DistributedGraph(2)
        graph.add_vertex(0)
        graph.add_vertex(1)
        graph.add_edge(0, 1)
        with pytest.raises(ConfigurationError):
            graph.add_edge(0, 1)

    def test_degree_bound_enforced(self):
        graph = DistributedGraph(1)
        for v in range(3):
            graph.add_vertex(v)
        graph.add_edge(0, 1)
        with pytest.raises(ConfigurationError):
            graph.add_edge(0, 2)  # out-degree of 0 would hit 2 > D=1

    def test_in_degree_bound_enforced(self):
        graph = DistributedGraph(1)
        for v in range(3):
            graph.add_vertex(v)
        graph.add_edge(0, 2)
        with pytest.raises(ConfigurationError):
            graph.add_edge(1, 2)

    def test_bad_degree_bound(self):
        with pytest.raises(ConfigurationError):
            DistributedGraph(0)


class TestSlots:
    def test_slot_order_matches_insertion(self):
        graph = diamond()
        assert graph.vertex(0).out_slot(1) == 0
        assert graph.vertex(0).out_slot(2) == 1
        assert graph.vertex(3).in_slot(1) == 0
        assert graph.vertex(3).in_slot(2) == 1

    def test_edge_data_on_both_endpoints(self):
        graph = diamond()
        assert graph.vertex(0).data["out_debt_0"] == 5.0
        assert graph.vertex(1).data["in_debt_0"] == 5.0
        assert graph.vertex(3).data["in_debt_1"] == 1.0

    def test_vertex_data_preserved(self):
        graph = diamond()
        assert graph.vertex(2).data["weight"] == 2.0

    def test_max_degree(self):
        assert diamond().max_degree() == 2
        empty = DistributedGraph(3)
        assert empty.max_degree() == 0


class TestRoutes:
    @staticmethod
    def derived(graph):
        return [
            (view.vertex_id, out_slot, dst, graph.vertex(dst).in_slot(view.vertex_id))
            for view in graph.vertices()
            for out_slot, dst in enumerate(view.out_neighbors)
        ]

    def test_equals_the_in_slot_derivation(self):
        graph = diamond()
        assert graph.routes() == self.derived(graph)
        assert graph.routes() == [(0, 0, 1, 0), (0, 1, 2, 0), (1, 0, 3, 0), (2, 0, 3, 1)]
        assert [(src, dst) for src, _, dst, _ in graph.routes()] == list(graph.edges())

    def test_vertex_order_is_by_id_not_insertion(self):
        graph = DistributedGraph(degree_bound=2)
        for v in (2, 0, 1):
            graph.add_vertex(v)
        graph.add_edge(2, 0)
        graph.add_edge(1, 0)
        graph.add_edge(0, 2)
        assert graph.routes() == self.derived(graph) == [(0, 0, 2, 0), (1, 0, 0, 1), (2, 0, 0, 0)]

    def test_built_once_and_dropped_when_the_graph_changes(self):
        graph = diamond()
        first = graph.routes()
        assert graph.routes() is first
        graph.add_edge(3, 0, debt=4.0)
        assert (3, 0, 0, 0) in graph.routes()
        assert graph.routes() == self.derived(graph)
        graph.add_vertex(4)
        graph.add_edge(4, 0)
        assert graph.routes()[-1] == (4, 0, 0, 1)

    def test_empty_graph_has_no_routes(self):
        assert DistributedGraph(degree_bound=1).routes() == []
