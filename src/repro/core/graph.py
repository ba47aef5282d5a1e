"""The distributed property graph DStress computes over (§2).

Each of the N participants knows one vertex, the edges adjacent to it, and
the properties of that vertex; nobody holds the whole graph. This module is
the *logical* graph model: vertices with ordered in/out neighbor lists
(slot order matters — message slot ``t`` corresponds to neighbor ``t``) and
a per-vertex private data dictionary.

The degree bound ``D`` (§3.2 assumption 4) is enforced at construction:
every vertex must fit its in- and out-neighbors into ``D`` slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["VertexView", "DistributedGraph"]


@dataclass
class VertexView:
    """Everything participant ``vertex_id`` knows: its vertex and edges."""

    vertex_id: int
    data: Dict[str, float] = field(default_factory=dict)
    out_neighbors: List[int] = field(default_factory=list)
    in_neighbors: List[int] = field(default_factory=list)

    @property
    def out_degree(self) -> int:
        return len(self.out_neighbors)

    @property
    def in_degree(self) -> int:
        return len(self.in_neighbors)

    def out_slot(self, neighbor: int) -> int:
        """Message slot used for the edge to ``neighbor``."""
        return self.out_neighbors.index(neighbor)

    def in_slot(self, neighbor: int) -> int:
        """Message slot on which ``neighbor``'s messages arrive."""
        return self.in_neighbors.index(neighbor)


class DistributedGraph:
    """A directed graph with per-vertex private data and a degree bound."""

    def __init__(self, degree_bound: int) -> None:
        if degree_bound < 1:
            raise ConfigurationError("degree bound D must be at least 1")
        self.degree_bound = degree_bound
        self._vertices: Dict[int, VertexView] = {}
        self._routes: Optional[List[Tuple[int, int, int, int]]] = None

    # -- construction ---------------------------------------------------------

    def add_vertex(self, vertex_id: int, **data: float) -> VertexView:
        if vertex_id in self._vertices:
            raise ConfigurationError(f"duplicate vertex {vertex_id}")
        view = VertexView(vertex_id=vertex_id, data=dict(data))
        self._vertices[vertex_id] = view
        self._routes = None
        return view

    def add_edge(self, src: int, dst: int, **edge_data: float) -> None:
        """Add the directed edge ``src -> dst``.

        Edge properties are stored on *both* endpoints under slot-indexed
        keys (``out_<name>_<slot>`` at the source, ``in_<name>_<slot>`` at
        the destination) — each participant knows the annotations of its
        adjacent edges (§2) and nothing else.
        """
        if src == dst:
            raise ConfigurationError("self-loops are not allowed")
        source = self._vertices[src]
        dest = self._vertices[dst]
        if dst in source.out_neighbors:
            raise ConfigurationError(f"duplicate edge {src}->{dst}")
        if source.out_degree >= self.degree_bound:
            raise ConfigurationError(
                f"vertex {src} would exceed out-degree bound {self.degree_bound}"
            )
        if dest.in_degree >= self.degree_bound:
            raise ConfigurationError(
                f"vertex {dst} would exceed in-degree bound {self.degree_bound}"
            )
        out_slot = source.out_degree
        in_slot = dest.in_degree
        source.out_neighbors.append(dst)
        dest.in_neighbors.append(src)
        self._routes = None
        for name, value in edge_data.items():
            source.data[f"out_{name}_{out_slot}"] = value
            dest.data[f"in_{name}_{in_slot}"] = value

    # -- access ------------------------------------------------------------------

    @property
    def vertex_ids(self) -> List[int]:
        return sorted(self._vertices)

    @property
    def num_vertices(self) -> int:
        return len(self._vertices)

    @property
    def num_edges(self) -> int:
        return sum(v.out_degree for v in self._vertices.values())

    def vertex(self, vertex_id: int) -> VertexView:
        return self._vertices[vertex_id]

    def vertices(self) -> Iterable[VertexView]:
        return (self._vertices[v] for v in self.vertex_ids)

    def edges(self) -> Iterable[Tuple[int, int]]:
        for view in self.vertices():
            for dst in view.out_neighbors:
                yield (view.vertex_id, dst)

    def routes(self) -> List[Tuple[int, int, int, int]]:
        """Every edge as ``(src, out_slot, dst, in_slot)``, in vertex then
        out-slot order (the order of :meth:`edges`): the message ``src``
        puts on out-slot ``out_slot`` arrives on in-slot ``in_slot`` of
        ``dst``. Built on first use, dropped when the graph changes — a
        round routes by walking this list, not by searching neighbor lists.
        """
        routes = self._routes
        if routes is None:
            in_slots = {
                (src, view.vertex_id): in_slot
                for view in self._vertices.values()
                for in_slot, src in enumerate(view.in_neighbors)
            }
            routes = self._routes = [
                (src, out_slot, dst, in_slots[src, dst])
                for src in self.vertex_ids
                for out_slot, dst in enumerate(self._vertices[src].out_neighbors)
            ]
        return routes

    def max_degree(self) -> int:
        """Largest in- or out-degree actually present."""
        return max(
            (max(v.in_degree, v.out_degree) for v in self._vertices.values()),
            default=0,
        )
