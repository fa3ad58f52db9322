"""Graph squares and distance-at-most-2 neighborhood queries."""

from __future__ import annotations

from typing import Iterable, Union

from .errors import SelfLoop
from .plane_graph import PlaneGraph, check_vertex


class SimpleGraph:
    """Abstract simple graph: vertex count plus neighbor sets.

    It answers ``vertex_count``, ``neighbors``, ``edges`` and ``has_edge``
    as ``PlaneGraph`` does, so every consumer of those takes either type.
    """

    __slots__ = ("vertex_count", "_adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            check_vertex(u, vertex_count)
            check_vertex(v, vertex_count)
            if u == v:
                raise SelfLoop(u)
            adj[u].add(v)
            adj[v].add(u)
        self.vertex_count = vertex_count
        self._adjacency = tuple(frozenset(s) for s in adj)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (u, v)
            for u in range(self.vertex_count)
            for v in self._adjacency[u]
            if u < v
        )

    def neighbors(self, v: int) -> frozenset[int]:
        check_vertex(v, self.vertex_count)
        return self._adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        check_vertex(u, self.vertex_count)
        check_vertex(v, self.vertex_count)
        return v in self._adjacency[u]

    def degree(self, v: int) -> int:
        check_vertex(v, self.vertex_count)
        return len(self._adjacency[v])

    def is_complete(self) -> bool:
        n = self.vertex_count
        return self.edge_count == n * (n - 1) // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self._adjacency == other._adjacency
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self._adjacency))

    def __repr__(self) -> str:
        return f"SimpleGraph(V={self.vertex_count}, E={self.edge_count})"


def neighbors_within2(
    graph: Union[PlaneGraph, SimpleGraph], v: int
) -> frozenset[int]:
    """All vertices u != v at distance 1 or 2 from v."""
    check_vertex(v, graph.vertex_count)
    adj = graph._adjacency
    out = set(adj[v])
    for u in adj[v]:
        out |= adj[u]
    out.discard(v)
    return frozenset(out)


def square(graph: Union[PlaneGraph, SimpleGraph]) -> SimpleGraph:
    """The square: edges between all vertex pairs at distance 1 or 2."""
    n = graph.vertex_count
    edges = []
    for v in range(n):
        for u in neighbors_within2(graph, v):
            if v < u:
                edges.append((v, u))
    return SimpleGraph(n, edges)


def induced_subgraph(
    graph: Union[PlaneGraph, SimpleGraph], vertices: Iterable[int]
) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Subgraph induced on a vertex set, relabeled to 0..k-1.

    Returns the subgraph together with the kept-id map: entry i of the map
    is the original id of the new vertex i (sorted by original id).
    """
    vertices = list(vertices)
    for v in vertices:
        check_vertex(v, graph.vertex_count)
    kept = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(kept)}
    edges = [
        (index[u], index[v])
        for u, v in graph.edges()
        if u in index and v in index
    ]
    return SimpleGraph(len(kept), edges), kept
