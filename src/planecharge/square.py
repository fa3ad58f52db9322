"""Graph squares and distance-at-most-2 neighborhood queries."""

from __future__ import annotations

from typing import Iterable, Union

from .errors import UnknownVertex
from .plane_graph import PlaneGraph


class SimpleGraph:
    """Abstract simple graph: vertex count plus neighbor sets."""

    __slots__ = ("vertex_count", "_adjacency")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]]):
        adj: list[set[int]] = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise UnknownVertex(u if not 0 <= u < vertex_count else v)
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

    def adjacency(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self._adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adjacency[u]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adjacency[v])

    def is_complete(self) -> bool:
        n = self.vertex_count
        return self.edge_count == n * (n - 1) // 2

    def _check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < self.vertex_count:
            raise UnknownVertex(v)

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


AnyGraph = Union[PlaneGraph, SimpleGraph]


def as_simple(graph: AnyGraph) -> SimpleGraph:
    if isinstance(graph, SimpleGraph):
        return graph
    return SimpleGraph(graph.vertex_count, graph.edges())


def neighbors_within2(graph: AnyGraph, v: int) -> frozenset[int]:
    """All vertices u != v at distance 1 or 2 from v."""
    adj = graph._adjacency
    if not isinstance(v, int) or not 0 <= v < graph.vertex_count:
        raise UnknownVertex(v)
    out = set(adj[v])
    for u in adj[v]:
        out |= adj[u]
    out.discard(v)
    return frozenset(out)


def square(graph: AnyGraph) -> SimpleGraph:
    """The square: edges between all vertex pairs at distance 1 or 2."""
    n = graph.vertex_count
    edges = []
    for v in range(n):
        for u in neighbors_within2(graph, v):
            if v < u:
                edges.append((v, u))
    return SimpleGraph(n, edges)


def induced_subgraph(
    graph: SimpleGraph, vertices: Iterable[int]
) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Subgraph induced on a vertex set, relabeled to 0..k-1.

    Returns the subgraph together with the kept-id map: entry i of the map
    is the original id of the new vertex i (sorted by original id).
    """
    kept = tuple(sorted(set(vertices)))
    for v in kept:
        if not isinstance(v, int) or not 0 <= v < graph.vertex_count:
            raise UnknownVertex(v)
    index = {v: i for i, v in enumerate(kept)}
    edges = [
        (index[u], index[v])
        for u, v in graph.edges()
        if u in index and v in index
    ]
    return SimpleGraph(len(kept), edges), kept
