"""Graph squares and distance-at-most-2 neighborhood queries."""

from __future__ import annotations

from typing import Iterable

# SimpleGraph, PlaneGraph's base, is re-exported here beside the squares.
from .plane_graph import SimpleGraph, check_vertex


def neighbors_within2(graph: SimpleGraph, v: int) -> frozenset[int]:
    """All vertices u != v at distance 1 or 2 from v."""
    check_vertex(v, graph.vertex_count)
    adj = graph._adjacency
    out = set(adj[v])
    for u in adj[v]:
        out |= adj[u]
    out.discard(v)
    return frozenset(out)


def square(graph: SimpleGraph) -> SimpleGraph:
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
