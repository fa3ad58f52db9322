"""Combinatorial plane graphs given by rotation systems.

A plane graph is stored as a half-edge structure: every undirected edge
contributes two directed half-edges, and the cyclic order of half-edges
around each vertex (the rotation) determines the embedding.  Faces are
traced eagerly at construction time and cached; all queries are pure, so
instances are safe to share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AsymmetricAdjacency,
    DuplicateNeighbor,
    KOutOfRange,
    SelfLoop,
    UnknownVertex,
)

RotationSpec = Sequence[Sequence[int]]

# The class's degree bound: no vertex of a member has more neighbours.
MAX_DEGREE = 4

# The cycle lengths adjacency_has_cycle_of_length searches for.
CYCLE_LENGTHS = range(3, 9)


@dataclass(frozen=True)
class ClassReport:
    """Membership report for the class: planar-embedded, max degree 4, no 5-cycles."""

    is_simple: bool
    is_connected: bool
    max_degree: int
    has_5_cycle: bool
    euler_ok: bool
    in_class: bool


class PlaneGraph:
    """Immutable plane graph.

    Half-edge ``h`` runs from ``origin[h]`` to ``target[h]``; ``twin[h]`` is the
    opposite half-edge and ``next_around_origin[h]`` the next half-edge in the
    rotation at ``origin[h]``.  ``faces[i]`` is the i-th traced face walk as a
    tuple of half-edge ids.
    """

    __slots__ = (
        "vertex_count",
        "rotation",
        "origin",
        "target",
        "twin",
        "next_around_origin",
        "faces",
        "face_of",
        "_half_edge_at",
        "_adjacency",
        "_face_vertex_sets",
    )

    def __init__(self, rotation: RotationSpec):
        rotation = tuple(tuple(nbrs) for nbrs in rotation)
        n = len(rotation)
        _validate_rotation(n, rotation)

        # The half-edges out of u are numbered consecutively in rotation
        # order, so the next one around u is found by arithmetic.
        origin = [u for u, nbrs in enumerate(rotation) for _ in nbrs]
        target = [v for nbrs in rotation for v in nbrs]
        nxt = list(range(1, len(origin) + 1))
        first = 0
        for nbrs in rotation:
            if nbrs:  # the last half-edge out of u wraps to its first
                nxt[first + len(nbrs) - 1] = first
                first += len(nbrs)
        half_edge_at = dict(zip(zip(origin, target), range(len(origin))))
        twin = [half_edge_at.get(e) for e in zip(target, origin)]
        if None in twin:  # u lists v but v does not list u
            h = twin.index(None)
            raise AsymmetricAdjacency(origin[h], target[h])

        self.vertex_count = n
        self.rotation = rotation
        self.origin = tuple(origin)
        self.target = tuple(target)
        self.twin = tuple(twin)
        self.next_around_origin = tuple(nxt)
        self._half_edge_at = half_edge_at
        self._adjacency = tuple(map(frozenset, rotation))
        self.faces, self.face_of = _trace_faces(twin, nxt)
        self._face_vertex_sets = tuple(
            frozenset(map(origin.__getitem__, walk)) for walk in self.faces
        )

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.origin) // 2

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def degree(self, v: int) -> int:
        check_vertex(v, self.vertex_count)
        return len(self.rotation[v])

    def neighbors(self, v: int) -> frozenset[int]:
        check_vertex(v, self.vertex_count)
        return self._adjacency[v]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return sorted(
            (self.origin[h], self.target[h])
            for h in range(len(self.origin))
            if self.origin[h] < self.target[h]
        )

    def has_edge(self, u: int, v: int) -> bool:
        check_vertex(u, self.vertex_count)
        check_vertex(v, self.vertex_count)
        return v in self._adjacency[u]

    def half_edge(self, u: int, v: int) -> int:
        return self._half_edge_at[(u, v)]

    def face_length(self, i: int) -> int:
        return len(self.faces[i])

    def face_lengths(self) -> list[int]:
        return [len(f) for f in self.faces]

    def face_vertices(self, i: int) -> tuple[int, ...]:
        """Vertices along the walk of face i, with multiplicity."""
        return tuple(self.origin[h] for h in self.faces[i])

    def face_vertex_set(self, i: int) -> frozenset[int]:
        return self._face_vertex_sets[i]

    def faces_at(self, v: int) -> list[int]:
        """Face indices incident to v, with multiplicity (one per corner)."""
        check_vertex(v, self.vertex_count)
        out = []
        for u in self.rotation[v]:
            out.append(self.face_of[self._half_edge_at[(v, u)]])
        return out

    def opposite_face(self, h: int) -> int:
        """Face on the other side of half-edge h's underlying edge."""
        return self.face_of[self.twin[h]]

    def components(self) -> list[frozenset[int]]:
        seen = [False] * self.vertex_count
        comps = []
        for s in range(self.vertex_count):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = {s}
            while stack:
                u = stack.pop()
                for v in self._adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.add(v)
                        stack.append(v)
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def __repr__(self) -> str:
        return (
            f"PlaneGraph(V={self.vertex_count}, E={self.edge_count}, "
            f"F={self.face_count})"
        )


def check_vertex(v: int, n: int) -> None:
    """Raise UnknownVertex unless v is a vertex id of an n-vertex graph: an
    int in 0..n-1.  A bool is not a vertex id, though Python counts it as
    an int."""
    if type(v) is not int or not 0 <= v < n:
        raise UnknownVertex(v)


def _validate_rotation(n: int, rotation: tuple[tuple[int, ...], ...]) -> None:
    """Reject unknown ids, self-listings and duplicates; ``PlaneGraph``
    rejects asymmetric lists when it pairs up twin half-edges."""
    for u, nbrs in enumerate(rotation):
        seen: set[int] = set()
        for v in nbrs:
            check_vertex(v, n)
            if v == u:
                raise SelfLoop(u)
            if v in seen:
                raise DuplicateNeighbor(u, v)
            seen.add(v)


def _trace_faces(
    twin: Sequence[int], nxt: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Face walks and the face of each half-edge.  The face successor of h
    is ``nxt[twin[h]]``; its orbits are the faces."""
    face_of = [-1] * len(twin)
    faces: list[tuple[int, ...]] = []
    for start in range(len(twin)):
        if face_of[start] >= 0:
            continue
        walk = []
        h = start
        while face_of[h] < 0:
            face_of[h] = len(faces)
            walk.append(h)
            h = nxt[twin[h]]
        faces.append(tuple(walk))
    return tuple(faces), tuple(face_of)


def build_from_rotation(spec: RotationSpec) -> PlaneGraph:
    """Build a plane graph from per-vertex cyclic neighbor lists.

    The lists must be symmetric (u lists v iff v lists u), with no
    self-listings and no duplicates; violations raise AsymmetricAdjacency,
    SelfLoop or DuplicateNeighbor naming the offending pair.
    """
    return PlaneGraph(spec)


def adjacency_has_cycle_of_length(adjacency: Sequence[Iterable[int]], k: int) -> bool:
    """Exhaustive search for a simple cycle of exactly length k, for k in
    ``CYCLE_LENGTHS``.

    Works on any adjacency structure; each cycle is rooted at its smallest
    vertex so the search space stays tiny for the graphs handled here.  An
    odd k on a bipartite graph is answered by 2-coloring alone.
    """
    if k not in CYCLE_LENGTHS:
        raise KOutOfRange(k, CYCLE_LENGTHS)
    adj = [set(nbrs) for nbrs in adjacency]
    n = len(adj)
    if k % 2 and _is_bipartite(adj):
        return False

    def extend(root: int, path: list[int], on_path: set[int]) -> bool:
        if len(path) == k:
            return root in adj[path[-1]]
        for w in adj[path[-1]]:
            if w <= root or w in on_path:
                continue
            # Closing early would make a shorter cycle, not a k-cycle.
            path.append(w)
            on_path.add(w)
            if extend(root, path, on_path):
                return True
            path.pop()
            on_path.remove(w)
        return False

    for root in range(n):
        if extend(root, [root], {root}):
            return True
    return False


def _is_bipartite(adj: Sequence[set[int]]) -> bool:
    side = [-1] * len(adj)
    for s in range(len(adj)):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if side[v] < 0:
                    side[v] = side[u] ^ 1
                    stack.append(v)
                elif side[v] == side[u]:
                    return False
    return True


def has_cycle_of_length(graph: PlaneGraph, k: int) -> bool:
    """True iff the graph contains a simple cycle of exactly length k."""
    return adjacency_has_cycle_of_length(graph._adjacency, k)


def class_membership(graph: PlaneGraph) -> ClassReport:
    """Report whether the graph lies in the verified class.

    Membership = simple, max degree <= 4, no 5-cycle, plane embedding.
    Connectivity is reported but not required; disconnected inputs are the
    caller's business (they are themselves a reducible case).

    The embedding is plane iff V - E + F = 2C - I, for C components of
    which I are lone vertices: a component with an edge has V - E + F =
    2 - 2g for the genus g of its rotation system, a lone vertex has 1, so
    the sum reaches that bound exactly when every genus is 0.
    """
    max_deg = max(map(len, graph.rotation), default=0)
    has5 = has_cycle_of_length(graph, 5)
    components = len(graph.components())
    euler_ok = (
        graph.vertex_count - graph.edge_count + graph.face_count
        == 2 * components - graph.rotation.count(())
    )
    in_class = max_deg <= MAX_DEGREE and not has5 and euler_ok
    return ClassReport(
        is_simple=True,  # construction rejects loops and parallel edges
        is_connected=components <= 1,
        max_degree=max_deg,
        has_5_cycle=has5,
        euler_ok=euler_ok,
        in_class=in_class,
    )


# -- graph file format --------------------------------------------------------
#
# A graph file is a JSON document {"n": <int>, "rot": [[...], ...]} where
# rot[i] lists the neighbors of vertex i in clockwise cyclic order.  This
# format is the single input format of every CLI command.


def to_file_dict(graph: PlaneGraph) -> dict:
    return {"n": graph.vertex_count, "rot": [list(r) for r in graph.rotation]}


def from_file_dict(data: dict) -> PlaneGraph:
    if not isinstance(data, dict) or "n" not in data or "rot" not in data:
        raise ValueError("graph file needs fields 'n' and 'rot'")
    n = data["n"]
    rot = data["rot"]
    if (
        type(n) is not int
        or not isinstance(rot, list)
        or len(rot) != n
        or not all(isinstance(nbrs, list) for nbrs in rot)
    ):
        raise ValueError("graph file field 'rot' must be an array of n arrays")
    return build_from_rotation(rot)


def load_graph_file(path: str) -> PlaneGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return from_file_dict(json.load(fh))


def dump_graph_file(graph: PlaneGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_file_dict(graph), fh)
        fh.write("\n")
