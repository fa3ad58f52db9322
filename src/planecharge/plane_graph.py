"""Combinatorial plane graphs given by rotation systems.

A plane graph is stored as a half-edge structure: every undirected edge
contributes two directed half-edges, and the cyclic order of half-edges
around each vertex (the rotation) determines the embedding.  The arrays
and the faces are built at construction, in a few passes that run in C
where they can.  The neighbour frozensets (``neighbors``, ``_adjacency``)
and the face vertex sets (``face_vertex_set``, read only by the matcher)
are derived on first read.  Each is a pure function of the rotation, so
two threads that both build one store equal values, and instances stay
safe to share between threads.

``PlaneGraph`` extends ``SimpleGraph``, the abstract graph of squares,
demands and list coloring: both answer ``neighbors``, ``degree``,
``has_edge`` and ``edges`` by the one implementation that reads the
neighbour sets.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add, eq
from typing import Iterable, NamedTuple, Optional, Sequence

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

# The class's forbidden cycle length: no member has a cycle of this length.
FORBIDDEN_CYCLE = 5

# The cycle lengths adjacency_has_cycle_of_length searches for.
CYCLE_LENGTHS = range(3, 9)


class ClassReport(NamedTuple):
    """Membership report for the class: planar-embedded, max degree 4, no 5-cycles."""

    is_simple: bool
    is_connected: bool
    max_degree: int
    has_5_cycle: bool
    euler_ok: bool
    in_class: bool


class SimpleGraph:
    """Abstract simple graph: vertex count plus neighbour sets.

    Two ``SimpleGraph``s are equal when they have the same vertex count and
    neighbour sets.
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
        """All edges as (u, v) pairs with u < v, sorted."""
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
        # A subclass (a PlaneGraph) is never equal to a SimpleGraph.
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self._adjacency == other._adjacency
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self._adjacency))

    def __repr__(self) -> str:
        return f"SimpleGraph(V={self.vertex_count}, E={self.edge_count})"


class PlaneGraph(SimpleGraph):
    """Immutable plane graph.

    Half-edge ``h`` runs from ``origin[h]`` to ``target[h]``; ``twin[h]`` is the
    opposite half-edge and ``next_around_origin[h]`` the next half-edge in the
    rotation at ``origin[h]``.  ``faces[i]`` is the i-th traced face walk as a
    tuple of half-edge ids.  The half-edges out of u are numbered
    consecutively in rotation order from ``_first[u]``, so the half-edge
    from u to v is ``_first[u] + rotation[u].index(v)``.  ``_adjacency`` and
    ``_face_vertex_sets`` are filled on first read, by ``__getattr__``.
    Equality is identity: two embeddings of one graph differ.
    """

    __slots__ = (
        "rotation",
        "origin",
        "target",
        "twin",
        "next_around_origin",
        "faces",
        "face_of",
        "_first",
        "_face_vertex_sets",
    )

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, rotation: RotationSpec):
        rotation = tuple(map(tuple, rotation))
        n = len(rotation)
        degrees = tuple(map(len, rotation))
        origin = tuple(chain.from_iterable(map(repeat, range(n), degrees)))
        target = tuple(chain.from_iterable(rotation))
        # The next half-edge around u is the next id, but the last one out
        # of u wraps to u's first, first[u].
        first = []
        nxt = list(range(1, len(target) + 1))
        h = 0
        for d in degrees:
            first.append(h)
            if d:
                h += d
                nxt[h - 1] = h - d
        twin = _pair_twins(n, rotation, origin, target, first)
        if twin is None:  # rejected: find the error id by id
            _validate_rotation(n, rotation)

        self.vertex_count = n
        self.rotation = rotation
        self.origin = origin
        self.target = target
        self.twin = tuple(twin)
        self.next_around_origin = tuple(nxt)
        self._first = tuple(first)
        self.faces, self.face_of = _trace_faces(twin, nxt)

    def __getattr__(self, name: str):
        # Reached only while a derived slot is still empty: build it once.
        # Two threads may both build it; they store equal values.
        if name == "_adjacency":
            value = tuple(map(frozenset, self.rotation))
        elif name == "_face_vertex_sets":
            at = self.origin.__getitem__
            value = tuple(frozenset(map(at, walk)) for walk in self.faces)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        setattr(self, name, value)
        return value

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.origin) // 2

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def half_edge(self, u: int, v: int) -> int:
        """The half-edge from u to v; KeyError((u, v)) when uv is no edge or
        either is not a vertex id (bools and negative ids included)."""
        if type(u) is int and type(v) is int and 0 <= u < self.vertex_count:
            nbrs = self.rotation[u]
            if v in nbrs:
                return self._first[u] + nbrs.index(v)
        raise KeyError((u, v))

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
        first = self._first[v]
        return list(self.face_of[first : first + len(self.rotation[v])])

    def opposite_face(self, h: int) -> int:
        """Face on the other side of half-edge h's underlying edge."""
        return self.face_of[self.twin[h]]

    def three_face_edges(self, i: int) -> tuple[int, ...]:
        """The half-edges of face i whose far side is another 3-face, in walk
        order: the one statement of the face adjacency that R3/R4, SubR2
        and no333f read.  A 3-face never lies across its own edge: a walk
        of length 3 through both sides of an edge would need a loop."""
        faces, face_of, twin = self.faces, self.face_of, self.twin
        return tuple(h for h in faces[i] if len(faces[face_of[twin[h]]]) == 3)

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
                for v in self.rotation[u]:
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


def _pair_twins(
    n: int, rotation: tuple, origin: tuple, target: tuple, first: list
) -> Optional[list[int]]:
    """The twin of each half-edge, paired by position: the twin of u -> v is
    ``first[v] + rotation[v].index(u)``.  None unless every id is an int in
    0..n-1, no vertex lists itself, every listing is returned and twin is an
    involution (a duplicate listing breaks it); all checks run in C."""
    if target and (set(map(type, target)) != {int} or min(target) < 0 or max(target) >= n):
        return None
    try:
        at = map(tuple.index, map(rotation.__getitem__, target), origin)
        twin = list(map(add, map(first.__getitem__, target), at))
    except ValueError:  # some v does not list u
        return None
    twice = list(map(twin.__getitem__, twin))
    if any(map(eq, origin, target)) or twice != list(range(len(twin))):
        return None
    return twin


def _validate_rotation(n: int, rotation: tuple[tuple[int, ...], ...]) -> None:
    """Raise the error a rotation that ``_pair_twins`` rejects deserves:
    per vertex in order, the first unknown id, self-listing or duplicate;
    then the first half-edge, in id order, whose target does not list its
    origin."""
    for u, nbrs in enumerate(rotation):
        seen: set[int] = set()
        for v in nbrs:
            check_vertex(v, n)
            if v == u:
                raise SelfLoop(u)
            if v in seen:
                raise DuplicateNeighbor(u, v)
            seen.add(v)
    for u, nbrs in enumerate(rotation):
        for v in nbrs:
            if u not in rotation[v]:
                raise AsymmetricAdjacency(u, v)
    raise AssertionError("_pair_twins rejected a valid rotation")


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
    return adjacency_has_cycle_of_length(graph.rotation, k)


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
    has5 = has_cycle_of_length(graph, FORBIDDEN_CYCLE)
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
        or not all(map(isinstance, rot, repeat(list)))
    ):
        raise ValueError("graph file field 'rot' must be an array of n arrays")
    return build_from_rotation(rot)


def load_graph_file(path: str) -> PlaneGraph:
    import json  # here, so that a run that reads no file loads no json

    with open(path, "r", encoding="utf-8") as fh:
        return from_file_dict(json.load(fh))


def dump_graph_file(graph: PlaneGraph, path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_file_dict(graph), fh)
        fh.write("\n")
