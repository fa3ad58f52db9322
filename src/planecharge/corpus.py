"""Example graphs, desk-scale class enumeration, and seeded lattice members.

Enumeration grows class members only: each member on n vertices comes from
one on n-1 by attaching a new vertex, since every parent of a member is a
member.  A child whose new vertex closes a 5-cycle is dropped at once;
the rest are deduplicated by a branch-and-bound canonical form, and each
new isomorphism class is then searched for a planar rotation system
directly: a graph is accepted exactly when some rotation system traces
E - V + 2 faces, and keeps that embedding.  Sizes are tiny, so the
exhaustive search with face-count pruning beats importing a planarity
algorithm.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import NOutOfRange
from .plane_graph import (
    PlaneGraph,
    adjacency_has_cycle_of_length,
    build_from_layout,
    build_from_rotation,
)

Adjacency = tuple[frozenset[int], ...]

# The vertex counts enumerate_class accepts.
ENUMERATION_SIZES = range(2, 9)


@dataclass(frozen=True)
class NamedGraph:
    name: str
    graph: PlaneGraph
    provenance: str


def _pol(angle_deg: float, radius: float = 1.0) -> tuple[float, float]:
    a = math.radians(angle_deg)
    return (radius * math.cos(a), radius * math.sin(a))


def _sharpness9() -> PlaneGraph:
    points = [
        (0, 0),  # 0: center of the inner plus
        (1, 0),  # 1
        (0, 1),  # 2
        (-1, 0),  # 3
        (0, -1),  # 4
        (2, 2),  # 5
        (-2, 2),  # 6
        (2, -2),  # 7
        (-2, -2),  # 8
    ]
    edges = [
        (1, 0), (0, 3), (2, 0), (0, 4),
        (5, 1), (1, 7), (5, 2), (2, 6),
        (6, 3), (3, 8), (7, 4), (4, 8),
        (5, 6), (6, 8), (8, 7), (7, 5),
    ]
    return build_from_layout(points, edges)


def _k24() -> PlaneGraph:
    points = [(0, 1.5), (0, 0.5), (0, -0.5), (0, -1.5), (2, 0), (-2, 0)]
    edges = [(4, i) for i in range(4)] + [(5, i) for i in range(4)]
    return build_from_layout(points, edges)


def _c6() -> PlaneGraph:
    return build_from_layout([_pol(60 * k) for k in range(6)],
                             [(k, (k + 1) % 6) for k in range(6)])


def _q3() -> PlaneGraph:
    points = [(2, 2), (-2, 2), (-2, -2), (2, -2), (1, 1), (-1, 1), (-1, -1), (1, -1)]
    edges = (
        [(k, (k + 1) % 4) for k in range(4)]
        + [(4 + k, 4 + (k + 1) % 4) for k in range(4)]
        + [(k, 4 + k) for k in range(4)]
    )
    return build_from_layout(points, edges)


def _grid3x3() -> PlaneGraph:
    points = [(i % 3, i // 3) for i in range(9)]
    edges = [(i, i + 1) for i in range(9) if i % 3 < 2]
    edges += [(i, i + 3) for i in range(6)]
    return build_from_layout(points, edges)


def _hexprism() -> PlaneGraph:
    points = [_pol(60 * k, 2) for k in range(6)] + [_pol(60 * k, 1) for k in range(6)]
    edges = (
        [(k, (k + 1) % 6) for k in range(6)]
        + [(6 + k, 6 + (k + 1) % 6) for k in range(6)]
        + [(k, 6 + k) for k in range(6)]
    )
    return build_from_layout(points, edges)


def named_examples() -> list[NamedGraph]:
    """The named example graphs used throughout the test corpus."""
    return [
        NamedGraph(
            "sharpness9",
            _sharpness9(),
            "9-vertex max-degree-4 plane graph whose square is the complete"
            " graph K9 (plus-shaped core inside a 4-cycle of corners)",
        ),
        NamedGraph(
            "k24",
            _k24(),
            "complete bipartite graph on 2+4 vertices; 2-colorable but not"
            " 2-choosable",
        ),
        NamedGraph("c6", _c6(), "6-cycle; adjacent 2-vertices on two 6-faces"),
        NamedGraph("q3", _q3(), "3-cube; 3-regular with six 4-faces"),
        NamedGraph(
            "grid3x3", _grid3x3(), "3x3 square-grid patch with an 8-face rim"
        ),
        NamedGraph(
            "hexprism",
            _hexprism(),
            "hexagonal prism; 3-regular with two 6-faces",
        ),
    ]


# -- canonical forms -----------------------------------------------------------


def canonical_form(n: int, adjacency: Sequence[frozenset[int]]) -> tuple:
    """A permutation-invariant key: the lexicographically smallest tuple of
    earlier-neighbour row masks over all vertex orders consistent with
    iterated degree refinement.

    Row i of an order is the bitmask of the positions before i that hold
    neighbours of the i-th vertex, so the rows fix the labelled graph and
    their minimum over an isomorphism-invariant set of orders is a canonical
    form.  A depth-first branch and bound fills positions cell by cell: at
    each position only the candidates with the smallest row are tried, and a
    branch is cut as soon as its prefix exceeds the best key's prefix.
    """
    color = [len(adjacency[v]) for v in range(n)]
    while True:
        sig = [
            (color[v], tuple(sorted(color[u] for u in adjacency[v])))
            for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        refined = [palette[sig[v]] for v in range(n)]
        if refined == color:
            break
        color = refined
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(color[v], []).append(v)
    cell_at = [classes[c] for c in sorted(classes) for _ in classes[c]]

    rows = [0] * n  # earlier-neighbour mask of each vertex under the prefix
    placed = [False] * n
    prefix: list[int] = []
    best: tuple[int, ...] = ()

    def extend(i: int, below: bool) -> bool:
        # Fill positions i.. and report whether a leaf set a new best key;
        # below: the prefix is already smaller than the best key's prefix
        # (always true before the first leaf).
        nonlocal best
        if i == n:
            best = tuple(prefix)
            return True
        candidates = [v for v in cell_at[i] if not placed[v]]
        row = min(rows[v] for v in candidates)
        if not below:
            if row > best[i]:
                return False
            below = row < best[i]
        prefix.append(row)
        bit = 1 << i
        improved = False
        for v in candidates:
            if rows[v] != row:
                continue
            placed[v] = True
            for u in adjacency[v]:
                rows[u] |= bit
            if extend(i + 1, below):
                improved = True
                below = False  # the new best key shares this prefix
            for u in adjacency[v]:
                rows[u] &= ~bit
            placed[v] = False
        prefix.pop()
        return improved

    extend(0, True)
    return (n, best)


# -- planar embedding search ---------------------------------------------------


def find_planar_embedding(adjacency: Sequence[frozenset[int]]) -> Optional[PlaneGraph]:
    """A rotation system tracing E - V + 2 faces, or None if none exists."""
    found = planar_embeddings(adjacency, limit=1)
    return found[0] if found else None


def planar_embeddings(
    adjacency: Sequence[frozenset[int]], limit: int
) -> list[PlaneGraph]:
    """Up to ``limit`` distinct planar rotation systems for an abstract graph.

    Backtracking over per-vertex cyclic orders (one vertex pinned up to
    rotation and reflection), pruning on the face count: closed face walks
    only accumulate, and the unfinished half-edge chains bound how many
    faces can still appear.
    """
    n = len(adjacency)
    edge_count = sum(len(s) for s in adjacency) // 2
    if edge_count == 0:
        if n <= 1 and limit > 0:
            return [build_from_rotation([[] for _ in range(n)])]
        return []
    target_faces = edge_count - n + 2
    if n >= 3 and edge_count > 3 * n - 6:
        return []
    min_degree = min(len(s) for s in adjacency)
    min_face_len = 3 if min_degree >= 2 else 2

    half_id: dict[tuple[int, int], int] = {}
    half_list: list[tuple[int, int]] = []
    for u in range(n):
        for v in sorted(adjacency[u]):
            half_id[(u, v)] = len(half_list)
            half_list.append((u, v))
    twin = [half_id[(v, u)] for (u, v) in half_list]
    total_halves = len(half_list)

    # BFS order from a max-degree vertex keeps the assigned region connected,
    # so face walks close early.
    start = max(range(n), key=lambda v: len(adjacency[v]))
    order = [start]
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop(0)
        for v in sorted(adjacency[u]):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    if len(order) < n:
        return []  # disconnected: no single plane drawing is attempted

    successor: list[Optional[int]] = [None] * total_halves

    def set_rotation(v: int, cyc: Sequence[int], value: bool) -> None:
        for i, u in enumerate(cyc):
            w = cyc[(i + 1) % len(cyc)]
            successor[twin[half_id[(v, u)]]] = half_id[(v, w)] if value else None

    def prune() -> bool:
        mark = [0] * total_halves  # 1 = open chain, 2 = closed face
        closed = 0
        open_halves = 0
        for h0 in range(total_halves):
            if mark[h0]:
                continue
            trail = [h0]
            h = successor[h0]
            while h is not None and h != h0 and not mark[h]:
                trail.append(h)
                h = successor[h]
            if h == h0:
                closed += 1
                for t in trail:
                    mark[t] = 2
            else:
                open_halves += len(trail)
                for t in trail:
                    mark[t] = 1
        if closed > target_faces:
            return False
        return closed + open_halves // min_face_len >= target_faces

    def choices(v: int, pinned: bool) -> Iterator[tuple[int, ...]]:
        nbrs = sorted(adjacency[v])
        first, rest = nbrs[0], nbrs[1:]
        for tail in itertools.permutations(rest):
            if pinned and len(nbrs) >= 3 and tail[0] > tail[-1]:
                continue  # reflection of the whole map: skip one of each pair
            yield (first,) + tail

    rotations: list[Optional[tuple[int, ...]]] = [None] * n
    found: list[PlaneGraph] = []

    def assign(i: int) -> bool:
        if i == n:
            graph = build_from_rotation([list(rotations[v]) for v in range(n)])
            assert graph.face_count == target_faces
            found.append(graph)
            return len(found) >= limit
        v = order[i]
        for cyc in choices(v, pinned=(i == 0)):
            rotations[v] = cyc
            set_rotation(v, cyc, True)
            if prune() and assign(i + 1):
                return True
            set_rotation(v, cyc, False)
            rotations[v] = None
        return False

    assign(0)
    return found


# -- class enumeration ----------------------------------------------------------


def _closes_5_cycle(
    parent: Sequence[frozenset[int]], chosen: Sequence[int]
) -> bool:
    """Whether a new vertex joined to ``chosen`` lies on a 5-cycle: some two
    chosen vertices a, b end a path a-c-d-b of three edges in the parent."""
    for a, b in itertools.combinations(chosen, 2):
        for c in parent[a]:
            if c != b and (parent[c] & parent[b]) - {a}:
                return True
    return False


def _embed_member(adjacency: Adjacency) -> Optional[PlaneGraph]:
    """A planar embedding of a connected max-degree-4 graph without
    5-cycles, or None if it has none."""
    n = len(adjacency)
    edge_count = sum(len(s) for s in adjacency) // 2
    # Triangle-free simple planar graphs have at most 2n-4 edges.
    if (
        n >= 3
        and edge_count > 2 * n - 4
        and not adjacency_has_cycle_of_length(adjacency, 3)
    ):
        return None
    return find_planar_embedding(adjacency)


@lru_cache(maxsize=None)
def _members(n: int) -> tuple[PlaneGraph, ...]:
    """Connected class members on n vertices, one per isomorphism class, each
    in the embedding found for it, built by attaching one new vertex to
    members on n-1.

    Planarity, max degree 4 and having no 5-cycle survive taking induced
    subgraphs, and every connected graph has a vertex whose removal leaves it
    connected, so members on n-1 vertices are the only parents needed.  The
    first graph seen of each isomorphism class is its representative.
    """
    if n == 1:
        return (build_from_rotation([[]]),)
    out: dict[tuple, Optional[PlaneGraph]] = {}
    for member in _members(n - 1):
        parent = [member.neighbors(v) for v in range(n - 1)]
        open_slots = [v for v in range(n - 1) if len(parent[v]) < 4]
        for k in range(1, min(4, len(open_slots)) + 1):
            for chosen in itertools.combinations(open_slots, k):
                if _closes_5_cycle(parent, chosen):
                    continue  # the parent has none, so this child is out
                adj = [set(s) for s in parent] + [set(chosen)]
                for v in chosen:
                    adj[v].add(n - 1)
                frozen = tuple(frozenset(s) for s in adj)
                key = canonical_form(n, frozen)
                if key not in out:
                    out[key] = _embed_member(frozen)
    return tuple(g for g in out.values() if g is not None)


def enumerate_class(n_max: int) -> Iterator[PlaneGraph]:
    """Every connected class member with 2..n_max vertices, one embedding
    per isomorphism class; n_max must lie in ENUMERATION_SIZES."""
    if n_max not in ENUMERATION_SIZES:
        raise NOutOfRange(n_max, ENUMERATION_SIZES)
    for n in range(ENUMERATION_SIZES[0], n_max + 1):
        yield from _members(n)


# -- seeded lattice members ------------------------------------------------------


def _square_neighbors(cell: tuple[int, int]) -> list[tuple[int, int]]:
    x, y = cell
    return [(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)]


def _hex_neighbors(cell: tuple[int, int]) -> list[tuple[int, int]]:
    x, y = cell
    vertical = (x, y + 1) if (x + y) % 2 == 0 else (x, y - 1)
    return [(x + 1, y), (x - 1, y), vertical]


def _hex_position(cell: tuple[int, int]) -> tuple[float, float]:
    x, y = cell
    return (float(x), 2.0 * y + (0.25 if (x + y) % 2 == 0 else 0.0))


def random_class_member(seed: int, n: int) -> PlaneGraph:
    """A connected induced patch of the square or hexagonal lattice with
    exactly n vertices; deterministic in the seed.  Both lattices are
    bipartite with max degree at most 4, so every patch is a class member."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    rng = random.Random(seed)
    if rng.random() < 0.5:
        neighbors, position = _square_neighbors, lambda c: (float(c[0]), float(c[1]))
    else:
        neighbors, position = _hex_neighbors, _hex_position
    cells = {(0, 0)}
    while len(cells) < n:
        frontier = sorted(
            {nb for c in cells for nb in neighbors(c)} - cells
        )
        cells.add(frontier[rng.randrange(len(frontier))])
    ordered = sorted(cells)
    index = {c: i for i, c in enumerate(ordered)}
    edges = [
        (index[c], index[d])
        for c in ordered
        for d in neighbors(c)
        if d in cells and index[c] < index[d]
    ]
    return build_from_layout([position(c) for c in ordered], edges)
