"""Example graphs, desk-scale class enumeration, and seeded lattice members.

Every graph here is stated as a rotation system: the named examples as
literals, and lattice patches by listing each cell's lattice neighbours in
clockwise order.

Enumeration grows class members only: each member on n vertices comes from
one on n-1 by attaching a new vertex, since every parent of a member is a
member.  A child whose new vertex closes a 5-cycle is dropped at once;
the rest are deduplicated by a branch-and-bound canonical form, and each
new isomorphism class is then searched for a planar rotation system
directly: a graph is accepted exactly when some rotation system traces
E - V + 2 faces, and keeps that embedding.  Sizes are tiny, so the
exhaustive search beats importing a planarity algorithm.  That search is
one lazy generator, ``iter_planar_embeddings``, which keeps its face count
running and states Euler's edge bound once, for triangle-free graphs too.

The search places vertices one at a time, and placing v links every
half-edge into v to the half-edge that follows it on its face.  The links
made so far form closed faces and open chains: maximal runs of linked
half-edges, each starting at a half-edge out of an unplaced vertex (nothing
is linked to it yet) and ending at a half-edge into one (it is linked to
nothing yet).  Each half-edge lies on exactly one of them.  A link from h
to o joins the chain that h ends to the chain that o starts, or, when they
are the same chain, closes it into a face whose length is the chain's.  So
the search keeps only each chain's two ends and its length and never
re-walks a face.  This gives the chain bound: every face still to close is
made of whole open chains, and there is exactly one open chain per
half-edge into an unplaced vertex, so closed faces plus the degrees of the
unplaced vertices must reach E - V + 2.

Twins are two vertices with the same neighbours apart from each other:
equal neighbourhoods (never adjacent) or equal closed neighbourhoods
(always adjacent).  Swapping two twins is an automorphism, and no vertex
has twins of both kinds, so twins fall into classes.  Both searches skip
what such a swap would only find again:

* ``_members`` skips a child whose new vertex is joined to u but not to
  an earlier twin v of u in the parent.  The swap (u v) fixes the new
  vertex, so that child is isomorphic to the child joined to v instead,
  which comes earlier in the same parent's loop and, being isomorphic,
  passes or fails the 5-cycle test alike; if it is skipped too, the same
  step leads to a still earlier one.  So the first child of each
  isomorphism class is never skipped, and every representative, with its
  embedding, is the one the full loop keeps.
* ``canonical_form`` tries one candidate per twin class at each branch.
  Twins in one cell share their colour, the swap fixes every placed vertex,
  and it maps the subtree below one twin onto the subtree below the other
  with the same rows, so the smallest key is found either way.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import NOutOfRange, TooFewVertices
from .plane_graph import MAX_DEGREE, PlaneGraph, build_from_rotation

# The vertex counts enumerate_class accepts.
ENUMERATION_SIZES = range(2, 9)


class NamedGraph(NamedTuple):
    name: str
    graph: PlaneGraph
    provenance: str


def _sharpness9() -> PlaneGraph:
    # A plus 0-1, 0-2, 0-3, 0-4 inside the 4-cycle of corners 5-6-8-7;
    # each corner joins the two arms beside it.
    return build_from_rotation([
        [3, 2, 1, 4], [0, 5, 7], [6, 5, 0], [6, 0, 8], [0, 7, 8],
        [6, 7, 1, 2], [5, 2, 3, 8], [8, 4, 1, 5], [6, 3, 4, 7],
    ])


def _k24() -> PlaneGraph:
    # Hubs 4 and 5 on either side of the column 0, 1, 2, 3.
    return build_from_rotation([
        [4, 5], [4, 5], [5, 4], [5, 4], [1, 0, 3, 2], [0, 1, 2, 3],
    ])


def _c6() -> PlaneGraph:
    return build_from_rotation([[1, 5], [2, 0], [1, 3], [2, 4], [3, 5], [4, 0]])


def _q3() -> PlaneGraph:
    # Outer 4-cycle 0-3, inner 4-cycle 4-7, spokes k-(4+k).
    return build_from_rotation([
        [1, 3, 4], [0, 5, 2], [1, 6, 3], [2, 7, 0],
        [5, 0, 7], [1, 4, 6], [5, 7, 2], [6, 4, 3],
    ])


def _grid3x3() -> PlaneGraph:
    # Vertex i sits at column i % 3 and row i // 3.
    return build_from_rotation([
        [3, 1], [0, 4, 2], [1, 5], [6, 4, 0], [3, 7, 5, 1],
        [4, 8, 2], [7, 3], [6, 8, 4], [7, 5],
    ])


def _hexprism() -> PlaneGraph:
    # Outer 6-cycle 0-5, inner 6-cycle 6-11, spokes k-(6+k).
    return build_from_rotation([
        [6, 1, 5], [2, 0, 7], [1, 8, 3], [2, 9, 4], [3, 10, 5], [4, 11, 0],
        [7, 0, 11], [8, 1, 6], [2, 7, 9], [3, 8, 10], [9, 11, 4], [10, 6, 5],
    ])


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


def canonical_form(
    n: int,
    adjacency: Sequence[frozenset[int]],
    colors: Optional[Sequence[int]] = None,
) -> tuple:
    """A permutation-invariant key: the lexicographically smallest tuple of
    earlier-neighbour row masks over all vertex orders consistent with
    iterated degree refinement.

    Row i of an order is the bitmask of the positions before i that hold
    neighbours of the i-th vertex, so the rows fix the labelled graph and
    their minimum over an isomorphism-invariant set of orders is a canonical
    form.  A depth-first branch and bound fills positions cell by cell: at
    each position only the candidates with the smallest row are tried, and a
    branch is cut as soon as its prefix exceeds the best key's prefix.

    With ``colors`` (one comparable value per vertex), refinement starts
    from (color, degree), so each cell holds one color, and the key also
    carries the colors by position: two colored graphs get equal keys
    exactly when some isomorphism between them keeps every vertex's color.

    At each branch one candidate per twin class is tried (the twin argument
    in the module docstring).
    """
    if colors is None:
        color: list = [len(adjacency[v]) for v in range(n)]
    else:
        color = [(colors[v], len(adjacency[v])) for v in range(n)]
    while True:
        sig = [
            (color[v], tuple(sorted(map(color.__getitem__, adjacency[v]))))
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
    twin = _twin_classes(adjacency)

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
        tried: list[int] = []  # the twin classes branched on
        for v in candidates:
            if rows[v] != row or twin[v] in tried:
                continue
            tried.append(twin[v])
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
    if colors is None:
        return (n, best)
    return (n, tuple(colors[cell[0]] for cell in cell_at), best)


def _twin_classes(adjacency: Sequence[frozenset[int]]) -> list[int]:
    """Each vertex's twin class, named by its lowest vertex (twins as in the
    module docstring)."""
    twin = []
    by_open: dict[frozenset[int], int] = {}
    by_closed: dict[frozenset[int], int] = {}
    for v, nbrs in enumerate(adjacency):
        first = by_open.setdefault(nbrs, v)
        if first == v:
            first = by_closed.setdefault(nbrs | {v}, v)
        twin.append(first)
    return twin


# -- planar embedding search ---------------------------------------------------


def find_planar_embedding(adjacency: Sequence[frozenset[int]]) -> Optional[PlaneGraph]:
    """A rotation system tracing E - V + 2 faces, or None if none exists."""
    return next(iter_planar_embeddings(adjacency), None)


def planar_embeddings(
    adjacency: Sequence[frozenset[int]], limit: int
) -> list[PlaneGraph]:
    """The first ``limit`` rotation systems of ``iter_planar_embeddings``."""
    return list(itertools.islice(iter_planar_embeddings(adjacency), limit))


def iter_planar_embeddings(adjacency: Sequence[frozenset[int]]) -> Iterator[PlaneGraph]:
    """Every planar rotation system of a connected graph, up to reflection
    of the whole map, in a fixed order.

    Backtracking over per-vertex cyclic orders (one vertex pinned up to
    rotation and reflection), pruning on the face count.  Giving v its
    rotation links each half-edge h into v to the half-edge o after it on
    its face; h ends an open chain and o starts one (the chains of the
    module docstring).  Only each chain's ends and length are kept, so a
    link joins two chains, or closes a face of known length when o starts
    the chain that h ends, without walking it.  Each level keeps its own
    copy of that state, so a backtrack undoes nothing.  A partial
    assignment is cut unless the closed faces can still reach E - V + 2
    and no more:

    * closed faces must not exceed E - V + 2;
    * Euler's bound: the half-edges on open chains, at least ``min_len``
      per face, must make up the faces still to close;
    * the chain bound: each face still to close takes at least one whole
      open chain, and the open chains are one per half-edge into an
      unplaced vertex, so those half-edges must make up the faces still to
      close too.
    """
    n = len(adjacency)
    edge_count = sum(len(s) for s in adjacency) // 2
    if edge_count == 0:
        if n <= 1:
            yield build_from_rotation([[] for _ in range(n)])
        return
    # A face walk of length 2 is all of K2, and one of length 3 a triangle.
    if n == 2:
        min_len = 2
    elif any(adjacency[u] & adjacency[v] for u in range(n) for v in adjacency[u]):
        min_len = 3
    else:
        min_len = 4
    target_faces = edge_count - n + 2
    # Euler's bound: the faces use each of the 2E half-edges once.
    if 2 * edge_count < min_len * target_faces:
        return

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
        return  # disconnected: no single plane drawing is attempted

    half_id = {
        h: i for i, h in enumerate((u, v) for u in range(n) for v in adjacency[u])
    }
    total_halves = 2 * edge_count

    # Every rotation of each vertex in search order, with its links: each
    # half-edge (u, v) into the vertex and the half-edge (v, w) after it.
    options = []
    for i, v in enumerate(order):
        first, *rest = sorted(adjacency[v])
        level = []
        for tail in itertools.permutations(rest):
            if i == 0 and len(rest) >= 2 and tail[0] > tail[-1]:
                continue  # reflection of the whole map: skip one of each pair
            cyc = (first, *tail)
            links = [
                (half_id[(u, v)], half_id[(v, w)])
                for u, w in zip(cyc, cyc[1:] + cyc[:1])
            ]
            level.append((cyc, links))
        options.append(level)
    # least_faces[i]: closed faces needed once order[i] has its rotation, by
    # the chain bound (the open chains end at the half-edges into order[i+1:]).
    least_faces = [target_faces] * n
    for i in range(n - 2, -1, -1):
        least_faces[i] = least_faces[i + 1] - len(adjacency[order[i + 1]])
    rotations: list[tuple[int, ...]] = [()] * n
    # mates[i] and sizes[i] before order[i] has its rotation: mates[i][h] is
    # the other end of the open chain that half-edge h starts or ends, and
    # sizes[i][s] the length of the chain that starts at s.
    mates = [list(range(total_halves)) for _ in range(n + 1)]
    sizes = [[1] * total_halves for _ in range(n + 1)]

    def assign(i: int, closed: int, closed_halves: int) -> Iterator[PlaneGraph]:
        mate, size = mates[i + 1], sizes[i + 1]
        for cyc, links in options[i]:
            mate[:] = mates[i]
            size[:] = sizes[i]
            faces, halves = closed, closed_halves
            for h, o in links:
                s = mate[h]  # the start of the chain that h ends
                if s == o:
                    faces, halves = faces + 1, halves + size[o]
                else:
                    e = mate[o]  # the end of the chain that o starts
                    mate[s], mate[e] = e, s
                    size[s] += size[o]
            if (
                least_faces[i] <= faces <= target_faces
                and faces + (total_halves - halves) // min_len >= target_faces
            ):
                rotations[order[i]] = cyc
                if i + 1 < n:
                    yield from assign(i + 1, faces, halves)
                else:
                    graph = build_from_rotation(rotations)
                    if graph.face_count != target_faces:
                        raise AssertionError(f"{graph.face_count} faces, not {target_faces}")
                    yield graph

    yield from assign(0, 0, 0)


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


@lru_cache(maxsize=None)
def _members(n: int) -> tuple[PlaneGraph, ...]:
    """Connected class members on n vertices, one per isomorphism class, each
    in the embedding found for it, built by attaching one new vertex to
    members on n-1.

    Planarity, max degree 4 and having no 5-cycle survive taking induced
    subgraphs, and every connected graph has a vertex whose removal leaves it
    connected, so members on n-1 vertices are the only parents needed.  The
    first graph seen of each isomorphism class is its representative.  A
    child joined to a vertex but not to an earlier twin of it is skipped
    (the twin argument in the module docstring).
    """
    if n == 1:
        return (build_from_rotation([[]]),)
    out: dict[tuple, Optional[PlaneGraph]] = {}
    for member in _members(n - 1):
        parent = [member.neighbors(v) for v in range(n - 1)]
        open_slots = [v for v in range(n - 1) if len(parent[v]) < MAX_DEGREE]
        twin = _twin_classes(parent)
        twin_pairs = [
            (v, u)
            for v, u in itertools.combinations(open_slots, 2)
            if twin[v] == twin[u]
        ]
        for k in range(1, min(MAX_DEGREE, len(open_slots)) + 1):
            for chosen in itertools.combinations(open_slots, k):
                if any(u in chosen and v not in chosen for v, u in twin_pairs):
                    continue  # isomorphic to the earlier child joined to v
                if _closes_5_cycle(parent, chosen):
                    continue  # the parent has none, so this child is out
                adj = [set(s) for s in parent] + [set(chosen)]
                for v in chosen:
                    adj[v].add(n - 1)
                frozen = tuple(frozenset(s) for s in adj)
                key = canonical_form(n, frozen)
                if key not in out:
                    out[key] = find_planar_embedding(frozen)
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
    """The four lattice neighbours in clockwise order: left, up, right, down."""
    x, y = cell
    return [(x - 1, y), (x, y + 1), (x + 1, y), (x, y - 1)]


def _hex_neighbors(cell: tuple[int, int]) -> list[tuple[int, int]]:
    """The three neighbours in the brick-wall hexagonal lattice, in clockwise
    order: a cell with x + y even has its vertical neighbour above (up,
    right, left), any other cell below (left, right, down)."""
    x, y = cell
    if (x + y) % 2 == 0:
        return [(x, y + 1), (x + 1, y), (x - 1, y)]
    return [(x - 1, y), (x + 1, y), (x, y - 1)]


def random_class_member(seed: int, n: int) -> PlaneGraph:
    """A connected induced patch of the square or hexagonal lattice with
    exactly n vertices; deterministic in the seed.  Both lattices are
    bipartite with max degree at most 4, so every patch is a class member."""
    import bisect  # here, so that a run that draws no member loads neither
    import random

    if n < 2:
        raise TooFewVertices(n, 2)
    rng = random.Random(seed)
    neighbors = _square_neighbors if rng.random() < 0.5 else _hex_neighbors
    cells = {(0, 0)}
    # The sorted cells outside the patch that touch it, kept up to date as
    # each drawn cell joins the patch.
    frontier = sorted(neighbors((0, 0)))
    while len(cells) < n:
        cell = frontier.pop(rng.randrange(len(frontier)))
        cells.add(cell)
        for nb in neighbors(cell):
            i = bisect.bisect_left(frontier, nb)
            if nb not in cells and frontier[i : i + 1] != [nb]:
                frontier.insert(i, nb)
    ordered = sorted(cells)
    index = {c: i for i, c in enumerate(ordered)}
    return build_from_rotation(
        [[index[d] for d in neighbors(c) if d in cells] for c in ordered]
    )
