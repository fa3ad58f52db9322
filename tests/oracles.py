"""Independent brute-force oracles the tests compare the package against.

Everything here recomputes results the slow, obviously-correct way:
exhaustive permutations for cycles and matches, explicit list enumeration
and unreduced atom-pattern enumeration for choosability (colored by a plain
depth-first search that shares no code with the kernel), every coloring
from a product of color ranges for chromatic numbers, unpruned
rotation products for planarity, the embedding search that re-walks every
face it might have closed, every cell-consistent vertex order for
canonical forms (every order for colored ones), vertex augmentation over
every connected max-degree-4 graph rather than class members only,
class members grown with every child tried (no twin skip), lattice
patches drawn with the frontier rebuilt at every step,
rotations read off straight-line drawings by angle, Euler's formula
checked component by component, the global rules R1-R4 restated with
literal twelfths, each big face's sub-rule ledger built one closure call
per draw, and plane graphs built with twins looked up in
a (u, v)-keyed dict, every rotation validated id by id and every view
built eagerly.
"""

import itertools
import math
import random
from collections import Counter
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from planecharge.corpus import (
    _hex_neighbors,
    _square_neighbors,
    canonical_form,
    find_planar_embedding,
)
from planecharge.discharging import (
    BIG_FACE,
    ONE,
    QUARTER,
    SIXTH,
    THIRD,
    Transfer,
)
from planecharge.errors import AsymmetricAdjacency, DuplicateNeighbor, SelfLoop
from planecharge.matcher import MatchEmbedding
from planecharge.plane_graph import (
    adjacency_has_cycle_of_length,
    build_from_rotation,
    check_vertex,
)


# -- eagerly built plane graphs ------------------------------------------------


class EagerPlaneGraph:
    """A plane graph built the direct way: each rotation is validated id by
    id, each twin is looked up in a dict keyed by (origin, target), and the
    neighbour sets and face vertex sets are built at once.  It answers the
    same arrays and views as ``PlaneGraph`` and raises the same errors."""

    def __init__(self, rotation):
        rotation = tuple(tuple(nbrs) for nbrs in rotation)
        n = len(rotation)
        _eager_validate_rotation(n, rotation)

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
        self.faces, self.face_of = _eager_trace_faces(twin, nxt)
        self._face_vertex_sets = tuple(
            frozenset(map(origin.__getitem__, walk)) for walk in self.faces
        )

    def half_edge(self, u, v):
        return self._half_edge_at[(u, v)]

    def neighbors(self, v):
        return self._adjacency[v]

    def face_vertex_set(self, i):
        return self._face_vertex_sets[i]

    def faces_at(self, v):
        return [self.face_of[self._half_edge_at[(v, u)]] for u in self.rotation[v]]

    def components(self):
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


def _eager_validate_rotation(n, rotation):
    """Reject unknown ids, self-listings and duplicates; ``EagerPlaneGraph``
    rejects asymmetric lists when it pairs up twin half-edges."""
    for u, nbrs in enumerate(rotation):
        seen = set()
        for v in nbrs:
            check_vertex(v, n)
            if v == u:
                raise SelfLoop(u)
            if v in seen:
                raise DuplicateNeighbor(u, v)
            seen.add(v)


def _eager_trace_faces(twin, nxt):
    """Face walks and the face of each half-edge.  The face successor of h
    is ``nxt[twin[h]]``; its orbits are the faces."""
    face_of = [-1] * len(twin)
    faces = []
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


# -- cycles, Euler, choosability and planarity ---------------------------------


def naive_has_cycle(adjacency, k):
    n = len(adjacency)
    for perm in itertools.permutations(range(n), k):
        if all(perm[(i + 1) % k] in adjacency[perm[i]] for i in range(k)):
            return True
    return False


def per_component_euler(g):
    """Whether V - E + F = 2 holds on every component of plane graph g that
    has an edge, and how many components g has.  Components come from a
    union-find over the edges; each face counts toward the component of
    the first vertex on its walk."""
    parent = list(range(g.vertex_count))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = g.edges()
    for u, v in edges:
        parent[find(u)] = find(v)
    euler = Counter(find(v) for v in range(g.vertex_count))
    for u, _ in edges:
        euler[find(u)] -= 1
    for walk in g.faces:
        euler[find(g.origin[walk[0]])] += 1
    plane = all(euler[find(u)] == 2 for u, _ in edges)
    return plane, len(euler)


def dfs_list_coloring(graph, lists):
    """A proper coloring with each vertex's color from its own list, as a
    list indexed by vertex, or None: plain depth-first search in vertex
    order, each vertex trying its list in the order given."""
    n = graph.vertex_count
    earlier = [[u for u in graph.neighbors(v) if u < v] for v in range(n)]
    color = [None] * n

    def extend(v):
        if v == n:
            return True
        for c in lists[v]:
            if all(color[u] != c for u in earlier[v]):
                color[v] = c
                if extend(v + 1):
                    return True
        return False

    return color if extend(0) else None


def brute_chromatic_number(graph):
    """The least k for which some coloring in ``itertools.product(range(k),
    repeat=n)`` is proper; at most 7 vertices keep the products small."""
    n = graph.vertex_count
    assert n <= 7
    edges = graph.edges()
    for k in range(n + 1):
        colorings = itertools.product(range(k), repeat=n)
        if any(all(c[u] != c[v] for u, v in edges) for c in colorings):
            return k


def naive_f_choosable(graph, demands):
    """Enumerate every explicit assignment from a universe of size sum(f)."""
    universe = range(sum(demands))
    for lists in itertools.product(
        *[itertools.combinations(universe, f) for f in demands]
    ):
        if dfs_list_coloring(graph, lists) is None:
            return False
    return True


def _instantiate(n, pattern):
    """Fresh concrete lists for an atom-size pattern (atom = vertex bitmask)."""
    lists = [[] for _ in range(n)]
    color = 0
    for atom, count in sorted(pattern.items()):
        for _ in range(count):
            for v in range(n):
                if atom >> v & 1:
                    lists[v].append(color)
            color += 1
    return lists


def pattern_f_choosable(graph, demands):
    """Test one instantiation of every atom-size pattern, with no reduction.

    An assignment is determined up to color renaming by how many colors each
    vertex subset (atom) shares exactly; non-singleton atoms are enumerated
    largest first and the singleton sizes are forced by the leftover demand.
    """
    n = graph.vertex_count
    if n == 0:
        return True
    if any(f == 0 for f in demands):
        return False

    atoms = sorted(
        (m for m in range(1, 1 << n) if bin(m).count("1") >= 2),
        key=lambda m: (-bin(m).count("1"), m),
    )
    members = {m: [v for v in range(n) if m >> v & 1] for m in atoms}
    pattern = {}
    remaining = list(demands)

    def close_and_test():
        full = dict(pattern)
        for v in range(n):
            if remaining[v]:
                full[1 << v] = full.get(1 << v, 0) + remaining[v]
        lists = _instantiate(n, full)
        return lists if dfs_list_coloring(graph, lists) is None else None

    def search(i):
        if i == len(atoms):
            return close_and_test()
        atom = atoms[i]
        cap = min(remaining[v] for v in members[atom])
        for x in range(cap, -1, -1):
            if x:
                pattern[atom] = x
                for v in members[atom]:
                    remaining[v] -= x
            bad = search(i + 1)
            if x:
                for v in members[atom]:
                    remaining[v] += x
                del pattern[atom]
            if bad is not None:
                return bad
        return None

    return search(0) is None


def naive_planar_embedding_exists(adjacency):
    """Try every rotation system outright (no pinning, no pruning)."""
    n = len(adjacency)
    edge_count = sum(len(s) for s in adjacency) // 2
    if edge_count == 0:
        return n <= 1
    target = edge_count - n + 2
    per_vertex = []
    for v in range(n):
        nbrs = sorted(adjacency[v])
        per_vertex.append(
            [(nbrs[0],) + rest for rest in itertools.permutations(nbrs[1:])]
        )
    for rotations in itertools.product(*per_vertex):
        g = build_from_rotation([list(r) for r in rotations])
        if g.face_count == target:
            return True
    return False


def naive_planar_rotations(adjacency):
    """Every rotation system of a graph without isolated vertices that
    traces E - V + 2 faces, each cyclic order starting at the smallest
    neighbour (no pinning, no pruning)."""
    n = len(adjacency)
    target = sum(len(s) for s in adjacency) // 2 - n + 2
    per_vertex = []
    for v in range(n):
        first, *rest = sorted(adjacency[v])
        per_vertex.append(
            [(first, *tail) for tail in itertools.permutations(rest)]
        )
    return [
        rotations
        for rotations in itertools.product(*per_vertex)
        if build_from_rotation(rotations).face_count == target
    ]


def walked_planar_embeddings(adjacency):
    """The embedding search as ``corpus.iter_planar_embeddings`` ran before
    it kept chain ends: the same vertex order, rotation order, reflection pin
    and Euler prune, but each face through a half-edge into the placed
    vertex is re-walked along ``successor`` to see whether it closed, and a
    backtrack clears the successors it set.  It has no chain bound."""
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
    # successor[h] is the half-edge after h on its face, once h's head has
    # its rotation.
    successor: list[Optional[int]] = [None] * total_halves

    # Every rotation of each vertex in search order, with the half-edges
    # into the vertex and the face successor each gets.
    options = []
    for i, v in enumerate(order):
        first, *rest = sorted(adjacency[v])
        level = []
        for tail in itertools.permutations(rest):
            if i == 0 and len(rest) >= 2 and tail[0] > tail[-1]:
                continue  # reflection of the whole map: skip one of each pair
            cyc = (first, *tail)
            into = [half_id[(u, v)] for u in cyc]
            out = [half_id[(v, w)] for w in cyc[1:] + cyc[:1]]
            level.append((cyc, into, out))
        options.append(level)
    rotations: list[tuple[int, ...]] = [()] * n

    def assign(i, closed, closed_halves):
        if i == n:
            graph = build_from_rotation(rotations)
            assert graph.face_count == target_faces
            yield graph
            return
        for cyc, into, out in options[i]:
            for h, o in zip(into, out):
                successor[h] = o
            faces, halves = closed, closed_halves
            for k, h in enumerate(into):
                # Stop at an earlier half-edge of ``into``: the face was
                # counted from there, if it closed.
                walked = into[:k]
                length, t = 1, successor[h]
                while t is not None and t != h and t not in walked:
                    length, t = length + 1, successor[t]
                if t == h:
                    faces, halves = faces + 1, halves + length
            if (
                faces <= target_faces
                and faces + (total_halves - halves) // min_len >= target_faces
            ):
                rotations[order[i]] = cyc
                yield from assign(i + 1, faces, halves)
            for h in into:
                successor[h] = None

    yield from assign(0, 0, 0)


# -- brute-force canonical forms and unpruned augmentation ----------------------


def brute_canonical_form(n, adjacency):
    """A permutation-invariant key: the lexicographically smallest row-mask
    tuple over all vertex orders consistent with iterated degree refinement."""
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
    parts = [classes[c] for c in sorted(classes)]

    best: Optional[tuple[int, ...]] = None
    for perm_parts in itertools.product(*[itertools.permutations(p) for p in parts]):
        order = [v for part in perm_parts for v in part]
        position = {v: i for i, v in enumerate(order)}
        rows = []
        for v in order:
            mask = 0
            for u in adjacency[v]:
                mask |= 1 << position[u]
            rows.append(mask)
        key = tuple(rows)
        if best is None or key < best:
            best = key
    return (n, best)


def brute_colored_canonical_form(n, adjacency, colors):
    """The smallest (colors by position, earlier-neighbour rows) over all n!
    vertex orders, with no refinement."""
    best = None
    for order in itertools.permutations(range(n)):
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        rows = tuple(sum(1 << position[u] for u in adjacency[v]) for v in order)
        key = (tuple(colors[v] for v in order), rows)
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=None)
def connected_max4_oracle(n):
    """Connected simple graphs with max degree 4 on n vertices, up to
    isomorphism, built by attaching one new vertex to graphs on n-1."""
    if n == 1:
        return ((frozenset(),),)
    out = {}
    for parent in connected_max4_oracle(n - 1):
        open_slots = [v for v in range(n - 1) if len(parent[v]) < 4]
        for k in range(1, min(4, len(open_slots)) + 1):
            for chosen in itertools.combinations(open_slots, k):
                adj = [set(s) for s in parent] + [set(chosen)]
                for v in chosen:
                    adj[v].add(n - 1)
                frozen = tuple(frozenset(s) for s in adj)
                out.setdefault(brute_canonical_form(n, frozen), frozen)
    return tuple(out.values())


@lru_cache(maxsize=None)
def unpruned_members(n):
    """Connected class members on n vertices, grown as ``corpus._members``
    grows them but with every child tried: no twin skip, and each child's
    5-cycles found by a whole-graph search.  The first child seen of each
    isomorphism class is kept, in the embedding found for it."""
    if n == 1:
        return (build_from_rotation([[]]),)
    out = {}
    for member in unpruned_members(n - 1):
        parent = [member.neighbors(v) for v in range(n - 1)]
        open_slots = [v for v in range(n - 1) if len(parent[v]) < 4]
        for k in range(1, min(4, len(open_slots)) + 1):
            for chosen in itertools.combinations(open_slots, k):
                adj = [set(s) for s in parent] + [set(chosen)]
                for v in chosen:
                    adj[v].add(n - 1)
                frozen = tuple(frozenset(s) for s in adj)
                if adjacency_has_cycle_of_length(frozen, 5):
                    continue
                key = canonical_form(n, frozen)
                if key not in out:
                    out[key] = find_planar_embedding(frozen)
    return tuple(g for g in out.values() if g is not None)


_LATTICES = {"square": _square_neighbors, "hex": _hex_neighbors}


def rescanned_cells(seed, n):
    """The lattice ("square" or "hex") and the cells of the patch that
    ``corpus.random_class_member(seed, n)`` draws, with the frontier rebuilt
    and sorted from every cell of the patch at each step."""
    rng = random.Random(seed)
    kind = "square" if rng.random() < 0.5 else "hex"
    neighbors = _LATTICES[kind]
    cells = {(0, 0)}
    while len(cells) < n:
        frontier = sorted({nb for c in cells for nb in neighbors(c)} - cells)
        cells.add(frontier[rng.randrange(len(frontier))])
    return kind, cells


def rescanned_class_member(seed, n):
    """``corpus.random_class_member`` built on the cells of
    ``rescanned_cells``, each listing its lattice neighbours in the patch."""
    kind, cells = rescanned_cells(seed, n)
    neighbors = _LATTICES[kind]
    ordered = sorted(cells)
    index = {c: i for i, c in enumerate(ordered)}
    return build_from_rotation(
        [[index[d] for d in neighbors(c) if d in cells] for c in ordered]
    )


# -- brute-force configuration matching ---------------------------------------


def _face_sets(g):
    """Vertex set and edge set of every face, read off the half-edge walks."""
    verts, edges = [], []
    for walk in g.faces:
        verts.append(frozenset(g.origin[h] for h in walk))
        edges.append(frozenset(frozenset((g.origin[h], g.target[h])) for h in walk))
    return verts, edges


def edge_set_three_face_edges(g, i):
    """The half-edges of face i, in walk order, whose edge lies on a 3-face
    other than i, read off the faces' edge sets and not off ``twin``."""
    _, edges = _face_sets(g)
    others = set()
    for j, walk in enumerate(g.faces):
        if j != i and len(walk) == 3:
            others |= edges[j]
    return tuple(h for h in g.faces[i] if frozenset((g.origin[h], g.target[h])) in others)


def brute_force_matches(g, config_id):
    n = g.vertex_count
    faces = range(g.face_count)
    deg = g.degree
    adj = g.has_edge
    face_verts, face_edges = _face_sets(g)
    out = set()

    def shares(fa, fb, edge):
        return edge in face_edges[fa] and edge in face_edges[fb]

    def emb(faces_=(), **roles):
        out.add(MatchEmbedding(config_id, tuple(sorted(roles.items())), faces_))

    if config_id == "conn":
        if not g.is_connected():
            emb()
    elif config_id == "no1v":
        for (v,) in itertools.permutations(range(n), 1):
            if deg(v) == 1:
                emb(leaf=v)
    elif config_id in ("no2v3f", "no2v4f"):
        want = 3 if config_id == "no2v3f" else 4
        for (v,) in itertools.permutations(range(n), 1):
            for fi in faces:
                if deg(v) == 2 and g.face_length(fi) == want and v in face_verts[fi]:
                    emb(faces_=(fi,), deg2=v)
    elif config_id == "no22v":
        for a, b in itertools.permutations(range(n), 2):
            if a < b and deg(a) == 2 and deg(b) == 2 and adj(a, b):
                emb(deg2_a=a, deg2_b=b)
    elif config_id == "no23v":
        for a, b in itertools.permutations(range(n), 2):
            if deg(a) == 2 and deg(b) == 3 and adj(a, b):
                emb(deg2=a, deg3=b)
    elif config_id == "no33v":
        for a, b in itertools.permutations(range(n), 2):
            if a < b and deg(a) == 3 and deg(b) == 3 and adj(a, b):
                emb(deg3_a=a, deg3_b=b)
    elif config_id == "no242v":
        for a, m, b in itertools.permutations(range(n), 3):
            if (
                a < b
                and deg(a) == 2
                and deg(b) == 2
                and deg(m) == 4
                and adj(a, m)
                and adj(m, b)
                and not adj(a, b)
            ):
                emb(deg2_a=a, middle=m, deg2_b=b)
    elif config_id == "no243v":
        for a, m, b in itertools.permutations(range(n), 3):
            if (
                deg(a) == 2
                and deg(b) == 3
                and deg(m) == 4
                and adj(a, m)
                and adj(m, b)
                and not adj(a, b)
            ):
                emb(deg2=a, middle=m, deg3=b)
    elif config_id == "no2v_3f":
        for u, anchor in itertools.permutations(range(n), 2):
            for fi in faces:
                if (
                    deg(u) == 2
                    and deg(anchor) == 4
                    and adj(u, anchor)
                    and g.face_length(fi) == 3
                    and anchor in face_verts[fi]
                    and u not in face_verts[fi]
                ):
                    emb(faces_=(fi,), deg2=u, anchor=anchor)
    elif config_id in ("no3v_33f", "no3v_44f"):
        want = 3 if config_id == "no3v_33f" else 4
        for v, end in itertools.permutations(range(n), 2):
            for fa, fb in itertools.combinations(faces, 2):
                if (
                    deg(v) == 3
                    and g.face_length(fa) == want
                    and g.face_length(fb) == want
                    and v in face_verts[fa]
                    and v in face_verts[fb]
                    and shares(fa, fb, frozenset((v, end)))
                ):
                    emb(faces_=(fa, fb), deg3=v, shared_end=end)
    elif config_id == "no333f":
        for fi in faces:
            if g.face_length(fi) != 3:
                continue
            partners = []
            for fj in faces:
                if fj != fi and g.face_length(fj) == 3:
                    partners.extend([fj] * len(face_edges[fi] & face_edges[fj]))
            if len(partners) >= 2:
                emb(faces_=(fi,) + tuple(sorted(partners)))
    elif config_id == "no34f":
        for u, v in itertools.permutations(range(n), 2):
            if u >= v:
                continue
            for fi in faces:
                for fj in faces:
                    if (
                        g.face_length(fi) == 3
                        and g.face_length(fj) == 4
                        and shares(fi, fj, frozenset((u, v)))
                    ):
                        emb(faces_=(fi, fj), shared_u=u, shared_v=v)
    elif config_id == "no3v3f3f":
        for v, a, b in itertools.permutations(range(n), 3):
            if a >= b:
                continue
            for fi in faces:
                for fj in faces:
                    if (
                        fi != fj
                        and deg(v) == 3
                        and g.face_length(fi) == 3
                        and g.face_length(fj) == 3
                        and v in face_verts[fi]
                        and v not in face_verts[fj]
                        and shares(fi, fj, frozenset((a, b)))
                    ):
                        emb(faces_=(fi, fj), deg3=v, shared_a=a, shared_b=b)
    elif config_id == "no3v3f_3f":
        for v, pivot in itertools.permutations(range(n), 2):
            for fi in faces:
                for fj in faces:
                    if (
                        fi != fj
                        and deg(v) == 3
                        and g.face_length(fi) == 3
                        and g.face_length(fj) == 3
                        and v in face_verts[fi]
                        and face_verts[fi] & face_verts[fj] == {pivot}
                    ):
                        emb(faces_=(fi, fj), deg3=v, pivot=pivot)
    elif config_id == "no3v_3f3v":
        for v, anchor, w in itertools.permutations(range(n), 3):
            for fi in faces:
                if (
                    deg(v) == 3
                    and deg(anchor) == 4
                    and deg(w) == 3
                    and adj(v, anchor)
                    and g.face_length(fi) == 3
                    and anchor in face_verts[fi]
                    and w in face_verts[fi]
                    and v not in face_verts[fi]
                ):
                    emb(faces_=(fi,), deg3_off=v, anchor=anchor, deg3_on=w)
    elif config_id == "no3v_m3f3f":
        for v, near, far in itertools.permutations(range(n), 3):
            for fa, fb in itertools.combinations(faces, 2):
                blocked = face_verts[fa] | face_verts[fb]
                if (
                    deg(v) == 3
                    and g.face_length(fa) == 3
                    and g.face_length(fb) == 3
                    and shares(fa, fb, frozenset((near, far)))
                    and adj(v, near)
                    and v not in blocked
                ):
                    emb(faces_=(fa, fb), deg3=v, near_end=near, far_end=far)
    elif config_id == "no2v__m3f3f":
        for d2, mid, near, far in itertools.permutations(range(n), 4):
            for fa, fb in itertools.combinations(faces, 2):
                blocked = face_verts[fa] | face_verts[fb]
                if (
                    deg(d2) == 2
                    and deg(mid) == 4
                    and g.face_length(fa) == 3
                    and g.face_length(fb) == 3
                    and shares(fa, fb, frozenset((near, far)))
                    and adj(near, mid)
                    and adj(mid, d2)
                    and mid not in blocked
                    and d2 not in blocked
                ):
                    emb(faces_=(fa, fb), deg2=d2, middle=mid, near_end=near, far_end=far)
    else:
        raise ValueError(config_id)
    return out


# -- global rules R1-R4, one incidence at a time ---------------------------------


def incidence_rule_transfers(g):
    """The global rule transfers restated with literal twelfths, in ledger
    order.  Each 6+-face gives 12 (R1) to a degree-2 vertex and 6 (R2) to a
    degree-3 vertex per occurrence on its walk, in walk order; then each
    3-face, in face order, takes 6 (R3) when one of its edges lies on
    another 3-face and 4 (R4) otherwise, from the 6+-face across each of
    its edges.  The R3/R4 split and the face across an edge are read off
    the faces' edge sets, not off ``twin``."""
    _, edges = _face_sets(g)
    transfers = []
    for i, walk in enumerate(g.faces):
        if len(walk) < 6:
            continue
        for h in walk:
            v = g.origin[h]
            if g.degree(v) == 2:
                transfers.append(Transfer("R1", ("face", i), ("vertex", v), 12))
            elif g.degree(v) == 3:
                transfers.append(Transfer("R2", ("face", i), ("vertex", v), 6))
    for i, walk in enumerate(g.faces):
        if len(walk) != 3:
            continue
        rule, amount = ("R3", 6) if edge_set_three_face_edges(g, i) else ("R4", 4)
        for h in walk:
            edge = frozenset((g.origin[h], g.target[h]))
            (j,) = [k for k in range(len(edges)) if k != i and edge in edges[k]]
            if len(g.faces[j]) >= 6:
                transfers.append(Transfer(rule, ("face", j), ("face", i), amount))
    return transfers


# -- edge-level audit, one take() call per sub-rule draw ------------------------


def closure_edge_level_audit(graph, face):
    """The sub-rule ledger of big face ``face`` as a dict of the
    ``FaceAudit`` fields, ``transfers`` included: each draw goes through one
    ``take`` closure that builds its ``Transfer`` on the spot, and the walk
    is read twice, vertex draws first."""
    if not 0 <= face < graph.face_count:
        raise IndexError(f"no face with index {face}")
    walk = graph.faces[face]
    length = len(walk)
    if length < BIG_FACE:
        raise ValueError(f"face {face} has length {length}")
    origin, target = graph.origin, graph.target
    # edges[pos] is the walk edge at position pos, as (low, high).
    edges = [
        (origin[h], target[h]) if origin[h] < target[h] else (target[h], origin[h])
        for h in walk
    ]

    def _is_three_face(graph, i):
        return graph.face_length(i) == 3

    seed = {}
    for e in edges:
        seed[e] = seed.get(e, 0) + THIRD

    taken = [0] * length
    received = {}
    transfers = []

    def take(rule, pos, sink, amount):
        pos %= length
        taken[pos] += amount
        received[sink] = received.get(sink, 0) + amount
        transfers.append(Transfer(rule, ("edge", edges[pos]), sink, amount))

    for pos, h in enumerate(walk):
        # The walk vertex between edge positions pos-1 and pos.
        v = origin[h]
        d = len(graph.rotation[v])
        if d == 2:
            # Short pulls from both incident walk edges, long pulls from the
            # walk edges one step further out.
            take("SubR5", pos - 1, ("vertex", v), THIRD)
            take("SubR5", pos, ("vertex", v), THIRD)
            take("SubR5", pos - 2, ("vertex", v), SIXTH)
            take("SubR5", pos + 1, ("vertex", v), SIXTH)
        elif d == 3:
            # A 3-face at a degree-3 walk vertex always shares one of the
            # two walk edges at that corner (the three corners of a
            # 3-vertex pairwise share an edge).
            after = graph.opposite_face(h)
            before = graph.opposite_face(walk[pos - 1])
            if after != face and _is_three_face(graph, after):
                take("SubR3", pos - 1, ("vertex", v), THIRD)
                take("SubR3", pos + 1, ("vertex", v), SIXTH)
            elif before != face and _is_three_face(graph, before):
                take("SubR3", pos, ("vertex", v), THIRD)
                take("SubR3", pos - 2, ("vertex", v), SIXTH)
            else:
                take("SubR4", pos - 1, ("vertex", v), QUARTER)
                take("SubR4", pos, ("vertex", v), QUARTER)

    for pos, h in enumerate(walk):
        g3 = graph.opposite_face(h)
        if g3 == face or not _is_three_face(graph, g3):
            continue
        take("SubR1", pos, ("face", g3), THIRD)
        # An adjacent 3-face on one of g3's flanks pulls an extra 1/6 from
        # the walk edge on that side of the shared edge.  A 3-face is a
        # triangle, so its only half-edge on the shared edge is twin[h].
        a = origin[h]
        for hg in graph.faces[g3]:
            if hg == graph.twin[h]:
                continue
            other = graph.opposite_face(hg)
            if other != g3 and _is_three_face(graph, other):
                flank_has_a = a in (origin[hg], target[hg])
                take("SubR2", pos - 1 if flank_has_a else pos + 1, ("face", g3), SIXTH)

    edge_final = dict(seed)
    for e, t in zip(edges, taken):
        edge_final[e] -= t

    return {
        "face": face,
        "length": length,
        "residual": ONE * (length - 4) - THIRD * length,
        "edge_seed": seed,
        "edge_final": edge_final,
        "sink_received": received,
        "transfers": tuple(transfers),
    }


def rotation_from_layout(
    points: Sequence[tuple[float, float]],
    edges: Iterable[tuple[int, int]],
) -> list[list[int]]:
    """Clockwise rotation lists read off a straight-line drawing.

    Neighbors are ordered by decreasing angle around each vertex, so a
    crossing-free drawing yields a rotation system with the drawing's faces.
    """
    n = len(points)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    rotation = []
    for u, nbrs in enumerate(adjacency):
        ux, uy = points[u]
        angles = {}
        for v in nbrs:
            angles[v] = math.atan2(points[v][1] - uy, points[v][0] - ux)
        if len(set(angles.values())) != len(nbrs):
            raise ValueError(f"coincident neighbor directions at vertex {u}")
        rotation.append(sorted(nbrs, key=lambda v: -angles[v]))
    return rotation
