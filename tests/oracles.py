"""Independent brute-force oracles the tests compare the package against.

Everything here recomputes results the slow, obviously-correct way:
exhaustive permutations for cycles and matches, explicit list enumeration
and unreduced atom-pattern enumeration for choosability, unpruned
rotation products for planarity, every cell-consistent vertex order for
canonical forms, and vertex augmentation over every connected
max-degree-4 graph rather than class members only.
"""

import itertools
from functools import lru_cache
from typing import Optional

from planecharge.choosability import ListAssignment, l_coloring
from planecharge.matcher import MatchEmbedding
from planecharge.plane_graph import build_from_rotation


def naive_has_cycle(adjacency, k):
    n = len(adjacency)
    for perm in itertools.permutations(range(n), k):
        if all(perm[(i + 1) % k] in adjacency[perm[i]] for i in range(k)):
            return True
    return False


def naive_f_choosable(graph, demands):
    """Enumerate every explicit assignment from a universe of size sum(f)."""
    universe = range(sum(demands))
    for lists in itertools.product(
        *[itertools.combinations(universe, f) for f in demands]
    ):
        if l_coloring(graph, ListAssignment.from_lists(lists)) is None:
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
    return ListAssignment.from_lists(lists)


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
        assignment = _instantiate(n, full)
        if l_coloring(graph, assignment) is None:
            return assignment
        return None

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


# -- brute-force configuration matching ---------------------------------------


def _face_sets(g):
    """Vertex set and edge set of every face, read off the half-edge walks."""
    verts, edges = [], []
    for walk in g.faces:
        verts.append(frozenset(g.origin[h] for h in walk))
        edges.append(frozenset(frozenset((g.origin[h], g.target[h])) for h in walk))
    return verts, edges


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
