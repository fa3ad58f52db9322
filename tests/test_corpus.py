import hashlib
import itertools
import random

import pytest

from oracles import (
    brute_canonical_form,
    brute_colored_canonical_form,
    connected_max4_oracle,
    naive_planar_embedding_exists,
    naive_planar_rotations,
    rescanned_cells,
    rescanned_class_member,
    rotation_from_layout,
    unpruned_members,
    walked_planar_embeddings,
)
from planecharge import corpus
from planecharge.catalog import catalog
from planecharge.corpus import (
    canonical_form,
    enumerate_class,
    find_planar_embedding,
    iter_planar_embeddings,
    named_examples,
    planar_embeddings,
    random_class_member,
)
from planecharge.errors import GraphError, NOutOfRange
from planecharge.matcher import find_any_reducible
from planecharge.plane_graph import (
    adjacency_has_cycle_of_length,
    build_from_rotation,
    class_membership,
)
from planecharge.square import SimpleGraph, square


def test_named_examples_present(named):
    assert {"sharpness9", "k24", "c6", "q3", "grid3x3", "hexprism"} <= set(named)
    for ng in named_examples():
        assert ng.provenance


def test_sharpness9_is_the_drawing(named):
    g = named["sharpness9"]
    assert g.vertex_count == 9
    assert max(g.degree(v) for v in range(9)) == 4
    assert square(g).is_complete()


def test_k24_shape(named):
    g = named["k24"]
    assert sorted(g.degree(v) for v in range(6)) == [2, 2, 2, 2, 4, 4]
    assert sorted(g.face_lengths()) == [4, 4, 4, 4]


def test_c6_is_class_member_with_adjacent_2vertices(named):
    assert class_membership(named["c6"]).in_class
    assert all(named["c6"].degree(v) == 2 for v in range(6))


def test_enumerate_bounds():
    with pytest.raises(NOutOfRange):
        list(enumerate_class(1))
    with pytest.raises(NOutOfRange):
        list(enumerate_class(9))


def test_enumerate_smallest():
    graphs = list(enumerate_class(2))
    assert len(graphs) == 1
    assert graphs[0].edge_count == 1


def test_enumerate_three():
    graphs = list(enumerate_class(3))
    by_size = {}
    for g in graphs:
        by_size.setdefault(g.vertex_count, []).append(g)
    assert len(by_size[2]) == 1
    assert sorted(g.edge_count for g in by_size[3]) == [2, 3]  # path and triangle


def test_enumerate_five_excludes_c5_includes_k4():
    graphs = list(enumerate_class(5))
    for g in graphs:
        assert class_membership(g).in_class
        assert g.is_connected()
    edge_sets = {
        (g.vertex_count, g.edge_count, tuple(sorted(g.degree(v) for v in range(g.vertex_count))))
        for g in graphs
    }
    assert (4, 6, (3, 3, 3, 3)) in edge_sets  # the complete graph on 4
    assert (5, 5, (2, 2, 2, 2, 2)) not in edge_sets  # the banned 5-cycle


def test_enumeration_isomorph_free(class_members_6):
    forms = [
        canonical_form(g.vertex_count, [g.neighbors(v) for v in range(g.vertex_count)])
        for g in class_members_6
    ]
    assert len(set(forms)) == len(forms)


def _relabel(adjacency, perm):
    """The graph with vertex v renamed perm[v]."""
    out = [None] * len(adjacency)
    for v, nbrs in enumerate(adjacency):
        out[perm[v]] = frozenset(perm[u] for u in nbrs)
    return tuple(out)


def test_canonical_form_agrees_with_brute_force():
    """Equal keys exactly when the brute-force keys are equal, over every
    connected max-degree-4 graph on up to 7 vertices and relabellings."""
    rng = random.Random(5)
    pairs = set()
    for n in range(1, 8):
        for adjacency in connected_max4_oracle(n):
            variants = [adjacency]
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                variants.append(_relabel(adjacency, perm))
            for g in variants:
                pairs.add((brute_canonical_form(n, g), canonical_form(n, g)))
    brute_keys = {b for b, _ in pairs}
    assert len(brute_keys) == sum(len(connected_max4_oracle(n)) for n in range(1, 8))
    assert len(pairs) == len(brute_keys) == len({c for _, c in pairs})


def _twin_heavy_graphs():
    """Graphs on at most 7 vertices made mostly of twins: K_{a,b} (stars
    among them) and K_6 minus a perfect matching have non-adjacent twins,
    K_n adjacent ones, and K_2 or K_3 joined to an independent set both."""
    def join(a, b, clique_a):
        edges = {(i, a + j) for i in range(a) for j in range(b)}
        if clique_a:
            edges |= set(itertools.combinations(range(a), 2))
        return a + b, edges

    cases = [join(a, b, False) for a in range(1, 4) for b in range(max(a, 2), 8 - a)]
    cases += [join(n, 0, True) for n in range(1, 8)]
    cases += [join(a, b, True) for a in (2, 3) for b in range(2, 8 - a)]
    cases.append((6, set(itertools.combinations(range(6), 2)) - {(0, 1), (2, 3), (4, 5)}))
    for n, edges in cases:
        adjacency = [set() for _ in range(n)]
        for u, v in edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        yield n, tuple(frozenset(s) for s in adjacency)


def test_canonical_form_on_twin_heavy_graphs():
    """With and without colors, equal keys exactly when the brute-force keys
    are equal, under seeded relabellings of graphs made mostly of twins."""
    rng = random.Random(19)
    plain, colored = set(), set()
    for n, adjacency in _twin_heavy_graphs():
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            g = _relabel(adjacency, perm)
            plain.add((brute_canonical_form(n, g), canonical_form(n, g)))
            for colors in ([v % 2 for v in range(n)], [rng.randint(0, 2) for _ in range(n)]):
                c = [0] * n
                for v in range(n):
                    c[perm[v]] = colors[v]
                colored.add((brute_colored_canonical_form(n, g, c), canonical_form(n, g, c)))
    for pairs in (plain, colored):
        brute_keys = {b for b, _ in pairs}
        assert len(pairs) == len(brute_keys) == len({c for _, c in pairs})
    assert len({b for b, _ in plain}) == len(list(_twin_heavy_graphs()))


def test_colored_canonical_form_agrees_with_brute_force():
    """With vertex colors, equal keys exactly when the unrefined brute-force
    keys are equal, over every connected max-degree-4 graph on up to 6
    vertices under seeded demand colorings and relabellings."""
    rng = random.Random(18)
    pairs = set()
    for n in range(1, 7):
        for adjacency in connected_max4_oracle(n):
            colorings = ([2] * n, [rng.randint(0, 3) for _ in range(n)], [v % 2 for v in range(n)])
            for colors in colorings:
                for _ in range(2):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    g = _relabel(adjacency, perm)
                    c = [0] * n
                    for v in range(n):
                        c[perm[v]] = colors[v]
                    pairs.add((brute_colored_canonical_form(n, g, c), canonical_form(n, g, c)))
    brute_keys = {b for b, _ in pairs}
    assert len(brute_keys) > 2 * sum(len(connected_max4_oracle(n)) for n in range(1, 7))
    assert len(pairs) == len(brute_keys) == len({c for _, c in pairs})


def _old_rule_members(n):
    """The unpruned enumeration filtered as members: edge bounds, no
    5-cycle, then a planar embedding."""
    for adjacency in connected_max4_oracle(n):
        edge_count = sum(len(s) for s in adjacency) // 2
        if n >= 3:
            if edge_count > 3 * n - 6:
                continue
            if edge_count > 2 * n - 4 and not adjacency_has_cycle_of_length(
                adjacency, 3
            ):
                continue
        if adjacency_has_cycle_of_length(adjacency, 5):
            continue
        graph = find_planar_embedding(adjacency)
        if graph is not None:
            yield graph


def test_enumeration_equals_unpruned_oracle():
    """Same graphs, same embeddings, same order as the unpruned generator."""
    expected = [g.rotation for n in range(2, 8) for g in _old_rule_members(n)]
    assert [g.rotation for g in enumerate_class(7)] == expected


def test_twin_skip_keeps_every_representative():
    """Same members, same embeddings, same order as growth with every child
    tried, for every n <= 8."""
    expected = [g.rotation for n in range(2, 9) for g in unpruned_members(n)]
    assert [g.rotation for g in enumerate_class(8)] == expected


# SHA-256 of every member rotation for n <= 8, in enumeration order, as
# enumeration gave them before it skipped children by twin swaps.
MEMBERS_8_PIN = "42a63daacbc5469c9f51abbad02010e8c9987936f9bb494965f838f68dcd288c"


def test_member_rotations_pinned():
    digest = hashlib.sha256()
    for g in enumerate_class(8):
        digest.update(repr(g.rotation).encode())
    assert digest.hexdigest() == MEMBERS_8_PIN


def test_twin_skip_fires(monkeypatch):
    """Up to n = 7, 150 of the 670 children are twins of earlier ones and
    never reach canonical_form."""
    calls = []
    form = corpus.canonical_form
    monkeypatch.setattr(corpus, "canonical_form", lambda *a: calls.append(1) or form(*a))
    corpus._members.cache_clear()
    try:
        assert len(list(enumerate_class(7))) == 151
    finally:
        corpus._members.cache_clear()  # rebuilt unpatched on next use
    assert len(calls) == 520


def test_member_counts_per_size():
    counts = {}
    for g in enumerate_class(8):
        counts[g.vertex_count] = counts.get(g.vertex_count, 0) + 1
    assert counts == {2: 1, 3: 2, 4: 6, 5: 13, 6: 34, 7: 95, 8: 335}


def _naive_class_forms(n):
    """Generate-and-filter over all edge subsets of the complete graph."""
    forms = set()
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        if any(len(s) > 4 for s in adj):
            continue
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            continue
        frozen = tuple(frozenset(s) for s in adj)
        if adjacency_has_cycle_of_length(frozen, 5):
            continue
        key = canonical_form(n, frozen)
        if key in forms:
            continue
        if find_planar_embedding(frozen) is not None:
            forms.add(key)
    return forms


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumeration_complete_vs_naive(n):
    got = {
        canonical_form(g.vertex_count, [g.neighbors(v) for v in range(g.vertex_count)])
        for g in enumerate_class(n)
        if g.vertex_count == n
    }
    assert got == _naive_class_forms(n)


def test_embedding_search_agrees_with_exhaustive():
    cases = [
        # K3,3: not planar
        tuple(
            frozenset({3, 4, 5}) if v < 3 else frozenset({0, 1, 2})
            for v in range(6)
        ),
    ]
    cases += list(connected_max4_oracle(5))
    cases += list(connected_max4_oracle(6))[::7]  # every 7th 6-vertex graph
    for adjacency in cases:
        mine = find_planar_embedding(adjacency) is not None
        assert mine == naive_planar_embedding_exists(adjacency)


def test_k33_rejected():
    k33 = tuple(
        frozenset({3, 4, 5}) if v < 3 else frozenset({0, 1, 2}) for v in range(6)
    )
    assert find_planar_embedding(k33) is None


def _fuzz_graphs():
    """60 seeded connected graphs on 3-6 vertices, each edge drawn with
    probability 1/2 and no degree above 5."""
    rng = random.Random(42)
    tested = 0
    while tested < 60:
        n = rng.randrange(3, 7)
        adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    adj[u].add(v)
                    adj[v].add(u)
        if any(len(s) > 5 for s in adj):
            continue
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            continue
        yield tuple(frozenset(s) for s in adj)
        tested += 1


def test_embedding_fuzz_against_exhaustive():
    for frozen in _fuzz_graphs():
        assert (
            find_planar_embedding(frozen) is not None
        ) == naive_planar_embedding_exists(frozen)


def _same_as_walked(adjacency):
    """The rotations the search yields, checked to be the walked oracle's,
    in the same order."""
    mine = [g.rotation for g in iter_planar_embeddings(adjacency)]
    assert mine == [g.rotation for g in walked_planar_embeddings(adjacency)]
    return mine


def test_chain_search_equals_walked_search_on_members():
    """Every embedding of every member for n <= 8, in the same order."""
    sizes = [
        len(_same_as_walked(tuple(g.neighbors(v) for v in range(g.vertex_count))))
        for g in enumerate_class(8)
    ]
    assert (len(sizes), sum(sizes)) == (486, 3368)


# Distinct children of class growth for n <= 8 (twin skip on) with no planar
# embedding: one on 6 vertices (K_{3,3}), 3 on 7 and 15 on 8.
NONPLANAR_CANDIDATES_8 = 19


def test_chain_search_equals_walked_search_on_nonplanar_candidates(monkeypatch):
    """The children of class growth for n <= 8 that no rotation system
    embeds: both searches yield nothing."""
    nonplanar = []

    def record(adjacency):
        graph = find_planar_embedding(adjacency)
        if graph is None:
            nonplanar.append(adjacency)
        return graph

    monkeypatch.setattr(corpus, "find_planar_embedding", record)
    corpus._members.cache_clear()
    try:
        assert len(list(enumerate_class(8))) == 486
    finally:
        corpus._members.cache_clear()  # rebuilt unpatched on next use
    assert len(nonplanar) == NONPLANAR_CANDIDATES_8
    for adjacency in nonplanar:
        assert _same_as_walked(adjacency) == []


def test_chain_search_equals_walked_search_on_fuzz_and_small_graphs():
    for adjacency in _fuzz_graphs():
        _same_as_walked(adjacency)
    single = (frozenset(),)
    k2 = (frozenset({1}), frozenset({0}))
    edgeless = (frozenset(),) * 3
    two_edges = (frozenset({1}), frozenset({0}), frozenset({3}), frozenset({2}))
    assert _same_as_walked(single) == [((),)]
    assert _same_as_walked(k2) == [((1,), (0,))]
    assert _same_as_walked(edgeless) == []
    assert _same_as_walked(two_edges) == []


def test_multiple_embeddings_distinct():
    members = [g for g in enumerate_class(6) if g.vertex_count == 6]
    g = members[-1]
    adjacency = tuple(g.neighbors(v) for v in range(g.vertex_count))
    found = planar_embeddings(adjacency, limit=3)
    assert found
    assert len({h.rotation for h in found}) == len(found)
    for h in found:
        assert class_membership(h).in_class


def test_embedding_order_digest(class_members_7):
    """The search order is fixed: every member's rotation for n <= 7, every
    embedding of each member in the order found, and the 16 catalog
    patterns, which take the first embedding with their witness faces."""
    digest = hashlib.sha256()
    for g in class_members_7:
        digest.update(repr(g.rotation).encode())
        adjacency = tuple(g.neighbors(v) for v in range(g.vertex_count))
        for h in planar_embeddings(adjacency, 10**6):
            digest.update(repr(h.rotation).encode())
    patterns = [entry.pattern for entry in catalog() if entry.pattern is not None]
    assert len(patterns) == 16
    for pattern in patterns:
        digest.update(repr(pattern.rotation).encode())
    assert digest.hexdigest() == (
        "0f1fa02ad487e24bb819860ca6da5ebb2cadbde3fba14ce6223ddbf46733eeb1"
    )


def _mirror_class(rotation):
    """A rotation system and its mirror image, as one key: each cyclic
    order starts at its smallest neighbour."""

    def start_low(cyc):
        i = cyc.index(min(cyc))
        return tuple(cyc[i:] + cyc[:i])

    forward = tuple(start_low(list(r)) for r in rotation)
    mirror = tuple(start_low(list(reversed(r))) for r in rotation)
    return min(forward, mirror)


def test_every_embedding_once_against_exhaustive(class_members_7):
    """The pruned search yields every planar rotation system of each member
    exactly once up to reflection."""
    for g in class_members_7:
        adjacency = tuple(g.neighbors(v) for v in range(g.vertex_count))
        found = [
            _mirror_class(h.rotation) for h in planar_embeddings(adjacency, 10**6)
        ]
        expected = {_mirror_class(r) for r in naive_planar_rotations(adjacency)}
        assert len(found) == len(set(found))
        assert set(found) == expected


def test_every_member_in_class(class_members_7):
    for g in class_members_7:
        report = class_membership(g)
        assert report.in_class and report.is_connected


def test_random_member_determinism():
    a = random_class_member(1, 9)
    b = random_class_member(1, 9)
    assert a.rotation == b.rotation
    assert a.vertex_count == 9


def test_random_member_validity_and_reducibility():
    for seed in range(30):
        g = random_class_member(seed, 14)
        assert class_membership(g).in_class
        assert g.is_connected()
        assert find_any_reducible(g) is not None


def test_random_member_rejects_tiny():
    with pytest.raises(ValueError):
        random_class_member(0, 1)
    with pytest.raises(GraphError, match="^n=0 is below the minimum of 2 vertices$"):
        random_class_member(0, 0)


def test_random_member_equals_rescanning_oracle():
    """The frontier kept sorted as cells join draws the patch that
    rebuilding it from the whole patch at every step draws."""
    for seed in range(300):
        for n in (2, 3, 7, 20, 41, 200):
            got = random_class_member(seed, n).rotation
            assert got == rescanned_class_member(seed, n).rotation, (seed, n)


def test_random_members_cover_both_lattices():
    kinds = set()
    for seed in range(40):
        g = random_class_member(seed, 30)
        if max(g.degree(v) for v in range(g.vertex_count)) == 4:
            kinds.add("square")
        lengths = set(g.face_lengths())
        if 6 in lengths and 4 not in lengths:
            kinds.add("hex")
    assert kinds == {"square", "hex"}


def _lattice_drawing(seed, n):
    """The lattice patch random_class_member(seed, n) draws, as a
    straight-line drawing: the cells of the rescanning oracle, with square
    cells at (x, y) and hexagonal cells at (x, 2y + 0.25) when x + y is even
    and at (x, 2y) otherwise.  Returns the lattice name and the plane graph
    the drawing's angles give."""
    def square_nbrs(c):
        x, y = c
        return {(x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)}

    def hex_nbrs(c):
        x, y = c
        return {(x + 1, y), (x - 1, y), (x, y + 1 if (x + y) % 2 == 0 else y - 1)}

    kind, cells = rescanned_cells(seed, n)
    if kind == "square":
        nbrs, position = square_nbrs, lambda c: c
    else:
        nbrs = hex_nbrs
        position = lambda c: (c[0], 2 * c[1] + (0.25 if sum(c) % 2 == 0 else 0.0))
    ordered = sorted(cells)
    index = {c: i for i, c in enumerate(ordered)}
    edges = [
        (index[c], index[d]) for c in ordered for d in nbrs(c) if d in cells and c < d
    ]
    points = [position(c) for c in ordered]
    return kind, build_from_rotation(rotation_from_layout(points, edges))


def test_lattice_rotation_equals_drawing():
    """The lattice neighbour orders give exactly the rotation that the
    angles of the lattice drawing give."""
    kinds = {"square": 0, "hex": 0}
    for seed in range(240):
        n = 2 + seed % 48
        kind, drawn = _lattice_drawing(seed, n)
        kinds[kind] += 1
        assert random_class_member(seed, n).rotation == drawn.rotation, (seed, n)
    assert min(kinds.values()) >= 80, kinds
