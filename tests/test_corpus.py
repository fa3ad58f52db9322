import itertools
import random

import pytest

from oracles import (
    brute_canonical_form,
    connected_max4_oracle,
    naive_planar_embedding_exists,
)
from planecharge.corpus import (
    canonical_form,
    enumerate_class,
    find_planar_embedding,
    named_examples,
    planar_embeddings,
    random_class_member,
)
from planecharge.errors import NOutOfRange
from planecharge.matcher import find_any_reducible
from planecharge.plane_graph import adjacency_has_cycle_of_length, class_membership
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


def test_embedding_fuzz_against_exhaustive():
    import random

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
        frozen = tuple(frozenset(s) for s in adj)
        assert (
            find_planar_embedding(frozen) is not None
        ) == naive_planar_embedding_exists(frozen)
        tested += 1


def test_multiple_embeddings_distinct():
    members = [g for g in enumerate_class(6) if g.vertex_count == 6]
    g = members[-1]
    adjacency = tuple(g.neighbors(v) for v in range(g.vertex_count))
    found = planar_embeddings(adjacency, limit=3)
    assert found
    assert len({h.rotation for h in found}) == len(found)
    for h in found:
        assert class_membership(h).in_class


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
