import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecharge.catalog import get_configuration
from planecharge.errors import UnknownVertex
from planecharge.plane_graph import build_from_rotation
from planecharge.square import (
    SimpleGraph,
    induced_subgraph,
    neighbors_within2,
    square,
)


def path(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_p3_squares_to_k3():
    assert square(path(3)) == complete(3)


def test_sharpness9_squares_to_k9(named):
    assert square(named["sharpness9"]) == complete(9)


def test_c6_square_is_4_regular(named):
    sq = square(named["c6"])
    assert all(sq.degree(v) == 4 for v in range(6))


def test_neighbors_within2(named):
    c6 = named["c6"]
    for v in range(6):
        assert len(neighbors_within2(c6, v)) == 4
    k1 = SimpleGraph(1, [])
    assert neighbors_within2(k1, 0) == frozenset()
    with pytest.raises(UnknownVertex):
        neighbors_within2(c6, 10)


def test_generic_one_vertex_neighborhood():
    config = get_configuration("no1v")
    lone = config.roles["leaf"]
    assert len(neighbors_within2(config.pattern, lone)) == 4


def test_induced_subgraph():
    k9 = complete(9)
    sub, kept = induced_subgraph(k9, [2, 5, 7])
    assert kept == (2, 5, 7)
    assert sub == complete(3)
    empty, kept = induced_subgraph(k9, [])
    assert empty.vertex_count == 0 and kept == ()
    with pytest.raises(UnknownVertex):
        induced_subgraph(k9, [50])


def test_induced_square_of_shared_edge_path_config():
    config = get_configuration("no2v__m3f3f")
    core = sorted(config.core())
    sub, kept = induced_subgraph(square(config.pattern), core)
    assert kept == tuple(core)
    assert sub.vertex_count == 4
    assert sub.edge_count == 5  # one pair short of complete


def test_square_contains_original_edges(named):
    for g in named.values():
        sq = square(g)
        for u, v in g.edges():
            assert sq.has_edge(u, v)


def test_square_equality_iff_diameter_one():
    assert square(complete(4)) == complete(4)
    p4 = path(4)
    assert square(p4) != p4


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(6))))
def test_square_relabel_equivariance(perm):
    base = build_from_rotation([[5, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 0]])
    relabeled = SimpleGraph(6, [(perm[u], perm[v]) for u, v in base.edges()])
    sq = square(base)
    sq_relabeled = square(relabeled)
    for u, v in sq.edges():
        assert sq_relabeled.has_edge(perm[u], perm[v])


def test_neighbor_count_consistency(named):
    for g in named.values():
        sq = square(g)
        for v in range(g.vertex_count):
            assert sq.degree(v) == len(neighbors_within2(g, v))


def test_square_adds_no_edge_between_components(named):
    """The fact the ``conn`` entry rests on: the square of a disjoint union
    is the disjoint union of the squares."""
    for a, b in itertools.combinations_with_replacement(named.values(), 2):
        shift = a.vertex_count
        union = SimpleGraph(
            shift + b.vertex_count,
            a.edges() + [(u + shift, v + shift) for u, v in b.edges()],
        )
        apart = SimpleGraph(
            union.vertex_count,
            square(a).edges() + [(u + shift, v + shift) for u, v in square(b).edges()],
        )
        assert square(union) == apart
        assert all((u < shift) == (v < shift) for u, v in square(union).edges())
