import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_has_cycle
from planecharge.corpus import random_class_member
from planecharge.errors import (
    AsymmetricAdjacency,
    DuplicateNeighbor,
    KOutOfRange,
    SelfLoop,
    UnknownVertex,
)
from planecharge.plane_graph import (
    adjacency_has_cycle_of_length,
    build_from_rotation,
    class_membership,
    degree,
    from_file_dict,
    has_cycle_of_length,
    to_file_dict,
    trace_faces,
)


def cycle_rotation(n):
    return [[(i - 1) % n, (i + 1) % n] for i in range(n)]


def test_c6_build():
    g = build_from_rotation(cycle_rotation(6))
    assert g.vertex_count == 6
    assert g.edge_count == 6
    assert sorted(g.face_lengths()) == [6, 6]


def test_single_edge_one_face_of_length_two():
    g = build_from_rotation([[1], [0]])
    assert g.face_lengths() == [2]


def test_cube_euler(named):
    q3 = named["q3"]
    assert (q3.vertex_count, q3.edge_count, q3.face_count) == (8, 12, 6)
    assert q3.vertex_count - q3.edge_count + q3.face_count == 2
    assert sorted(q3.face_lengths()) == [4] * 6


def test_sharpness9_counts(named):
    g = named["sharpness9"]
    assert (g.vertex_count, g.edge_count, g.face_count) == (9, 16, 9)


def test_sharpness9_degrees(named):
    g = named["sharpness9"]
    # center of the plus has degree 4, its four arms degree 3, corners 4
    assert g.degree(0) == 4
    assert g.degree(1) == 3
    assert sorted(g.degree(v) for v in range(9)) == [3, 3, 3, 3, 4, 4, 4, 4, 4]


def test_degree_errors():
    g = build_from_rotation(cycle_rotation(4))
    assert degree(g, 0) == 2
    with pytest.raises(UnknownVertex):
        g.degree(7)


def test_isolated_vertex():
    g = build_from_rotation([[]])
    assert g.degree(0) == 0
    assert class_membership(g).in_class


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_from_rotation([[0]])


def test_build_rejects_duplicate():
    with pytest.raises(DuplicateNeighbor) as err:
        build_from_rotation([[1, 1], [0, 0]])
    assert err.value.pair == (0, 1)


def test_build_rejects_asymmetry():
    with pytest.raises(AsymmetricAdjacency) as err:
        build_from_rotation([[1], []])
    assert err.value.pair == (0, 1)


def test_twin_involution_and_face_partition(named):
    for g in named.values():
        for h in range(2 * g.edge_count):
            assert g.twin[g.twin[h]] == h
            assert g.twin[h] != h
        walked = [h for walk in trace_faces(g) for h in walk]
        assert sorted(walked) == list(range(2 * g.edge_count))
        assert sum(g.face_lengths()) == 2 * g.edge_count


def test_degree_equals_rotation_length(named):
    for g in named.values():
        for v in range(g.vertex_count):
            assert g.degree(v) == len(g.rotation[v])


def test_has_cycle_examples(named):
    c5 = build_from_rotation(cycle_rotation(5))
    assert has_cycle_of_length(c5, 5)
    assert not has_cycle_of_length(named["q3"], 5)
    assert has_cycle_of_length(named["sharpness9"], 5)
    with pytest.raises(KOutOfRange):
        has_cycle_of_length(c5, 2)
    with pytest.raises(KOutOfRange):
        has_cycle_of_length(c5, 9)


def test_has_cycle_matches_naive_enumeration(class_members_6):
    for g in class_members_6[:40]:
        for k in range(3, 8):
            assert has_cycle_of_length(g, k) == naive_has_cycle(
                [g.neighbors(v) for v in range(g.vertex_count)], k
            )


def test_has_cycle_on_bipartite_and_odd_hosts(named):
    # Bipartite hosts (even cycles, grids, square and hexagonal lattice
    # patches: seeds 0-7 draw both) take the 2-coloring shortcut for odd k;
    # odd cycles take the path search.
    hosts = [cycle_rotation(n) for n in range(3, 9)]
    hosts += [named[name].rotation for name in ("c6", "q3", "grid3x3", "k24")]
    hosts += [random_class_member(seed, 8).rotation for seed in range(8)]
    for rotation in hosts:
        adjacency = [frozenset(nbrs) for nbrs in rotation]
        for k in range(3, 9):
            assert adjacency_has_cycle_of_length(adjacency, k) == naive_has_cycle(
                adjacency, k
            ), (rotation, k)


def test_class_membership(named):
    assert class_membership(named["q3"]).in_class
    assert not class_membership(named["sharpness9"]).in_class  # has a 5-cycle
    assert class_membership(named["sharpness9"]).has_5_cycle
    c5 = build_from_rotation(cycle_rotation(5))
    assert not class_membership(c5).in_class


def test_disconnected_flagged_not_rejected():
    g = build_from_rotation([[1], [0], [3], [2]])
    report = class_membership(g)
    assert not report.is_connected
    assert report.in_class


def test_file_roundtrip(named):
    for g in named.values():
        again = from_file_dict(to_file_dict(g))
        assert again.rotation == g.rotation


def test_file_dict_validation():
    with pytest.raises(ValueError):
        from_file_dict({"n": 2})
    with pytest.raises(ValueError):
        from_file_dict({"n": 3, "rot": [[1], [0]]})


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 8))
def test_cycle_graph_invariants(n):
    g = build_from_rotation(cycle_rotation(n))
    assert g.edge_count == n
    assert sorted(g.face_lengths()) == [n, n]
    assert has_cycle_of_length(g, n) if 3 <= n <= 8 else True
    assert g.vertex_count - g.edge_count + g.face_count == 2


def test_faces_at_multiplicity():
    # bowtie: two triangles joined at a cut vertex; the outer walk passes
    # through the cut vertex twice
    g = build_from_rotation(
        [[1, 2, 3, 4], [2, 0], [0, 1], [4, 0], [0, 3]]
    )
    assert sorted(g.face_lengths()) == [3, 3, 6]
    outer = g.face_lengths().index(6)
    assert g.face_vertices(outer).count(0) == 2
    assert g.faces_at(0).count(outer) == 2
