import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    EagerPlaneGraph,
    edge_set_three_face_edges,
    naive_has_cycle,
    per_component_euler,
)
from planecharge.catalog import catalog
from planecharge.corpus import (
    enumerate_class,
    iter_planar_embeddings,
    planar_embeddings,
    random_class_member,
)
from planecharge.discharging import BIG_FACE, edge_level_audit, final_audit, reconcile_face
from planecharge.errors import (
    AsymmetricAdjacency,
    DuplicateNeighbor,
    KOutOfRange,
    NOutOfRange,
    NotBigFace,
    SelfLoop,
    UnknownVertex,
)
from planecharge.plane_graph import (
    CYCLE_LENGTHS,
    PlaneGraph,
    adjacency_has_cycle_of_length,
    build_from_rotation,
    class_membership,
    dump_graph_file,
    from_file_dict,
    has_cycle_of_length,
    load_graph_file,
    to_file_dict,
)
from planecharge.reducibility import f_values, verify_reduction
from planecharge.square import SimpleGraph, induced_subgraph, neighbors_within2


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
    assert g.degree(0) == 2
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
        walked = [h for walk in g.faces for h in walk]
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


def test_limit_messages(named):
    """Each limit is stated once, as a named constant, and its error message
    keeps every byte."""
    c5 = build_from_rotation(cycle_rotation(5))
    with pytest.raises(KOutOfRange) as err:
        has_cycle_of_length(c5, 9)
    assert str(err.value) == "cycle length 9 outside supported range 3..8"
    with pytest.raises(NotBigFace) as err:
        edge_level_audit(named["q3"], 0)
    assert str(err.value) == "face 0 has length 4; edge-level audit needs length >= 6"
    with pytest.raises(NOutOfRange) as err:
        list(enumerate_class(9))
    assert str(err.value) == "enumeration size 9 outside supported range 2..8"


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
    hosts = [cycle_rotation(n) for n in CYCLE_LENGTHS]
    hosts += [named[name].rotation for name in ("c6", "q3", "grid3x3", "k24")]
    hosts += [random_class_member(seed, 8).rotation for seed in range(8)]
    for rotation in hosts:
        adjacency = [frozenset(nbrs) for nbrs in rotation]
        for k in CYCLE_LENGTHS:
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


PLANE_TRIANGLE = build_from_rotation([[1, 2], [2, 0], [0, 1]])
SIMPLE_TRIANGLE = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])

# Every entry point that takes a vertex id, each given the bad id b.
VERTEX_ENTRY_POINTS = {
    "PlaneGraph": lambda b: PlaneGraph([[1, 2], [2, 0], [0, b]]),
    "SimpleGraph": lambda b: SimpleGraph(3, [(0, 1), (1, b)]),
    "PlaneGraph.degree": lambda b: PLANE_TRIANGLE.degree(b),
    "PlaneGraph.neighbors": lambda b: PLANE_TRIANGLE.neighbors(b),
    "PlaneGraph.has_edge(b, 0)": lambda b: PLANE_TRIANGLE.has_edge(b, 0),
    "PlaneGraph.has_edge(0, b)": lambda b: PLANE_TRIANGLE.has_edge(0, b),
    "SimpleGraph.degree": lambda b: SIMPLE_TRIANGLE.degree(b),
    "SimpleGraph.neighbors": lambda b: SIMPLE_TRIANGLE.neighbors(b),
    "SimpleGraph.has_edge(b, 0)": lambda b: SIMPLE_TRIANGLE.has_edge(b, 0),
    "SimpleGraph.has_edge(0, b)": lambda b: SIMPLE_TRIANGLE.has_edge(0, b),
    "neighbors_within2": lambda b: neighbors_within2(PLANE_TRIANGLE, b),
    "induced_subgraph": lambda b: induced_subgraph(SIMPLE_TRIANGLE, [0, b]),
    "f_values": lambda b: f_values(PLANE_TRIANGLE, [b], []),
    "verify_reduction": lambda b: verify_reduction(PLANE_TRIANGLE, [b], [], []),
}


@pytest.mark.parametrize("bad", [True, -1, 3, "0"], ids=repr)
@pytest.mark.parametrize("entry", sorted(VERTEX_ENTRY_POINTS))
def test_every_vertex_entry_point_rejects_bad_ids(entry, bad):
    """The triangle has ids 0..2; a bool, a negative id, the vertex count
    and a string are all unknown vertices."""
    with pytest.raises(UnknownVertex):
        VERTEX_ENTRY_POINTS[entry](bad)


def test_plane_graph_is_a_simple_graph(named, class_members_7):
    """A PlaneGraph answers the neighbour-set queries as the SimpleGraph on
    its rotation's edges does, yet equals only itself."""
    for g in [*named.values(), *class_members_7]:
        n = g.vertex_count
        pairs = sorted((u, v) for u in range(n) for v in g.rotation[u] if u < v)
        simple = SimpleGraph(n, pairs)
        assert isinstance(g, SimpleGraph)
        assert g.edges() == simple.edges() == pairs
        assert [g.neighbors(v) for v in range(n)] == [simple.neighbors(v) for v in range(n)]
        assert [g.degree(v) for v in range(n)] == [simple.degree(v) for v in range(n)]
        for u, v in itertools.product(range(n), repeat=2):
            assert g.has_edge(u, v) == simple.has_edge(u, v)
        assert g.edge_count == simple.edge_count
        assert g.is_complete() == simple.is_complete()
        assert g == g and not g != g
        assert not g == simple and not simple == g
        assert g != simple and simple != g


def test_three_face_edges_match_edge_set_oracle(class_members_7):
    """three_face_edges equals the oracle read off face edge sets on every
    embedding of every class member up to 7 vertices, and on plane K3 and
    plane K4, where every face lists its whole walk."""
    k3 = build_from_rotation(cycle_rotation(3))
    k4 = build_from_rotation([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    for g in (k3, k4):
        assert [g.three_face_edges(i) for i in range(g.face_count)] == list(g.faces)
    hosts = [k3, k4]
    for g in class_members_7:
        adjacency = tuple(g.neighbors(v) for v in range(g.vertex_count))
        hosts += iter_planar_embeddings(adjacency)
    listed = 0
    for g in hosts:
        for i in range(g.face_count):
            edges = g.three_face_edges(i)
            assert edges == edge_set_three_face_edges(g, i), (g.rotation, i)
            listed += len(edges)
    assert len(hosts) > 600 and listed > 0


def test_two_embeddings_of_one_graph_are_unequal(class_members_7):
    pairs = 0
    for g in class_members_7:
        adjacency = tuple(g.neighbors(v) for v in range(g.vertex_count))
        embeddings = planar_embeddings(adjacency, limit=2)
        if len(embeddings) == 2:
            a, b = embeddings
            pairs += 1
            assert a != b and not a == b
            assert len({a, b, a}) == 2
    assert pairs > 0


def test_simple_graph_equality_is_by_value():
    a = SimpleGraph(3, [(0, 1), (1, 2)])
    b = SimpleGraph(3, [(2, 1), (1, 0), (0, 1)])
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != SimpleGraph(3, [(0, 1)])
    assert a != SimpleGraph(4, [(0, 1), (1, 2)])


def test_simple_graph_rejects_loop():
    with pytest.raises(SelfLoop):
        SimpleGraph(3, [(0, 1), (2, 2)])


def assert_euler_agrees(g):
    plane, components = per_component_euler(g)
    report = class_membership(g)
    assert report.euler_ok == plane, g.rotation
    assert report.is_connected == (components <= 1), g.rotation


def test_euler_matches_per_component_oracle(class_members_7, named):
    for g in class_members_7 + list(named.values()):
        assert_euler_agrees(g)
    # non-plane rotations of K4 and of two disjoint K4s, and one of them
    # beside a lone vertex and a plane triangle
    k4 = [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]
    assert not class_membership(build_from_rotation(k4)).euler_ok
    shifted = [[v + 4 for v in nbrs] for nbrs in k4]
    for rotation in (k4, k4 + shifted, k4 + [[]] + [[6, 7], [7, 5], [5, 6]]):
        assert_euler_agrees(build_from_rotation(rotation))


@st.composite
def rotation_systems(draw, max_vertices=8):
    """Any rotation system on up to max_vertices vertices: a random simple
    graph, often disconnected, with a random cyclic order at each vertex,
    so often not plane."""
    n = draw(st.integers(1, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=12)) if pairs else set()
    nbrs = [[] for _ in range(n)]
    for u, v in sorted(edges):
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [draw(st.permutations(vs)) for vs in nbrs]


@settings(max_examples=300, deadline=None)
@given(rotation_systems())
def test_euler_matches_oracle_on_any_rotation_system(rotation):
    assert_euler_agrees(build_from_rotation(rotation))


# -- the constructor against the eager, dict-paired oracle ---------------------

ARRAYS = ("origin", "target", "twin", "faces", "face_of")


def half_edge_or_error(g, u, v):
    try:
        return g.half_edge(u, v)
    except KeyError as err:
        return err.args


def assert_agrees_with_eager(rotation):
    """Every array and view of the plane graph equals the eager oracle's."""
    g = build_from_rotation(rotation)
    eager = EagerPlaneGraph(rotation)
    for name in ARRAYS:
        assert getattr(g, name) == getattr(eager, name), (name, rotation)
    n = g.vertex_count
    for u, v in itertools.product(range(n), repeat=2):
        assert half_edge_or_error(g, u, v) == half_edge_or_error(eager, u, v)
    for v in range(n):
        assert g.faces_at(v) == eager.faces_at(v)
        assert g.neighbors(v) == eager.neighbors(v)
    for i in range(g.face_count):
        assert g.face_vertex_set(i) == eager.face_vertex_set(i)
        assert g.three_face_edges(i) == edge_set_three_face_edges(g, i)
    assert g.components() == eager.components()


def test_constructor_agrees_with_eager_oracle(named, class_members_7):
    patterns = [entry.pattern for entry in catalog() if entry.pattern is not None]
    assert len(patterns) == 16
    lattice = [random_class_member(seed, 2 + (seed * 17) % 39) for seed in range(200)]
    for g in list(named.values()) + class_members_7 + patterns + lattice:
        assert_agrees_with_eager(g.rotation)


@settings(max_examples=300, deadline=None)
@given(rotation_systems())
def test_constructor_agrees_with_eager_oracle_on_any_rotation_system(rotation):
    assert_agrees_with_eager(rotation)


@st.composite
def malformed_rotations(draw):
    """A rotation system with one to three faults: a bad id (a bool, a
    string, a float, a negative or too-large int), a self-listing, a
    duplicate, a dropped listing or a one-sided listing."""
    rotation = [list(nbrs) for nbrs in draw(rotation_systems())]
    n = len(rotation)
    for _ in range(draw(st.integers(1, 3))):
        u = draw(st.integers(0, n - 1))
        nbrs = rotation[u]
        at = draw(st.integers(0, len(nbrs)))
        strangers = [w for w in range(n) if w != u and w not in nbrs]
        fault = draw(st.sampled_from(["id", "self", "duplicate", "drop", "one-sided"]))
        if fault == "id":
            bad = st.one_of(
                st.booleans(),
                st.text(max_size=2),
                st.floats(),
                st.integers(-3, -1),
                st.integers(n, n + 3),
            )
            nbrs.insert(at, draw(bad))
        elif fault == "duplicate" and nbrs:
            nbrs.insert(at, draw(st.sampled_from(nbrs)))
        elif fault == "drop" and nbrs:
            del nbrs[at % len(nbrs)]
        elif fault == "one-sided" and strangers:
            nbrs.insert(at, draw(st.sampled_from(strangers)))
        else:
            nbrs.insert(at, u)
    return rotation


def raised(build, rotation):
    try:
        build(rotation)
    except Exception as err:
        return type(err), getattr(err, "pair", None), str(err)
    return None


@settings(max_examples=400, deadline=None)
@given(malformed_rotations())
def test_malformed_rotation_raises_the_eager_error(rotation):
    """Each malformed rotation raises the eager oracle's error: the same
    type, the same pair and the same message.  (A dropped listing and a
    one-sided one can cancel out; such a rotation builds in both.)"""
    expected = raised(EagerPlaneGraph, rotation)
    if expected is None:
        assert_agrees_with_eager(rotation)
    else:
        assert raised(PlaneGraph, rotation) == expected, rotation


def built(g, view):
    """Whether the derived view has been built, without building it."""
    try:
        object.__getattribute__(g, view)
    except AttributeError:
        return False
    return True


def test_views_are_derived_on_first_read(tmp_path):
    host = random_class_member(seed=3, n=120)
    path = str(tmp_path / "host.graph")
    dump_graph_file(host, path)
    g = load_graph_file(path)
    class_membership(g)
    final_audit(g)
    for i, walk in enumerate(g.faces):
        if len(walk) >= BIG_FACE:
            assert reconcile_face(g, i).ok
    assert not built(g, "_face_vertex_sets")
    assert not built(g, "_adjacency")
    first = g.face_vertex_set(0)
    assert built(g, "_face_vertex_sets")
    assert g.face_vertex_set(0) is first
    assert first == frozenset(g.face_vertices(0))
    assert g.neighbors(0) == frozenset(g.rotation[0])
    assert built(g, "_adjacency")
    with pytest.raises(AttributeError):
        g.no_such_view


def test_views_built_by_racing_threads_agree():
    """Threads that read the views of one fresh instance at once, with
    frequent switches between them, all see the eager oracle's values."""
    rotation = random_class_member(seed=5, n=150).rotation
    eager = EagerPlaneGraph(rotation)
    want = (
        [eager.face_vertex_set(i) for i in range(len(eager.faces))],
        [eager.neighbors(v) for v in range(len(rotation))],
    )
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = build_from_rotation(rotation)
            seen = []

            def read(g=g, seen=seen):
                seen.append((
                    [g.face_vertex_set(i) for i in range(g.face_count)],
                    [g.neighbors(v) for v in range(g.vertex_count)],
                ))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert seen == [want] * 8
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize(
    "u, v", [(0, 2), (True, 0), (0, True), (-1, 0), (0, -1), (3, 0), (0, 3), (0, 1.0)]
)
def test_half_edge_raises_key_error(u, v):
    """The path 0 - 1 - 2: 02 is no edge, and a bool, a negative id, the
    vertex count and a float are no vertex ids."""
    g = build_from_rotation([[1], [0, 2], [1]])
    with pytest.raises(KeyError) as err:
        g.half_edge(u, v)
    assert err.value.args == ((u, v),)
