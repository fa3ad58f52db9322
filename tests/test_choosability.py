import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_f_choosable, pattern_f_choosable
from planecharge.choosability import (
    DemandFunction,
    ListAssignment,
    chromatic_number,
    clique_f_choosable,
    is_f_choosable,
    is_k_choosable,
    l_coloring,
)
from planecharge.errors import MissingList, TooManyVertices
from planecharge.square import SimpleGraph, induced_subgraph, square


def complete(n):
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def k24():
    return SimpleGraph(6, [(0, j) for j in range(2, 6)] + [(1, j) for j in range(2, 6)])


def k33():
    return SimpleGraph(6, [(i, j) for i in range(3) for j in range(3, 6)])


K24_BAD_LISTS = [[1, 2], [3, 4], [1, 3], [1, 4], [2, 3], [2, 4]]


def test_l_coloring_k3():
    k3 = complete(3)
    assert l_coloring(k3, ListAssignment.from_lists([[1, 2], [1, 2], [1, 2]])) is None
    got = l_coloring(k3, ListAssignment.from_lists([[1, 2], [1, 2], [3]]))
    assert got is not None
    assert len(set(got.values())) == 3


def test_l_coloring_k24_classic_failure():
    assert l_coloring(k24(), ListAssignment.from_lists(K24_BAD_LISTS)) is None


def test_l_coloring_missing_list():
    with pytest.raises(MissingList):
        l_coloring(complete(3), ListAssignment.from_lists([[1], [2]]))


def test_l_coloring_respects_lists():
    g = cycle(4)
    lists = [[0], [1], [0], [2]]
    got = l_coloring(g, ListAssignment.from_lists(lists))
    assert got == {0: 0, 1: 1, 2: 0, 3: 2}


def test_l_coloring_reports_each_vertex_its_own_color_value():
    # Colors of different kinds in different lists; 1 and True are equal.
    edgeless = SimpleGraph(3, [])
    got = l_coloring(edgeless, ListAssignment.from_lists([["a"], [1], [True]]))
    assert [got[v] for v in range(3)] == ["a", 1, True]
    assert type(got[1]) is int and got[2] is True


def test_k2_demands():
    k2 = complete(2)
    verdict = is_f_choosable(k2, DemandFunction((1, 1)))
    assert not verdict.choosable
    assert verdict.bad_assignment is not None
    assert verdict.bad_assignment.lists[0] == verdict.bad_assignment.lists[1]
    assert is_f_choosable(k2, DemandFunction((1, 2))).choosable


def test_nearly_complete_core_is_choosable():
    # 4 vertices, one missing pair, demands as in the shared-edge-path entry
    g = SimpleGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
    verdict = is_f_choosable(g, DemandFunction((3, 2, 1, 6)))
    assert verdict.choosable


def test_zero_demand_not_choosable():
    g = complete(2)
    verdict = is_f_choosable(g, DemandFunction((0, 5)))
    assert not verdict.choosable
    assert verdict.bad_assignment.lists[0] == frozenset()


def test_zero_demand_isolated_vertex_still_uncolorable():
    g = SimpleGraph(1, [])
    assert not is_f_choosable(g, DemandFunction((0,))).choosable


def test_empty_graph_choosable():
    g = SimpleGraph(0, [])
    assert is_f_choosable(g, DemandFunction(())).choosable


def test_vertex_guard():
    with pytest.raises(TooManyVertices):
        is_f_choosable(complete(7), DemandFunction((3,) * 7))
    with pytest.raises(TooManyVertices):
        chromatic_number(complete(13))


def test_demand_range_guard():
    with pytest.raises(ValueError):
        DemandFunction((13,))
    with pytest.raises(ValueError):
        DemandFunction((-1,))


def test_clique_criterion_examples():
    assert clique_f_choosable([3, 6])
    assert not clique_f_choosable([1, 1])
    assert clique_f_choosable([1, 2, 3, 6])
    with pytest.raises(ValueError):
        clique_f_choosable([])


def test_clique_criterion_against_enumeration():
    for n in range(1, 4):
        kn = complete(n)
        for f in itertools.combinations_with_replacement(range(5), n):
            assert clique_f_choosable(f) == is_f_choosable(kn, DemandFunction(f)).choosable


def test_naive_list_oracle_small():
    cases = [
        (complete(2), (1, 1)),
        (complete(2), (1, 2)),
        (complete(3), (1, 2, 2)),
        (complete(3), (1, 2, 3)),
        (cycle(3), (2, 2, 2)),
        (SimpleGraph(3, [(0, 1)]), (1, 1, 1)),
    ]
    for g, f in cases:
        assert (
            is_f_choosable(g, DemandFunction(f)).choosable
            == naive_f_choosable(g, f)
            == pattern_f_choosable(g, f)
        )


@pytest.mark.parametrize("name", ["k24", "k33", "c4", "c6"])
def test_k2_agrees_with_pattern_oracle(name):
    g = {"k24": k24(), "k33": k33(), "c4": cycle(4), "c6": cycle(6)}[name]
    f = (2,) * g.vertex_count
    assert is_f_choosable(g, DemandFunction(f)).choosable == pattern_f_choosable(g, f)


def test_clique_grid_agrees_with_pattern_oracle():
    checked = 0
    for n in range(1, 5):
        kn = complete(n)
        for f in itertools.combinations_with_replacement(range(7), n):
            checked += 1
            verdict = is_f_choosable(kn, DemandFunction(f))
            assert verdict.choosable == pattern_f_choosable(kn, f), f
    assert checked == 329


def test_random_graphs_agree_with_pattern_oracle():
    rng = random.Random(20221)
    for _ in range(150):
        n = rng.randint(1, 5)
        g = SimpleGraph(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        )
        f = tuple(rng.randint(1, 3) for _ in range(n))
        verdict = is_f_choosable(g, DemandFunction(f))
        assert verdict.choosable == pattern_f_choosable(g, f), (g.edges(), f)


@pytest.mark.parametrize(
    "n,edges,f",
    [
        # Triangle plus a pendant vertex: greedy-last deletes the pendant.
        (4, [(0, 1), (0, 2), (1, 2), (2, 3)], (2, 2, 2, 2)),
        # Triangle plus a vertex joined to two corners: no vertex has more
        # colors than neighbors, so the failing triangle is reached through
        # the private-color branch.
        (4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)], (2, 2, 2, 2)),
        (3, [(0, 1), (0, 2), (1, 2)], (1, 1, 5)),
    ],
)
def test_witness_lifted_from_proper_subgraph(n, edges, f):
    g = SimpleGraph(n, edges)
    verdict = is_f_choosable(g, DemandFunction(f))
    assert not verdict.choosable
    witness = verdict.bad_assignment
    assert witness.sizes() == f
    assert l_coloring(g, witness) is None
    # The failure lives in G - v: v's lifted list shares no color.
    lists = witness.lists
    assert any(
        lists[v].isdisjoint(frozenset().union(*lists[:v], *lists[v + 1 :]))
        for v in range(n)
    )


def test_chromatic_numbers(named):
    assert chromatic_number(square(named["sharpness9"])) == 9
    assert chromatic_number(cycle(5)) == 3
    assert chromatic_number(SimpleGraph(8, named["q3"].edges())) == 2
    assert chromatic_number(SimpleGraph(0, [])) == 0


def test_k_choosability_wrappers(named):
    verdict = is_k_choosable(k24(), 2)
    assert not verdict.choosable
    assert l_coloring(k24(), verdict.bad_assignment) is None
    assert chromatic_number(k24()) == 2
    assert is_k_choosable(cycle(4), 2).choosable
    assert is_k_choosable(complete(3), 3).choosable
    with pytest.raises(ValueError):
        is_k_choosable(complete(2), 13)


def test_chromatic_at_most_list_chromatic(named):
    for g, k in [(cycle(4), 2), (complete(3), 3), (cycle(6), 2)]:
        if is_k_choosable(g, k).choosable:
            assert chromatic_number(g) <= k


@st.composite
def small_graph_and_demands(draw):
    n = draw(st.integers(2, 4))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    base = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    bumps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return SimpleGraph(n, edges), tuple(base), tuple(
        min(12, b + d) for b, d in zip(base, bumps)
    )


@settings(max_examples=40, deadline=None)
@given(small_graph_and_demands())
def test_choosability_monotone_in_demands(case):
    g, low, high = case
    if is_f_choosable(g, DemandFunction(low)).choosable:
        assert is_f_choosable(g, DemandFunction(high)).choosable


@settings(max_examples=60, deadline=None)
@given(small_graph_and_demands())
def test_greedy_last_vertex_is_removable(case):
    g, f, _ = case
    verdict = is_f_choosable(g, DemandFunction(f)).choosable
    for v in range(g.vertex_count):
        if f[v] > g.degree(v):
            others = [u for u in range(g.vertex_count) if u != v]
            sub, kept = induced_subgraph(g, others)
            sub_f = DemandFunction(tuple(f[u] for u in kept))
            assert is_f_choosable(sub, sub_f).choosable == verdict


@settings(max_examples=40, deadline=None)
@given(small_graph_and_demands())
def test_witness_is_verified(case):
    g, low, _ = case
    verdict = is_f_choosable(g, DemandFunction(low))
    if not verdict.choosable:
        assert verdict.bad_assignment.sizes() == low
        assert l_coloring(g, verdict.bad_assignment) is None
