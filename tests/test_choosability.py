import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_chromatic_number,
    dfs_list_coloring,
    naive_f_choosable,
    pattern_f_choosable,
)
import planecharge
from planecharge import choosability
from planecharge.choosability import (
    MAX_DEMAND,
    DemandFunction,
    ListAssignment,
    chromatic_number,
    clique_f_choosable,
    is_f_choosable,
    is_k_choosable,
    l_coloring,
)
from planecharge.cli import run
from planecharge.corpus import named_examples
from planecharge.errors import (
    DemandOutOfRange,
    GraphError,
    MissingList,
    SurplusDemands,
    TooManyVertices,
)
from planecharge.plane_graph import dump_graph_file
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


def test_l_coloring_surplus_lists():
    with pytest.raises(SurplusDemands, match="3 demands given for a graph of 2 vertices"):
        l_coloring(SimpleGraph(2, [(0, 1)]), ListAssignment.from_lists([[1], [2], [3]]))


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
    # A bool is not a demand, though Python counts True as 1.
    for bad in (True, False):
        with pytest.raises(ValueError):
            DemandFunction((bad, 2))
        with pytest.raises(ValueError):
            is_k_choosable(complete(2), bad)
        with pytest.raises(ValueError):
            is_k_choosable(SimpleGraph(0, []), bad)
    with pytest.raises(GraphError, match="^list size k=13 outside 0..12$"):
        is_k_choosable(complete(2), 13)


def test_demand_count_guard():
    g = SimpleGraph(3, [(0, 1)])
    with pytest.raises(SurplusDemands, match="^4 demands given for a graph of 3 vertices$"):
        is_f_choosable(g, DemandFunction((1, 1, 1, 1)))
    with pytest.raises(MissingList):
        is_f_choosable(g, DemandFunction((1, 1)))


def test_clique_criterion_examples():
    assert clique_f_choosable([3, 6])
    assert not clique_f_choosable([1, 1])
    assert clique_f_choosable([1, 2, 3, 6])
    assert clique_f_choosable([12, 0]) is False and clique_f_choosable((0,)) is False
    # It rejects what DemandFunction rejects, on every construction path.
    for bad in ([True, 2], [1.5, 2], [13], [-1], [2, "3"]):
        for build in (
            DemandFunction,
            lambda values: DemandFunction(values=values),
            lambda values: DemandFunction._make([values]),
            lambda values: DemandFunction((1,))._replace(values=values),
        ):
            with pytest.raises(DemandOutOfRange):
                build(tuple(bad))
        with pytest.raises(DemandOutOfRange):
            clique_f_choosable(bad)
    # Hall's condition holds vacuously on K_0, as is_f_choosable finds.
    assert clique_f_choosable([]) is True
    assert is_f_choosable(complete(0), DemandFunction(())).choosable


def test_clique_criterion_against_enumeration():
    for n in range(1, 4):
        kn = complete(n)
        for f in itertools.combinations_with_replacement(range(5), n):
            assert clique_f_choosable(f) == is_f_choosable(kn, DemandFunction(f)).choosable


def test_hall_witnesses_on_the_clique_grid():
    """Every multiset of the clique grid that Hall's rule rejects has a
    witness.  At the first i with f_(i) < i, the i lowest-demand vertices
    get the lists 0..f(v)-1, fewer than i colors among i pairwise adjacent
    vertices, and every other vertex gets fresh colors."""
    rejected = 0
    for n in range(1, 5):
        kn = complete(n)
        # Each multiset comes sorted ascending, so vertex v has f_(v+1).
        for f in itertools.combinations_with_replacement(range(7), n):
            if clique_f_choosable(f):
                continue
            rejected += 1
            i = next(i for i, d in enumerate(f, 1) if d < i)
            fresh = itertools.count(MAX_DEMAND)
            lists = [
                list(range(d)) if v < i else [next(fresh) for _ in range(d)]
                for v, d in enumerate(f)
            ]
            assert tuple(map(len, lists)) == f
            assert l_coloring(kn, ListAssignment.from_lists(lists)) is None
            assert dfs_list_coloring(kn, lists) is None
    assert rejected == 329 - 164


def test_oracle_coloring_agrees_with_l_coloring():
    # Both colorings found, or neither, on seeded graphs and lists.
    rng = random.Random(2113)
    found = 0
    for _ in range(400):
        n = rng.randint(3, 7)
        g = SimpleGraph(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        )
        lists = [rng.sample(range(3), rng.randint(1, 3)) for _ in range(n)]
        theirs = dfs_list_coloring(g, lists)
        assert (l_coloring(g, ListAssignment.from_lists(lists)) is None) == (
            theirs is None
        ), (g.edges(), lists)
        if theirs is not None:
            found += 1
            assert all(theirs[v] in lists[v] for v in range(n))
            assert all(theirs[u] != theirs[v] for u, v in g.edges())
    assert 100 < found < 300  # both answers are common


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


def test_free_atom_lemma_on_random_lists():
    # The free-atom reduction, checked with l_coloring alone: if the
    # holders of some color include a vertex u with no neighbor among
    # them, a coloring of G - u extends to G.
    rng = random.Random(1979)
    applied = hard = 0
    for _ in range(300):
        n = rng.randint(2, 6)
        g = SimpleGraph(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        )
        lists = [rng.sample(range(4), rng.randint(1, 3)) for _ in range(n)]
        for c in range(4):
            holders = {v for v in range(n) if c in lists[v]}
            for u in holders:
                if holders & g.neighbors(u):
                    continue
                sub, kept = induced_subgraph(g, [v for v in range(n) if v != u])
                sub_lists = ListAssignment.from_lists([lists[v] for v in kept])
                if l_coloring(sub, sub_lists) is not None:
                    applied += 1
                    # Cases where greedy-last would not color u.
                    hard += len(lists[u]) <= g.degree(u)
                    assert l_coloring(g, ListAssignment.from_lists(lists)) is not None
    assert applied > 300 and hard > 100


SPARSE_SIX = {
    "p6": SimpleGraph(6, [(i, i + 1) for i in range(5)]),
    "star": SimpleGraph(6, [(0, j) for j in range(1, 6)]),
    "c6": cycle(6),
    "k24": k24(),
    "k33": k33(),
}


@pytest.mark.parametrize(
    "name,f",
    [
        ("p6", (1, 2, 2, 2, 1, 3)),
        ("p6", (1, 3, 1, 3, 1, 2)),
        ("star", (2, 1, 1, 2, 2, 2)),
        ("c6", (2, 2, 1, 2, 2, 2)),
        ("c6", (2, 1, 2, 2, 2, 2)),
        ("k24", (3, 2, 1, 2, 2, 2)),
        ("k24", (3, 3, 1, 1, 2, 2)),
        ("k33", (3, 2, 2, 1, 3, 3)),
        ("p6", (1, 2, 2, 2, 3, 1)),
    ],
)
def test_sparse_mixed_demands_agree_with_pattern_oracle(name, f):
    # Bipartite and acyclic graphs, where most atoms are free.  A positive
    # answer makes the oracle walk every pattern (about 0.15 s for the last
    # case), so all cases but two are negative; the kernel reaches most of
    # them after many free patterns, and passes the positive ones after
    # patterns that a stage's last coloring fits.
    g = SPARSE_SIX[name]
    assert is_f_choosable(g, DemandFunction(f)).choosable == pattern_f_choosable(g, f)


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


# SHA-256 of the choosable reports and kernel verdicts below, as the kernel
# gave them before the free-atom reduction: answers, pattern counts and
# witnesses must not move when the kernel gets faster.
CHOOSABLE_PIN = "8341c369b33ce4ef086a129b5e8ad05a2b65534467da783d7e2cd9eddfb2f8f8"


def test_choosable_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    reports = []
    for ng in named_examples():
        if ng.name in ("k24", "c6"):
            dump_graph_file(ng.graph, f"{ng.name}.graph")
            reports.append(run(["choosable", f"{ng.name}.graph", "-k", "2"]).to_json())
    rng = random.Random(15)
    cases = [(k33(), (2,) * 6), (cycle(4), (2,) * 4)]
    for _ in range(30):
        n = rng.randint(3, 6)
        g = SimpleGraph(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
        )
        # Demands of at least min(2, degree) keep most cases past greedy-last.
        cases.append((g, tuple(rng.randint(max(1, min(2, g.degree(v))), 3) for v in range(n))))
    verdicts = []
    for g, f in cases:
        verdict = is_f_choosable(g, DemandFunction(f))
        witness = verdict.bad_assignment
        verdicts.append(
            [
                verdict.choosable,
                verdict.patterns_checked,
                None if witness is None else [sorted(s) for s in witness.lists],
            ]
        )
    text = json.dumps([reports, verdicts], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CHOOSABLE_PIN


def prism():
    triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    return SimpleGraph(6, triangles + [(i, i + 3) for i in range(3)])


# SHA-256 of the verdicts below as the kernel gave them before it reused
# the stages of isomorphic sub-masks: on these symmetric graphs most
# sub-masks have twins, and no answer, count or witness may move.
SYMMETRIC_PIN = "c39338e4c6fa0833c7a61896140130b11bfe46638b0e6cab52b7c85b640053d5"


def test_symmetric_sparse_verdicts_pinned():
    graphs = [
        SimpleGraph(5, [(i, j) for i in range(2) for j in range(2, 5)]),
        k24(),
        k33(),
        cycle(4),
        cycle(6),
        prism(),
    ]
    rng = random.Random(18)

    def mixed(n):
        # One demand of 1 and the rest 2 or 3: all-random demands 1-3 put
        # two adjacent 1s in most cases, which fail at once.
        f = [rng.randint(2, 3) for _ in range(n)]
        f[rng.randrange(n)] = 1
        return tuple(f)

    verdicts = []
    for g in graphs:
        n = g.vertex_count
        for f in [(2,) * n] + [mixed(n) for _ in range(6)]:
            verdict = is_f_choosable(g, DemandFunction(f))
            witness = verdict.bad_assignment
            verdicts.append(
                [
                    f,
                    verdict.choosable,
                    verdict.patterns_checked,
                    None if witness is None else [sorted(s) for s in witness.lists],
                ]
            )
    text = json.dumps(verdicts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SYMMETRIC_PIN


def test_twin_stages_skip_the_coloring_search(monkeypatch):
    # K_{3,3} at k = 2 makes 576 _color_bits calls when every stage is
    # enumerated and every pattern searched, 205 when all but the first of
    # its nine 4-cycles and of its six K_{2,3}s are settled by twins, and
    # fewer once a pattern that the stage's last coloring fits is not
    # searched.
    calls = []
    search = choosability._color_bits
    monkeypatch.setattr(choosability, "_color_bits", lambda *a: calls.append(1) or search(*a))
    verdict = is_f_choosable(k33(), DemandFunction((2,) * 6))
    assert not verdict.choosable and verdict.patterns_checked == 1486
    assert len(calls) < 205


def test_empty_mask_counts_its_pattern_without_a_search(monkeypatch):
    # G[∅] has one pattern, the empty one: C_4 at k = 2 counts it beside its
    # 16 singleton-free patterns, and no coloring search ever runs on it.
    masks = []
    search = choosability._color_bits
    monkeypatch.setattr(
        choosability,
        "_color_bits",
        lambda adjacency, lists, vertices: masks.append(vertices) or search(adjacency, lists, vertices),
    )
    verdict = is_f_choosable(cycle(4), DemandFunction((2,) * 4))
    assert verdict.choosable and verdict.patterns_checked == 17
    assert is_f_choosable(SimpleGraph(0, []), DemandFunction(())).patterns_checked == 1
    assert not is_f_choosable(k33(), DemandFunction((2,) * 6)).choosable
    assert masks and 0 not in masks


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
    assert dfs_list_coloring(g, witness.lists) is None
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


def test_chromatic_number_equals_brute_force(class_members_6):
    """Seeded random graphs on 0-7 vertices, the class members up to 6
    vertices and their squares."""
    rng = random.Random(24)
    graphs = [
        SimpleGraph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        for n in range(8)
        for p in (0.2, 0.5, 0.8, 1.0)
        for _ in range(3)
    ]
    graphs += class_members_6
    graphs += map(square, class_members_6)
    for g in graphs:
        assert chromatic_number(g) == brute_chromatic_number(g), g.edges()


def test_k_choosability_wrappers(named):
    verdict = is_k_choosable(k24(), 2)
    assert not verdict.choosable
    assert l_coloring(k24(), verdict.bad_assignment) is None
    assert dfs_list_coloring(k24(), verdict.bad_assignment.lists) is None
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
        assert dfs_list_coloring(g, verdict.bad_assignment.lists) is None


_FALSE_WITNESSES = """
from planecharge.choosability import DemandFunction, ListAssignment, _failing_verdict
from planecharge.square import SimpleGraph

k2 = SimpleGraph(2, [(0, 1)])
for demand, lists in (((1, 1), [[0], [1]]), ((2, 1), [[0], [0]])):
    try:
        _failing_verdict(k2, DemandFunction(demand), ListAssignment.from_lists(lists), 0)
    except AssertionError as exc:
        print(__debug__, exc)
"""


_WRONG_COLORING = """
from planecharge import choosability
from planecharge.choosability import ListAssignment, l_coloring
from planecharge.square import SimpleGraph

# A search that gives both ends of an edge the first color.
choosability._color_bits = lambda adjacency, lists, vertices: [0] * len(lists)
try:
    l_coloring(SimpleGraph(2, [(0, 1)]), ListAssignment.from_lists([[0, 1], [0, 1]]))
except AssertionError as exc:
    print(__debug__, exc)
"""


def test_improper_coloring_is_caught_under_optimize():
    """l_coloring re-checks what its search returns by a test that
    ``python -O`` keeps: a search that colors K2's ends alike raises."""
    env = dict(os.environ, PYTHONPATH=str(Path(planecharge.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_COLORING],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == "False improper color 0 at vertex 0\n"


def test_false_witness_is_caught_under_optimize():
    """A negative verdict's witness is re-verified by tests that
    ``python -O`` keeps: lists that K2 can color, and lists of other sizes
    than the demand, both raise."""
    env = dict(os.environ, PYTHONPATH=str(Path(planecharge.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FALSE_WITNESSES],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.splitlines() == [
        "False witness lists admit a proper coloring",
        "False witness sizes (1, 1) differ from the demand",
    ]
