import itertools
import random

import pytest

from oracles import pattern_f_choosable
from planecharge.catalog import (
    _REDUCTIONS,
    _STRUCTURAL,
    CATALOG_ORDER,
    REDUCIBLE_IDS,
    STRUCTURAL_IDS,
    _structural,
    catalog,
    get_configuration,
    spec_clauses,
)
from planecharge.choosability import (
    MAX_CHOOSABILITY_VERTICES,
    DemandFunction,
    is_f_choosable,
)
from planecharge.corpus import canonical_form, enumerate_class, random_class_member
from planecharge.errors import (
    BadSpecClause,
    OverlappingRoles,
    UnknownConfig,
    UnknownEdgeInY,
)
from planecharge.matcher import _compile, find_configuration
from planecharge.plane_graph import build_from_rotation
from planecharge.reducibility import (
    _reducible_result,
    _structural_result,
    labelled_matches,
    f_values,
    verify_catalog,
    verify_configuration,
    verify_reduction,
)
from planecharge.square import SimpleGraph, induced_subgraph, square

# Each reducible entry's demand per core vertex id: the "f" object that
# verify-catalog prints, which pins the instances' core numbering.
PINNED_F = {
    "no1v": {0: 8},
    "no2v3f": {0: 6},
    "no2v4f": {0: 5},
    "no22v": {0: 7, 1: 7},
    "no23v": {0: 6, 1: 3},
    "no33v": {0: 2, 1: 2},
    "no242v": {0: 6, 1: 2, 2: 6},
    "no243v": {0: 6, 1: 1, 2: 2},
    "no2v_3f": {0: 1, 3: 5},
    "no3v_33f": {0: 4},
    "no3v_44f": {0: 2},
    "no3v3f3f": {1: 2, 2: 2},
    "no3v3f_3f": {0: 3, 1: 2},
    "no3v_3f3v": {0: 1, 1: 3},
    "no3v_m3f3f": {0: 2, 1: 1},
    "no2v__m3f3f": {0: 3, 1: 2, 4: 1, 5: 6},
}


def test_catalog_shape():
    assert len(CATALOG_ORDER) == 19
    assert len(REDUCIBLE_IDS) == 16
    assert set(STRUCTURAL_IDS) == {"conn", "no333f", "no34f"}
    assert CATALOG_ORDER[0] == "conn"
    with pytest.raises(UnknownConfig):
        get_configuration("nope")


def test_each_id_in_exactly_one_table():
    for config_id in CATALOG_ORDER:
        assert (config_id in _REDUCTIONS) != (config_id in _STRUCTURAL), config_id
    assert set(CATALOG_ORDER) == _REDUCTIONS.keys() | _STRUCTURAL.keys()
    assert set(REDUCIBLE_IDS) == _REDUCTIONS.keys()
    assert set(STRUCTURAL_IDS) == _STRUCTURAL.keys()


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_expected_f_values(config_id):
    report = verify_configuration(config_id)
    assert report.f_matches_expected
    assert report.passed


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_computed_f_by_vertex_id(config_id):
    assert verify_configuration(config_id).computed_f == PINNED_F[config_id]


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_induced_square_nearly_complete(config_id):
    report = verify_configuration(config_id)
    n = report.induced_square.vertex_count
    missing = n * (n - 1) // 2 - report.induced_square.edge_count
    assert missing == (1 if config_id == "no2v__m3f3f" else 0)


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_clique_criterion_agrees_where_complete(config_id):
    """Hall's rule decides each entry; the kernel and the pattern oracle
    cross-check it on the completed core square with the entry's demands,
    which reach (7, 7) and (8), beyond the demand-6 clique grid."""
    report = verify_configuration(config_id)
    f = tuple(report.computed_f.values())
    n = len(f)
    kn = SimpleGraph(n, itertools.combinations(range(n), 2))
    assert report.choosable
    assert is_f_choosable(kn, DemandFunction(f)).choosable == report.choosable
    assert pattern_f_choosable(kn, f) == report.choosable


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_only_an_incomplete_core_square_adds_a_note(config_id):
    result = _reducible_result(get_configuration(config_id))
    assert result.passed
    if config_id == "no2v__m3f3f":
        assert result.notes == ("choosable with the missing core pair added",)
    else:
        assert result.notes == ()


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_missing_pad_around_the_core_fails(config_id):
    """Dropping the last pad, a leaf on a neighbour of the core, leaves that
    neighbour short of its spec degree."""
    config = get_configuration(config_id)
    g = config.pattern
    last = g.vertex_count - 1
    (stem,) = g.neighbors(last)
    assert stem not in config.core()
    assert config.core() & g.neighbors(stem)
    rotation = [[u for u in nbrs if u != last] for nbrs in g.rotation[:last]]
    broken = config._replace(pattern=build_from_rotation(rotation))
    result = _reducible_result(broken)
    assert not result.passed
    assert "FAIL: a vertex around the core lacks its spec degree" in result.notes


def test_structural_entries_have_no_instance():
    for config_id in STRUCTURAL_IDS:
        with pytest.raises(ValueError):
            verify_configuration(config_id)


def test_verify_catalog_all_pass():
    results = verify_catalog()
    assert [r.config_id for r in results] == list(CATALOG_ORDER)
    assert all(r.passed for r in results)
    kinds = {r.config_id: r.kind for r in results}
    assert sum(1 for k in kinds.values() if k == "reducible") == 16
    assert sum(1 for k in kinds.values() if k == "structural") == 3


# The rotation literals that stated the structural patches before they were
# built from spec clauses, in case order; the spec-built patches must be the
# same graphs.
LITERAL_PATCHES = {
    "no333f": (
        [[2, 1], [0, 2], [1, 0]],  # a lone 3-face: both sides are 3-faces
        [[3, 1, 2], [0, 3, 4, 2], [0, 1, 4], [1, 0], [1, 2]],  # two fans
        [[2, 3, 1], [0, 3, 2], [1, 3, 0], [2, 1, 0]],  # K_4
    ),
    "no34f": (
        [[3, 1, 2], [2, 0], [0, 1, 3], [2, 0]],  # 3-face in a 4-face
        [[4, 1, 2], [0, 3, 2], [0, 1], [4, 1], [3, 0]],  # 3-face beside it
    ),
}


def _patched_cases(config_id):
    return [c for c in get_configuration(config_id).cases if c.patch is not None]


def _cited_results(config):
    cited = {c for case in config.cases for c in case.cites}
    return {c: _reducible_result(get_configuration(c)) for c in cited}


@pytest.mark.parametrize("config_id", sorted(LITERAL_PATCHES))
def test_spec_built_patches_are_the_literal_patches(config_id):
    cases = _patched_cases(config_id)
    assert len(cases) == len(LITERAL_PATCHES[config_id])
    for case, rotation in zip(cases, LITERAL_PATCHES[config_id]):
        literal = build_from_rotation(rotation)
        assert case.patch.vertex_count == literal.vertex_count
        assert canonical_form(
            case.patch.vertex_count, tuple(map(frozenset, case.patch.rotation))
        ) == canonical_form(literal.vertex_count, tuple(map(frozenset, rotation)))
        assert sorted(map(len, case.patch.faces)) == sorted(map(len, literal.faces))


@pytest.mark.parametrize("config_id", STRUCTURAL_IDS)
def test_patches_are_their_case_specs(config_id):
    """Each patch holds its entry's own configuration, and its case's full
    spec (entry clauses and case clauses) with every role at its id and
    every face a witness face."""
    cases = get_configuration(config_id).cases
    for case, (_, _, extra) in zip(cases, _STRUCTURAL[config_id]):
        if extra is None:
            assert case.patch is None and not case.roles and not case.witness
            continue
        assert find_configuration(case.patch, config_id)
        spec = _compile(spec_clauses(config_id, extra), None)
        want = tuple(case.roles[name] for name in spec.names)
        faces = [f for roles, f in spec.search(case.patch) if roles == want]
        assert faces and all(set(f) <= case.witness for f in faces)


def test_labelled_match_counts():
    """Cited matches count only on named roles and witness faces.  Both
    sides of the lone 3-face are witness faces (f and g), so all six of its
    no2v3f matches count; the 5-cycle cases' no2v3f matches all bind a free
    vertex."""

    def counts(config_id):
        return [
            (len(labelled_matches(c, cited)), len(find_configuration(c.patch, cited)))
            for c in _patched_cases(config_id)
            for cited in [c.cites[0] if c.cites else "no2v3f"]
        ]

    assert counts("no333f") == [(6, 6), (0, 2), (6, 12)]
    assert counts("no34f") == [(1, 2), (0, 1)]


def test_dropping_the_second_shared_edge_fails_no34f(monkeypatch):
    """Without its second shared edge the first no34f case's patch is the
    3-face beside a 4-face: its only no2v3f match is the free apex, which
    is no labelled match, so the case fails though a match exists."""
    (description, cites, _), rest = _STRUCTURAL["no34f"][0], _STRUCTURAL["no34f"][1:]
    monkeypatch.setitem(_STRUCTURAL, "no34f", ((description, cites, ""), *rest))
    config = _structural("no34f")
    assert find_configuration(config.cases[0].patch, "no2v3f")
    result = _structural_result(config, _cited_results(config))
    assert not result.passed
    assert result.notes == (
        f"FAIL: {description}",
        "ok: a single shared edge leaves a 5-cycle around the two faces",
    )


@pytest.mark.parametrize(
    "typo, clause",
    [
        # ww is declared by no role clause: the fragment used to drop it.
        ("; share f h v ww", "share f h v ww"),
        # k is used before its face clause: a bare KeyError used to follow.
        ("; role x; on x k; face k 4", "on x k"),
        # A face without its length: the search used to drop the length and
        # the fragment to raise a bare IndexError.
        ("; face k", "face k"),
        # u is declared again: the fragment used to number it twice.
        ("; role u 3", "role u 3"),
        ("; face u 3", "face u 3"),
        # Extra words used to be ignored.
        ("; face k 3 4", "face k 3 4"),
        ("; role x 3 3", "role x 3 3"),
        # A size that is no int, or out of its range, used to pass here.
        ("; role x two", "role x two"),
        ("; role x 0", "role x 0"),
        ("; role x 5", "role x 5"),
        ("; face k 2", "face k 2"),
    ],
)
def test_spec_typos_name_the_entry_and_clause(monkeypatch, typo, clause):
    description, cites, extra = _STRUCTURAL["no333f"][1]
    cases = list(_STRUCTURAL["no333f"])
    cases[1] = (description, cites, extra + typo)
    monkeypatch.setitem(_STRUCTURAL, "no333f", tuple(cases))
    with pytest.raises(BadSpecClause) as info:
        _structural("no333f")
    assert (info.value.config_id, info.value.clause) == ("no333f", clause)
    assert str(info.value) == f"spec of 'no333f': bad clause {clause!r}"
    # The matcher compiles its specs from these same checked clauses.
    with pytest.raises(BadSpecClause):
        spec_clauses("no333f", extra + typo)


def test_citing_an_entry_the_patch_lacks_fails():
    config = get_configuration("no333f")
    k4_case = config.cases[2]._replace(cites=("no22v",))
    assert not find_configuration(k4_case.patch, "no22v")
    broken = config._replace(cases=(*config.cases[:2], k4_case))
    result = _structural_result(broken, _cited_results(broken))
    assert _cited_results(broken)["no22v"].passed and not result.passed
    assert [n.split(":")[0] for n in result.notes] == ["ok", "ok", "FAIL"]


def test_perturbed_expectation_fails():
    config = get_configuration("no2v4f")
    wrong = {v: f + 1 for v, f in config.expected_f_by_vertex().items()}
    report = verify_reduction(
        config.pattern,
        config.removed,
        config.recolored,
        config.dropped_edges,
        expected_f=wrong,
    )
    assert report.f_matches_expected is False
    assert not report.passed


def test_condition1_fails_without_removed_edges():
    config = get_configuration("no1v")
    report = verify_reduction(
        config.pattern, config.removed, config.recolored, y=[]
    )
    assert not report.condition1_ok


def test_condition2_fails_on_broken_path():
    # u - x - w with x removed: u,w lose their square edge but sit outside
    # the removed/recolored core
    g = SimpleGraph(3, [(0, 1), (1, 2)])
    report = verify_reduction(
        g, x={1}, r=set(), y=[frozenset((0, 1)), frozenset((1, 2))]
    )
    assert report.condition1_ok
    assert not report.condition2_ok


def test_core_beyond_the_kernel_cap_is_decided():
    """A core larger than the kernel's vertex cap: the star K_{1,7} with its
    centre and six leaves removed.  Every core vertex sees only the last
    leaf outside the core, so each demand is 11."""
    star = SimpleGraph(8, [(0, j) for j in range(1, 8)])
    core = range(7)
    assert len(core) > MAX_CHOOSABILITY_VERTICES
    report = verify_reduction(
        star, x=core, r=(), y=[frozenset((0, j)) for j in range(1, 8)]
    )
    assert report.computed_f == {v: 11 for v in core}
    assert report.choosable and report.passed


def test_starved_core_is_not_choosable():
    # The centre of K_{1,12} sees twelve outsiders, so its demand is 0.
    star = SimpleGraph(13, [(0, j) for j in range(1, 13)])
    report = verify_reduction(star, x=(), r={0}, y=[])
    assert report.computed_f == {0: 0}
    assert not report.choosable and not report.passed


def test_empty_core_is_vacuously_choosable():
    # Dropping one edge of a triangle loses no square edge.
    triangle = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    report = verify_reduction(triangle, x=(), r=(), y=[frozenset((0, 1))])
    assert report.computed_f == {}
    assert report.choosable and report.passed


def test_smaller_ok_requires_removal():
    g = SimpleGraph(2, [(0, 1)])
    report = verify_reduction(g, x=set(), r={0}, y=[])
    assert not report.smaller_ok


def test_role_validation():
    g = SimpleGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(OverlappingRoles):
        f_values(g, {0}, {0})
    with pytest.raises(UnknownEdgeInY):
        verify_reduction(g, set(), {0}, y=[frozenset((0, 2))])
    with pytest.raises(UnknownEdgeInY, match=r"\(1, 1\)"):
        verify_reduction(g, set(), {0}, y=[(1, 1)])
    with pytest.raises(UnknownEdgeInY, match=r"\(0, 1, 2\)"):
        verify_reduction(g, set(), {0}, y=[(0, 1, 2)])
    with pytest.raises(UnknownEdgeInY, match="entry 5 in Y") as err:
        verify_reduction(g, set(), {0}, y=[5])
    assert err.value.entry == 5


def test_f_values_match_direct_count():
    config = get_configuration("no23v")
    fv = f_values(config.pattern, config.removed, config.recolored)
    assert fv == verify_configuration(config).computed_f


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_f_values_against_bfs_distances(config_id):
    """Independent oracle for the demand formula: recount the outside
    vertices within distance two using plain breadth-first distances."""
    config = get_configuration(config_id)
    g = config.pattern
    core = config.core()
    adj = [g.neighbors(v) for v in range(g.vertex_count)]
    got = f_values(g, config.removed, config.recolored)
    for v in core:
        outsiders = sum(
            1
            for u in range(g.vertex_count)
            if u != v
            and u not in core
            and rand_distance(adj, v, u) is not None
            and rand_distance(adj, v, u) <= 2
        )
        assert got[v] == 12 - outsiders


def rand_distance(adj, a, b):
    seen = {a: 0}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen[v] = seen[u] + 1
                    nxt.append(v)
        frontier = nxt
    return seen.get(b)


def _distances_from_core(g, core):
    adj = [g.neighbors(v) for v in range(g.vertex_count)]
    return {
        v: min(rand_distance(adj, v, c) for c in core)
        for v in range(g.vertex_count)
    }


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_padding_extension_changes_nothing(config_id):
    """New vertices at distance 3 or more never move any demand value."""
    rng = random.Random(CATALOG_ORDER.index(config_id))
    config = get_configuration(config_id)
    g = config.pattern
    core = config.core()
    base = f_values(g, config.removed, config.recolored)
    dist = _distances_from_core(g, core)
    anchors = [v for v, d in dist.items() if d >= 2]
    for _ in range(5):
        extended_edges = g.edges()
        n = g.vertex_count
        for _ in range(rng.randrange(1, 4)):
            extended_edges = extended_edges + [(rng.choice(anchors), n)]
            n += 1
        extended = SimpleGraph(n, extended_edges)
        assert f_values(extended, config.removed, config.recolored) == base


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_overlap_identification_never_lowers_f(config_id):
    """Merging two outside vertices (keeping degrees legal) only raises f."""
    rng = random.Random(CATALOG_ORDER.index(config_id))
    config = get_configuration(config_id)
    g = config.pattern
    core = config.core()
    base = f_values(g, config.removed, config.recolored)
    outside = sorted(set(range(g.vertex_count)) - core)
    legal = [
        (u, w)
        for u in outside
        for w in outside
        if u < w
        and not g.has_edge(u, w)
        and len(g.neighbors(u) | g.neighbors(w)) <= 4
    ]
    rng.shuffle(legal)
    for u, w in legal[:8]:
        relabel = {
            v: (u if v == w else v) for v in range(g.vertex_count)
        }
        merged_edges = {
            (min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
            for a, b in g.edges()
        }
        # compress ids to 0..n-2
        kept = sorted(set(relabel.values()))
        index = {v: i for i, v in enumerate(kept)}
        merged = SimpleGraph(
            len(kept), [(index[a], index[b]) for a, b in merged_edges]
        )
        new_x = {index[v] for v in config.removed}
        new_r = {index[v] for v in config.recolored}
        merged_f = f_values(merged, new_x, new_r)
        for v in core:
            assert merged_f[index[v]] >= base[v], (u, w, v)


def test_catalog_entry_fields():
    for config in catalog():
        if config.kind == "reducible":
            assert config.removed | config.recolored
            assert config.removed or config.dropped_edges
            assert not (config.removed & config.recolored)
            for v in config.removed:
                for u in config.pattern.neighbors(v):
                    assert frozenset((v, u)) in config.dropped_edges
            assert all(0 <= f <= 12 for f in config.expected_f.values())
        else:
            assert config.pattern is None
            assert config.cases


def test_no_host_has_lower_demands_than_its_instance():
    """Oracle for the every-host argument: in every match of a reducible
    entry, each core role's demand in the host is at least its demand in
    the generic instance."""
    hosts = list(enumerate_class(8))
    hosts += [random_class_member(i, 2 + (i * 17) % 39) for i in range(1000)]
    matched = set()
    for config_id in REDUCIBLE_IDS:
        config = get_configuration(config_id)
        name_of = {v: name for name, v in config.roles.items()}
        x_names = [name_of[v] for v in config.removed]
        r_names = [name_of[v] for v in config.recolored]
        base = f_values(config.pattern, config.removed, config.recolored)
        for host in hosts:
            for match in find_configuration(host, config_id):
                roles = dict(match.roles)
                got = f_values(
                    host, [roles[n] for n in x_names], [roles[n] for n in r_names]
                )
                for v, f in base.items():
                    assert got[roles[name_of[v]]] >= f, (config_id, match)
                matched.add(config_id)
    assert matched == set(REDUCIBLE_IDS)
