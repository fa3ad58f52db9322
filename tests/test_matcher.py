import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planecharge
from oracles import brute_force_matches, rescanned_cells, rotation_from_layout
from planecharge import matcher
from planecharge.catalog import CATALOG_ORDER, REDUCIBLE_IDS, get_configuration
from planecharge.corpus import named_examples, random_class_member
from planecharge.errors import UnknownConfig
from planecharge.matcher import (
    _SPECS,
    MatchEmbedding,
    find_any_reducible,
    find_configuration,
    validate_embedding,
)
from planecharge.plane_graph import build_from_rotation


def path_graph(n):
    rot = [[1]] + [[i - 1, i + 1] for i in range(1, n - 1)] + [[n - 2]]
    return build_from_rotation(rot)


def test_unknown_config():
    with pytest.raises(UnknownConfig):
        find_configuration(path_graph(3), "bogus")


def test_path_endpoints(named):
    assert len(find_configuration(path_graph(4), "no1v")) == 2


def test_cube_adjacent_3vertices(named):
    assert len(find_configuration(named["q3"], "no33v")) == 12
    assert find_any_reducible(named["q3"]).config_id == "no33v"


def test_c6_adjacent_2vertices(named):
    assert len(find_configuration(named["c6"], "no22v")) == 6
    assert find_any_reducible(named["c6"]).config_id == "no22v"


def test_disconnected_reports_conn():
    two_triangles = build_from_rotation(
        [[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]]
    )
    assert find_any_reducible(two_triangles).config_id == "conn"


def test_grid_matches(named):
    grid = named["grid3x3"]
    assert len(find_configuration(grid, "no23v")) == 8
    assert len(find_configuration(grid, "no2v4f")) == 4
    # corner 2-vertices sit on 4-faces, which the scan order hits first
    assert find_any_reducible(grid).config_id == "no2v4f"


def test_sharpness9_vertex_share(named):
    matches = find_configuration(named["sharpness9"], "no3v3f_3f")
    assert matches
    assert find_any_reducible(named["sharpness9"]) is not None


def test_k24_distance_two(named):
    assert find_configuration(named["k24"], "no242v")
    assert find_any_reducible(named["k24"]) is not None


def test_k4_structural_faces():
    k4 = build_from_rotation(rotation_from_layout(
        [(0, 0), (2, 0), (1, 2), (1, 0.7)],
        [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)],
    ))
    assert find_configuration(k4, "no333f")
    assert find_configuration(k4, "no3v_33f")


def test_plane_k3_lists_one_partner_per_shared_edge():
    """Both faces of plane K3 are 3-faces that share all three edges, so
    each is a no333f match with the other as its partner three times."""
    k3 = build_from_rotation([[1, 2], [2, 0], [0, 1]])
    assert [m.faces for m in find_configuration(k3, "no333f")] == [(0, 1, 1, 1), (1, 0, 0, 0)]


def test_triangle_in_quad_no34f():
    g = build_from_rotation(rotation_from_layout(
        [(0, 0), (1, 0.6), (2, 0), (1, 2)],
        [(0, 1), (1, 2), (0, 2), (0, 3), (3, 2)],
    ))
    assert find_configuration(g, "no34f")
    assert find_configuration(g, "no2v3f")


def test_exact_distance_two_ownership():
    # adjacent 2-vertices must not double as distance-two matches
    c4 = build_from_rotation([[3, 1], [0, 2], [1, 3], [2, 0]])
    assert find_configuration(c4, "no22v")
    assert not find_configuration(c4, "no242v")


def test_matches_revalidate(named):
    for g in named.values():
        for cid in CATALOG_ORDER:
            for emb in find_configuration(g, cid):
                assert validate_embedding(g, emb)


def test_match_keys_are_canonical(named):
    for g in named.values():
        for cid in CATALOG_ORDER:
            matches = find_configuration(g, cid)
            assert matches == sorted(matches)
            assert len(set(matches)) == len(matches)


@pytest.mark.parametrize("config_id", CATALOG_ORDER)
def test_oracle_equivalence_named(config_id, named):
    for g in named.values():
        assert set(find_configuration(g, config_id)) == brute_force_matches(
            g, config_id
        ), (config_id, [n for n, h in named.items() if h is g])


def test_oracle_equivalence_on_lattice_members():
    """The sweep's hosts are seeded lattice patches; small ones of both
    lattices match as the brute-force oracle does."""
    kinds = set()
    for seed in range(12):
        n = 12 + seed % 5
        kinds.add(rescanned_cells(seed, n)[0])
        g = random_class_member(seed, n)
        for config_id in CATALOG_ORDER:
            assert set(find_configuration(g, config_id)) == brute_force_matches(
                g, config_id
            ), (seed, n, config_id)
    assert kinds == {"square", "hex"}


@pytest.mark.parametrize("config_id", CATALOG_ORDER)
def test_oracle_equivalence_small_members(config_id, class_members_6):
    for g in class_members_6:
        assert set(find_configuration(g, config_id)) == brute_force_matches(
            g, config_id
        )


def test_unavoidability_on_lattice_members():
    for seed in range(40):
        g = random_class_member(seed, 12)
        assert find_any_reducible(g) is not None


@pytest.mark.parametrize("config_id", [c for c in CATALOG_ORDER if c not in ("conn", "no333f", "no34f")])
def test_each_pattern_matches_itself(config_id):
    """The generic instance of a configuration contains that configuration,
    with the detected roles landing exactly on the catalog's core."""
    from planecharge.catalog import get_configuration

    config = get_configuration(config_id)
    expected = dict(sorted(config.roles.items()))
    for emb in find_configuration(config.pattern, config_id):
        if frozenset(v for _, v in emb.roles) == frozenset(expected.values()):
            return
    pytest.fail(f"{config_id} does not detect its own generic instance")


def test_single_vertex_has_no_configuration():
    # the one connected class member without any catalog structure
    k1 = build_from_rotation([[]])
    assert find_any_reducible(k1) is None


def test_unavoidability_to_eight_vertices():
    """Beyond the acceptance bar: every connected class member with up to
    eight vertices still contains a catalog configuration."""
    from planecharge.corpus import enumerate_class

    count = 0
    for g in enumerate_class(8):
        count += 1
        assert find_any_reducible(g) is not None
    assert count == 486


@pytest.mark.parametrize("rim", [5, 6])
def test_oracle_equivalence_on_high_degree_hosts(rim):
    """Wheel hubs exceed degree 4; detectors must still agree everywhere."""
    import math

    points = [(0.0, 0.0)] + [
        (math.cos(2 * math.pi * k / rim), math.sin(2 * math.pi * k / rim))
        for k in range(rim)
    ]
    edges = [(0, k + 1) for k in range(rim)] + [
        (k + 1, (k + 1) % rim + 1) for k in range(rim)
    ]
    wheel = build_from_rotation(rotation_from_layout(points, edges))
    for config_id in CATALOG_ORDER:
        assert set(find_configuration(wheel, config_id)) == brute_force_matches(
            wheel, config_id
        ), config_id


def _mutants(g, emb):
    """The match with its first two faces swapped, with two of its roles
    swapped, and with one role moved to a neighbour."""
    faces, roles = emb.faces, dict(emb.roles)
    if len(faces) >= 2:
        yield MatchEmbedding(emb.config_id, emb.roles, (faces[1], faces[0]) + faces[2:])
    names = sorted(roles)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            swapped = dict(roles, **{a: roles[b], b: roles[a]})
            yield MatchEmbedding(emb.config_id, tuple(sorted(swapped.items())), faces)
        for w in sorted(g.neighbors(roles[a])):
            moved = dict(roles, **{a: w})
            yield MatchEmbedding(emb.config_id, tuple(sorted(moved.items())), faces)


@pytest.mark.parametrize("config_id", CATALOG_ORDER)
def test_validator_agrees_with_matcher_on_mutants(config_id, named, class_members_6):
    """validate_embedding accepts a mutated match exactly when the matcher
    reports it."""
    for g in list(named.values()) + class_members_6:
        matches = set(find_configuration(g, config_id))
        for emb in matches:
            for mutant in _mutants(g, emb):
                assert validate_embedding(g, mutant) == (mutant in matches), mutant


@pytest.mark.parametrize("config_id", REDUCIBLE_IDS)
def test_spec_roles_are_catalog_roles(config_id):
    assert _SPECS[config_id].names == tuple(sorted(get_configuration(config_id).roles))


def test_validator_takes_only_int_ids():
    """A role or face id that is not exactly an int never validates, though
    True equals 1 and 2.0 equals 2."""
    k2 = build_from_rotation([[1], [0]])
    assert validate_embedding(k2, MatchEmbedding("no1v", (("leaf", 1),), ()))
    for bad in (True, False, 1.0, 2.0, "2", None):
        emb = MatchEmbedding("no1v", (("leaf", bad),), ())
        assert not validate_embedding(k2, emb), bad
    c4 = build_from_rotation([[3, 1], [0, 2], [1, 3], [2, 0]])
    k4 = build_from_rotation(rotation_from_layout(
        [(0, 0), (2, 0), (1, 2), (1, 0.7)],
        [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)],
    ))
    # no333f's trailing faces are ids too
    for g, config_id in ((c4, "no2v4f"), (k4, "no333f")):
        for emb in find_configuration(g, config_id):
            assert validate_embedding(g, emb)
            for k, f in enumerate(emb.faces):
                for bad in (float(f), str(f), None, bool(f)):
                    faces = emb.faces[:k] + (bad,) + emb.faces[k + 1 :]
                    assert not validate_embedding(g, emb._replace(faces=faces)), faces


def test_validator_refuses_extra_faces():
    """A report validates only with the spec's faces and then exactly the
    faces its predicate gives: no2v4f's face repeated or left out, a
    no333f partner face dropped, repeated or appended, a conn report that
    lists a face, and a conn report on a connected host are all refused."""
    c4 = build_from_rotation([[3, 1], [0, 2], [1, 3], [2, 0]])
    k4 = build_from_rotation([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    two_k2 = build_from_rotation([[1], [0], [3], [2]])
    emb = find_configuration(c4, "no2v4f")[0]
    partners = find_configuration(k4, "no333f")
    conn = find_configuration(two_k2, "conn")
    assert len(partners) == 4 and conn == [MatchEmbedding("conn", (), ())]
    refused = [
        (c4, emb._replace(faces=emb.faces * 2)),
        (c4, emb._replace(faces=())),
        (two_k2, conn[0]._replace(faces=(0,))),
        (c4, conn[0]),
    ]
    for match in partners:
        face, *rest = match.faces
        refused += [
            (k4, match._replace(faces=(face, *rest[:k], *rest[k + 1 :])))
            for k in range(len(rest))
        ]
        refused += [
            (k4, match._replace(faces=(face, *rest, rest[-1]))),
            (k4, match._replace(faces=(face, rest[0], *rest))),
            (k4, match._replace(faces=(face, *rest, 0))),
            (k4, match._replace(faces=(face,))),
        ]
    for g, report in refused:
        assert not validate_embedding(g, report), report


def test_matcher_names_no_configuration():
    """Every per-entry fact is stated in the catalog: no string literal in
    the matcher's source is a catalog id."""
    tree = ast.parse(Path(matcher.__file__).read_text())
    literals = {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert not literals & set(CATALOG_ORDER)


_WRONG_SEARCH = """
from planecharge import matcher
from planecharge.plane_graph import build_from_rotation

spec = matcher._SPECS["no1v"]
matcher._SPECS["no1v"] = spec._replace(search=lambda g: [((0,), ())])
try:
    matcher.find_configuration(build_from_rotation([[1, 2], [0], [0]]), "no1v")
except AssertionError as exc:
    print(__debug__, exc)
"""


def test_unsound_search_is_caught_under_optimize():
    """Each binding is re-checked by a test that ``python -O`` keeps: a
    search that reports the degree-2 middle of a path as a leaf raises."""
    env = dict(os.environ, PYTHONPATH=str(Path(planecharge.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_SEARCH],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == "False unsound no1v match ((0,), ())\n"
