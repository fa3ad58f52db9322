import pytest

from oracles import brute_force_matches, rotation_from_layout
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
