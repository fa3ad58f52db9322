import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planecharge
from oracles import (
    closure_edge_level_audit,
    closure_walk_taken,
    incidence_rule_transfers,
    rotation_from_layout,
)
from planecharge import discharging
from planecharge.corpus import random_class_member
from planecharge.discharging import (
    BIG_FACE,
    HALF,
    ONE,
    QUARTER,
    SIXTH,
    THIRD,
    TOTAL_TWELFTHS,
    FaceReconciliation,
    NegativeElement,
    apply_rules,
    edge_level_audit,
    final_audit,
    initial_charges,
    reconcile_face,
    rule_transfers,
)
from planecharge.errors import Disconnected, GraphError, NotBigFace
from planecharge.matcher import find_any_reducible, find_configuration
from planecharge.plane_graph import build_from_rotation


def pol(a, r=1.0):
    return (r * math.cos(math.radians(a)), r * math.sin(math.radians(a)))


def test_initial_charges_c6(named):
    state = initial_charges(named["c6"])
    assert all(c == -24 for c in state.vertex_charge.values())
    assert all(c == 24 for c in state.face_charge.values())
    assert state.total() == TOTAL_TWELFTHS


def test_initial_charges_q3(named):
    state = initial_charges(named["q3"])
    assert all(c == -12 for c in state.vertex_charge.values())
    assert all(c == 0 for c in state.face_charge.values())
    assert state.total() == TOTAL_TWELFTHS


def test_initial_charges_sharpness9(named):
    assert initial_charges(named["sharpness9"]).total() == TOTAL_TWELFTHS


def test_initial_charges_need_connectivity():
    g = build_from_rotation([[1], [0], [3], [2]])
    with pytest.raises(Disconnected):
        initial_charges(g)


@pytest.mark.parametrize("rotation", [[], [[]]])
def test_initial_charges_need_an_edge(rotation):
    with pytest.raises(GraphError, match="at least one edge"):
        initial_charges(build_from_rotation(rotation))


def test_initial_charges_need_a_plane_rotation_system():
    # K4 with every rotation ascending traces 2 faces, not 4: a torus map.
    g = build_from_rotation([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    with pytest.raises(GraphError, match="V - E \\+ F = 0"):
        initial_charges(g)


def test_rules_on_c6(named):
    state = apply_rules(named["c6"], initial_charges(named["c6"]))
    assert all(c == 0 for c in state.vertex_charge.values())
    assert all(c == -48 for c in state.face_charge.values())
    assert state.total() == TOTAL_TWELFTHS
    assert all(t.rule == "R1" and t.amount == ONE for t in state.log)


def test_rules_on_q3_do_nothing(named):
    state = apply_rules(named["q3"], initial_charges(named["q3"]))
    assert not state.log
    assert state.total() == TOTAL_TWELFTHS


def test_rules_on_hexprism(named):
    g = named["hexprism"]
    state = apply_rules(g, initial_charges(g))
    assert all(c == -6 for c in state.vertex_charge.values())
    hexes = [i for i in range(g.face_count) if g.face_length(i) == 6]
    assert all(state.face_charge[i] == -12 for i in hexes)
    assert all(t.rule == "R2" and t.amount == HALF for t in state.log)
    assert state.total() == TOTAL_TWELFTHS


def big_faces(g):
    return [i for i in range(g.face_count) if g.face_length(i) >= BIG_FACE]


def test_audit_rejects_small_faces(named):
    q3 = named["q3"]
    with pytest.raises(NotBigFace):
        edge_level_audit(q3, 0)


def test_audit_rejects_face_indices_outside_range(named):
    for g in (named["c6"], named["hexprism"]):
        # A bool or a float is no face index, though True == 1.0 == 1.
        for face in (-1, g.face_count, True, False, 1.0):
            with pytest.raises(IndexError, match=f"^no face with index {face!r}$"):
                edge_level_audit(g, face)
            with pytest.raises(IndexError, match=f"^no face with index {face!r}$"):
                reconcile_face(g, face)


def test_audit_c6(named):
    g = named["c6"]
    audit = edge_level_audit(g, 0)
    assert audit.residual == 0
    assert all(c == -8 for c in audit.edge_final.values())
    assert audit.conserved()
    rec = reconcile_face(g, 0)
    assert rec.ok
    assert all(c == ONE for c in rec.audit_received.values())


def test_audit_all_deg4_hexagon():
    # hexagon whose boundary vertices all have two extra private neighbors
    points = [pol(60 * k) for k in range(6)]
    edges = [(k, (k + 1) % 6) for k in range(6)]
    for k in range(6):
        for j, d in enumerate((-20, 20)):
            points.append(
                (
                    points[k][0] + math.cos(math.radians(60 * k + d)),
                    points[k][1] + math.sin(math.radians(60 * k + d)),
                )
            )
            edges.append((k, 6 + 2 * k + j))
    g = build_from_rotation(rotation_from_layout(points, edges))
    face = [i for i in range(g.face_count) if g.face_length(i) == 6][0]
    audit = edge_level_audit(g, face)
    assert all(c == THIRD for c in audit.edge_final.values())
    assert not audit.sink_received
    assert audit.residual == 0


def hex_with_triangle_fans():
    # hexagon + 3-face on one boundary edge + second 3-face behind it,
    # exercising SubR1, SubR2, SubR3 and SubR5 in one audit
    points = [pol(60 * k) for k in range(6)] + [(1.6, 1.0), (2.4, 0.6)]
    edges = [(k, (k + 1) % 6) for k in range(6)] + [(0, 6), (1, 6), (0, 7), (6, 7)]
    return build_from_rotation(rotation_from_layout(points, edges))


def sampled_hosts(named, class_members_7):
    """The named examples, every class member on 7 vertices, the hexagon
    with triangle fans and 200 seeded lattice members of 8-47 vertices."""
    hosts = list(named.values()) + class_members_7 + [hex_with_triangle_fans()]
    return hosts + [random_class_member(seed, 8 + seed % 40) for seed in range(200)]


def test_audit_subrules_fire_and_reconcile():
    g = hex_with_triangle_fans()
    for face in big_faces(g):
        rec = reconcile_face(g, face)
        assert rec.ok, rec.mismatched
    hexagon = [i for i in big_faces(g) if g.face_length(i) == 6][0]
    rules_used = {t.rule for t in edge_level_audit(g, hexagon).transfers}
    assert {"SubR1", "SubR2", "SubR3", "SubR5"} <= rules_used


def test_audit_grid_outer_face(named):
    g = named["grid3x3"]
    outer = big_faces(g)[0]
    audit = edge_level_audit(g, outer)
    assert audit.length == 8
    assert audit.residual == 16
    rules_used = {t.rule for t in audit.transfers}
    assert rules_used == {"SubR4", "SubR5"}
    rec = reconcile_face(g, outer)
    assert rec.ok


def test_final_audit_q3(named):
    audit = final_audit(named["q3"])
    assert audit.reconciliation_ok
    assert len(audit.negatives) == 8
    assert all(
        n.kind == "vertex" and n.charge == -12 for n in audit.negatives
    )
    assert find_configuration(named["q3"], "no33v")


def test_final_audit_grid(named):
    audit = final_audit(named["grid3x3"])
    assert audit.reconciliation_ok
    corner_negatives = [
        n for n in audit.negatives if n.kind == "vertex" and n.charge == -12
    ]
    assert len(corner_negatives) == 4
    assert find_configuration(named["grid3x3"], "no23v")


def test_negative_edges_imply_reducible(named):
    g = named["c6"]
    audit = final_audit(g)
    assert any(n.kind == "edge" for n in audit.negatives)
    assert find_any_reducible(g) is not None


def test_every_connected_graph_has_negatives(named):
    for name, g in named.items():
        if not g.is_connected():
            continue
        audit = final_audit(g)
        assert audit.negatives, name  # total is -8, something must be negative
        assert audit.reconciliation_ok, name


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 30))
def test_lattice_conservation(seed, n):
    g = random_class_member(seed, n)
    state = apply_rules(g, initial_charges(g))
    assert state.total() == TOTAL_TWELFTHS
    for i in range(g.face_count):
        if g.face_length(i) >= BIG_FACE:
            audit = edge_level_audit(g, i)
            assert audit.conserved()
            assert audit.residual >= 0
            assert reconcile_face(g, i).ok  # lattices are triangle-free


def test_pendant_vertex_walk_degeneracy():
    """A pendant hangs inside the outer face: its edge sits on the walk
    twice, and its anchor vertex occupies two corners of the same face.
    Positional seeding and the sub-rules must stay consistent anyway."""
    points = [pol(60 * k) for k in range(6)] + [(2.0, 0.0)]
    edges = [(k, (k + 1) % 6) for k in range(6)] + [(0, 6)]
    g = build_from_rotation(rotation_from_layout(points, edges))
    assert sorted(g.face_lengths()) == [6, 8]
    outer = g.face_lengths().index(8)
    assert g.face_vertices(outer).count(0) == 2
    audit = edge_level_audit(g, outer)
    assert audit.edge_seed[(0, 6)] == 8  # both occurrences seeded
    for i in range(g.face_count):
        if g.face_length(i) >= BIG_FACE:
            assert reconcile_face(g, i).ok
    assert final_audit(g).reconciliation_ok


def test_reconciliation_boundary(class_members_7):
    """Receipts match draws on every big face unless the host carries a
    3-face flanked by two edge-sharing 3-faces, where the flank rule
    legitimately over-draws; such hosts always show the banned structure."""
    for g in class_members_7:
        mismatch = any(
            not reconcile_face(g, i).ok
            for i in range(g.face_count)
            if g.face_length(i) >= BIG_FACE
        )
        if mismatch:
            assert find_configuration(g, "no333f")


def test_reconcile_draws_match_rule_transfers(named, class_members_7):
    """Each face's rule draws, summed per sink, are exactly the global rule
    transfers out of that face, including on hosts where reconciliation
    fails."""
    failing = 0
    for g in list(named.values()) + class_members_7:
        transfers = rule_transfers(g)
        for i in range(g.face_count):
            if g.face_length(i) < BIG_FACE:
                continue
            expected = {}
            for t in transfers:
                if t.source == ("face", i):
                    expected[t.sink] = expected.get(t.sink, 0) + t.amount
            rec = reconcile_face(g, i)
            assert rec.rule_draws == expected
            failing += not rec.ok
    assert failing


def test_rule_transfers_equal_incidence_oracle(named, class_members_7):
    """The global rule transfers, in ledger order, equal R1-R4 restated with
    literal twelfths, with the R3/R4 split read off the faces' edge sets."""
    rules = set()
    for g in sampled_hosts(named, class_members_7):
        expected = incidence_rule_transfers(g)
        assert rule_transfers(g) == expected
        rules.update(t.rule for t in expected)
    assert rules == {"R1", "R2", "R3", "R4"}


def _audit_fields(audit):
    return {
        "face": audit.face,
        "length": audit.length,
        "residual": audit.residual,
        "edge_seed": audit.edge_seed,
        "edge_final": audit.edge_final,
        "sink_received": audit.sink_received,
        "transfers": audit.transfers,
    }


def test_audit_equals_closure_oracle(named, class_members_7):
    """Every field of every big face's audit, the transfers in ledger order,
    equals the one-closure-call-per-draw oracle."""
    hosts = sampled_hosts(named, class_members_7)
    rules = set()
    audits = 0
    for g in hosts:
        for i in big_faces(g):
            expected = closure_edge_level_audit(g, i)
            assert _audit_fields(edge_level_audit(g, i)) == expected
            rules.update(t.rule for t in expected["transfers"])
            audits += 1
    assert audits > 400
    assert rules == {"SubR1", "SubR2", "SubR3", "SubR4", "SubR5"}


def test_transfers_are_built_only_when_read(monkeypatch):
    """final_audit builds the global rule transfers and no sub-rule ones;
    reconcile_face builds none; edge_level_audit builds one per sub-rule
    draw.  Only edge_level_audit builds a FaceAudit, one per call.  Every
    reader walks a big face's pulls once: final_audit once per big face,
    reconcile_face and edge_level_audit once per call."""
    built = []
    audits = []
    walks = []
    real_transfer = discharging.Transfer
    real_audit = discharging.FaceAudit
    real_pulls = discharging._face_pulls

    def counting_transfer(*args):
        built.append(args[0])
        return real_transfer(*args)

    def counting_audit(*args):
        audits.append(args[0])
        return real_audit(*args)

    def counting_pulls(graph, face):
        walks.append(face)
        return real_pulls(graph, face)

    monkeypatch.setattr(discharging, "Transfer", counting_transfer)
    monkeypatch.setattr(discharging, "FaceAudit", counting_audit)
    monkeypatch.setattr(discharging, "_face_pulls", counting_pulls)
    for g in (hex_with_triangle_fans(), random_class_member(7, 60)):
        expected = len(rule_transfers(g))
        built.clear()
        walks.clear()
        final_audit(g)
        assert len(built) == expected
        assert not audits
        assert walks == big_faces(g)
        built.clear()
        for i in big_faces(g):
            walks.clear()
            reconcile_face(g, i)
            assert walks == [i]
        assert not built
        assert not audits
        walks.clear()
        audit = edge_level_audit(g, big_faces(g)[0])
        assert built and sorted(built) == sorted(t.rule for t in audit.transfers)
        assert audits == [big_faces(g)[0]]
        assert walks == [big_faces(g)[0]]
        audits.clear()


def _rebuilt_final_audit(g):
    """The edge negatives and the reconciliation flag of final_audit, taken
    face by face from edge_level_audit."""
    state = apply_rules(g, initial_charges(g))
    ok = state.total() == TOTAL_TWELFTHS
    edge_negatives = []
    for i in big_faces(g):
        audit = edge_level_audit(g, i)
        ok = (
            ok
            and audit.conserved()
            and audit.residual == ONE * (audit.length - 4) - sum(audit.edge_seed.values())
            and audit.residual >= 0
        )
        edge_negatives += [NegativeElement("edge", (i, e), c) for e, c in audit.negative_edges()]
    return edge_negatives, ok


def _rebuilt_reconciliation(g, i, transfers):
    """reconcile_face, with the receipts of edge_level_audit and the draws
    of the global rule transfers out of face i."""
    received = edge_level_audit(g, i).sink_received
    draws = {}
    for t in transfers:
        if t.source == ("face", i):
            draws[t.sink] = draws.get(t.sink, 0) + t.amount
    keys = set(received) | set(draws)
    mismatched = tuple(sorted(k for k in keys if received.get(k, 0) != draws.get(k, 0)))
    return FaceReconciliation(i, not mismatched, received, draws, mismatched)


def _bridge_cases(g):
    """Per bridge of a big face (an edge with both sides on that face, so
    on its walk twice): whether one occurrence alone takes more than 1/3,
    and the edge's final charge.  The amounts come from the oracle."""
    cases = []
    for i in big_faces(g):
        walk = g.faces[i]
        bridges = [pos for pos, h in enumerate(walk) if g.face_of[g.twin[h]] == i]
        if not bridges:
            continue
        taken = closure_walk_taken(g, i)
        final = closure_edge_level_audit(g, i)["edge_final"]
        per_edge = {}
        for pos in bridges:
            e = tuple(sorted((g.origin[walk[pos]], g.target[walk[pos]])))
            per_edge.setdefault(e, []).append(taken[pos])
        for e, amounts in per_edge.items():
            assert len(amounts) == 2
            cases.append((max(amounts) > THIRD, final[e]))
    return cases


def test_audits_equal_those_rebuilt_from_edge_level_audit(named, class_members_7):
    """final_audit and reconcile_face read the pull table without building
    a FaceAudit; what they report equals what edge_level_audit's ledgers
    give, including on the hosts where reconciliation fails.  The hosts
    hold bridges where one occurrence alone takes more than 1/3 but the
    two together leave the edge nonnegative, and bridges that end
    negative, so the edge negatives test the sum over both occurrences."""
    hosts = sampled_hosts(named, class_members_7)
    mismatched_hosts = faces = edge_negative_count = 0
    heavy_nonnegative_bridges = negative_bridges = 0
    for g in hosts:
        if not g.is_connected():
            continue
        audit = final_audit(g)
        edge_negatives, ok = _rebuilt_final_audit(g)
        assert [n for n in audit.negatives if n.kind == "edge"] == edge_negatives
        assert audit.reconciliation_ok == ok
        edge_negative_count += len(edge_negatives)
        for heavy, charge in _bridge_cases(g):
            heavy_nonnegative_bridges += heavy and charge >= 0
            negative_bridges += charge < 0
        transfers = rule_transfers(g)
        recs = [reconcile_face(g, i) for i in big_faces(g)]
        assert recs == [_rebuilt_reconciliation(g, i, transfers) for i in big_faces(g)]
        mismatched_hosts += any(not rec.ok for rec in recs)
        faces += len(recs)
    assert mismatched_hosts
    assert faces > 400
    assert edge_negative_count > 1000
    assert heavy_nonnegative_bridges > 100  # 287 on these hosts
    assert negative_bridges > 1000  # 1,602 on these hosts


def test_one_pull_row_reaches_every_reader(monkeypatch):
    """SubR5's 1/6 rows raised to 1/4, with the pull table rebuilt by the
    module's own builder, reach all three per-face readers: each big face's
    2-vertices, and nothing else, receive more than they draw; the receipts
    of edge_level_audit change on exactly the faces with a 2-vertex; and
    final_audit's edge negatives change."""
    hosts = [hex_with_triangle_fans(), random_class_member(7, 60)]
    before = [
        (
            [n for n in final_audit(g).negatives if n.kind == "edge"],
            {i: edge_level_audit(g, i).sink_received for i in big_faces(g)},
        )
        for g in hosts
    ]
    subr5 = tuple(
        (rule, offset, QUARTER if amount == SIXTH else amount)
        for rule, offset, amount in discharging._SUBR5
    )
    assert subr5 != discharging._SUBR5
    monkeypatch.setattr(discharging, "_SUBR5", subr5)
    monkeypatch.setattr(discharging, "_VERTEX_PULLS", discharging._vertex_pull_table())
    for g, (edge_negatives, received) in zip(hosts, before):
        faces_with_twos = 0
        for i in big_faces(g):
            twos = sorted({("vertex", v) for v in g.face_vertices(i) if g.degree(v) == 2})
            faces_with_twos += bool(twos)
            assert reconcile_face(g, i).mismatched == tuple(twos)
            assert (edge_level_audit(g, i).sink_received != received[i]) == bool(twos)
        assert faces_with_twos
        assert [n for n in final_audit(g).negatives if n.kind == "edge"] != edge_negatives


def test_one_pull_walk_feeds_every_reader(monkeypatch):
    """With the 3-face entries dropped from the shared pull walk, all three
    readers lose them on the hexagon with triangle fans: edge_level_audit
    its SubR1 and SubR2 transfers, reconcile_face mismatches exactly the
    3-faces across each big face, and final_audit's edge negatives change."""
    g = hex_with_triangle_fans()
    edge_negatives = [n for n in final_audit(g).negatives if n.kind == "edge"]
    rules = {i: {t.rule for t in edge_level_audit(g, i).transfers} for i in big_faces(g)}
    assert set().union(*rules.values()) >= {"SubR1", "SubR2"}
    real_pulls = discharging._face_pulls

    def vertex_pulls_only(graph, face):
        across, pulls = real_pulls(graph, face)
        return across, [entry for entry in pulls if entry[1] != "face"]

    monkeypatch.setattr(discharging, "_face_pulls", vertex_pulls_only)
    for i in big_faces(g):
        assert {t.rule for t in edge_level_audit(g, i).transfers} == rules[i] - {"SubR1", "SubR2"}
        threes = sorted({("face", g.opposite_face(h)) for h in g.three_face_edges(i)})
        assert reconcile_face(g, i).mismatched == tuple(threes)
    assert [n for n in final_audit(g).negatives if n.kind == "edge"] != edge_negatives


_BROKEN_INVARIANTS = """
from planecharge import discharging
from planecharge.discharging import Transfer, apply_rules, initial_charges
from planecharge.plane_graph import build_from_rotation

c6 = build_from_rotation([[5, 1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 0]])
state = initial_charges(c6)
# A rule that draws from a vertex, then an identity that no charging meets.
discharging.rule_transfers = lambda graph: [Transfer("R1", ("vertex", 0), ("vertex", 1), 12)]
discharging.TOTAL_TWELFTHS = 0
for step in (lambda: apply_rules(c6, state), lambda: initial_charges(c6)):
    try:
        step()
    except AssertionError as exc:
        print(__debug__, exc)
"""


def test_charge_invariants_are_checked_under_optimize():
    """initial_charges' sum and apply_rules' face sources are checked by
    tests that ``python -O`` keeps: a rule transfer out of a vertex, and a
    balanced charging that misses TOTAL_TWELFTHS, both raise."""
    env = dict(os.environ, PYTHONPATH=str(Path(planecharge.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_INVARIANTS],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.splitlines() == [
        "False rule R1 draws from ('vertex', 0), not from a face",
        "False balanced charging sums to -96 twelfths, not 0",
    ]
