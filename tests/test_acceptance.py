"""The acceptance suite: one test per criterion, each printing a pass/fail
line, with the stated exactness and timing budgets asserted."""

import itertools
import time

import pytest

from oracles import brute_force_matches, dfs_list_coloring
from planecharge.catalog import CATALOG_ORDER, REDUCIBLE_IDS
from planecharge.choosability import (
    DemandFunction,
    chromatic_number,
    clique_f_choosable,
    is_f_choosable,
    is_k_choosable,
    l_coloring,
)
from planecharge.corpus import (
    enumerate_class,
    iter_planar_embeddings,
    named_examples,
    planar_embeddings,
    random_class_member,
)
from planecharge.discharging import (
    BIG_FACE,
    TOTAL_TWELFTHS,
    apply_rules,
    final_audit,
    initial_charges,
    reconcile_face,
)
from planecharge.matcher import find_any_reducible, find_configuration
from planecharge.plane_graph import class_membership
from planecharge.reducibility import verify_catalog
from planecharge.square import SimpleGraph, square

# Criterion 8 asks for a non-conn match within this graph distance of each
# negative audit element.
MATCH_RADIUS = 2

PINNED_DEMANDS = {
    "no1v": [8],
    "no2v3f": [6],
    "no2v4f": [5],
    "no22v": [7, 7],
    "no23v": [6, 3],
    "no33v": [2, 2],
    "no242v": [6, 2, 6],
    "no243v": [6, 1, 2],
    "no2v_3f": [1, 5],
    "no3v_33f": [4],
    "no3v_44f": [2],
    "no3v3f3f": [2, 2],
    "no3v3f_3f": [3, 2],
    "no3v_3f3v": [1, 3],
    "no3v_m3f3f": [2, 1],
    "no2v__m3f3f": [1, 2, 3, 6],
}


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _lattice_members():
    for i in range(1000):
        yield random_class_member(seed=i, n=2 + (i * 17) % 39)


@pytest.fixture(scope="module")
def host_pool(class_members_7):
    """At least 500 plane graphs on <= 7 vertices drawn from the
    enumeration, padded out with alternative embeddings of its members."""
    hosts = list(class_members_7)
    for g in class_members_7:
        if len(hosts) >= 520:
            break
        adjacency = tuple(g.neighbors(v) for v in range(g.vertex_count))
        for extra in planar_embeddings(adjacency, limit=8)[1:]:
            hosts.append(extra)
            if len(hosts) >= 520:
                break
    return hosts


def test_criterion_1_catalog_verification():
    start = time.perf_counter()
    results = verify_catalog()
    all_pass = all(r.passed for r in results) and len(results) == 19
    f_exact = True
    for r in results:
        if r.config_id in REDUCIBLE_IDS:
            got = sorted(r.report.computed_f.values())
            f_exact = f_exact and got == sorted(PINNED_DEMANDS[r.config_id])
            f_exact = f_exact and r.report.f_matches_expected is True
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        all_pass and f_exact and elapsed < 5.0,
        f"19 entries verified, pinned demand values exact, {elapsed:.2f}s < 5s",
    )


def test_criterion_2_sharpness_example(named):
    start = time.perf_counter()
    sq = square(named["sharpness9"])
    complete = sq.is_complete() and sq.vertex_count == 9
    chrom = chromatic_number(sq)
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        complete and chrom == 9 and elapsed < 1.0,
        f"square is K9 and needs 9 colors, {elapsed:.2f}s < 1s",
    )


def test_criterion_3_k24(named):
    start = time.perf_counter()
    g = named["k24"]
    chrom = chromatic_number(g)
    verdict = is_k_choosable(g, 2)
    witness_ok = (
        not verdict.choosable
        and verdict.bad_assignment is not None
        and verdict.bad_assignment.sizes() == (2,) * 6
        and l_coloring(g, verdict.bad_assignment) is None
        and dfs_list_coloring(g, verdict.bad_assignment.lists) is None
    )
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        chrom == 2 and witness_ok and elapsed < 1.0,
        f"2-colorable, not 2-choosable with verified witness, {elapsed:.2f}s < 1s",
    )


def test_criterion_4_clique_criterion_oracle():
    start = time.perf_counter()
    checked = 0
    agree = True
    for n in range(1, 5):
        kn = SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        for f in itertools.combinations_with_replacement(range(7), n):
            checked += 1
            agree = agree and (
                clique_f_choosable(f) == is_f_choosable(kn, DemandFunction(f)).choosable
            )
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        agree and checked == 329 and elapsed < 60.0,
        f"{checked} demand multisets agree with brute force, {elapsed:.1f}s < 60s",
    )


def test_criterion_5_charge_identity(named, class_members_7):
    ok = True
    for g in list(named.values()) + class_members_7:
        if not g.is_connected():
            continue
        state = initial_charges(g)
        ok = ok and state.total() == TOTAL_TWELFTHS
        after = apply_rules(g, state)
        ok = ok and after.total() == TOTAL_TWELFTHS
    _criterion(
        5,
        ok,
        f"balanced charging totals -8 and rules conserve it on "
        f"{len(named) + len(class_members_7)} graphs",
    )


def test_criterion_6_subrule_reconciliation(named):
    ok = True
    audited = 0
    for g in named.values():
        for i in range(g.face_count):
            length = g.face_length(i)
            if length < BIG_FACE:
                continue
            audited += 1
            rec = reconcile_face(g, i)
            ok = ok and rec.ok
            audit_residual = 12 * (length - 4) - 4 * length
            ok = ok and audit_residual >= 0
    _criterion(
        6,
        ok and audited > 0,
        f"receipts equal rule draws and residuals are 2l/3-4 >= 0 on "
        f"{audited} big faces",
    )


def test_criterion_7_unavoidability():
    start = time.perf_counter()
    missed = []
    members = embeddings = 0
    for g in enumerate_class(8):
        members += 1
        adjacency = tuple(g.neighbors(v) for v in range(g.vertex_count))
        for h in iter_planar_embeddings(adjacency):
            embeddings += 1
            if find_any_reducible(h) is None:
                missed.append(h)
    lattice_checked = 0
    for g in _lattice_members():
        lattice_checked += 1
        if find_any_reducible(g) is None:
            missed.append(g)
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        not missed and lattice_checked == 1000 and elapsed < 600.0,
        f"every embedding of the {members} enumerated members up to n = 8 "
        f"({embeddings} embeddings) and 1000 lattice members contain a "
        f"configuration, {elapsed:.0f}s < 600s",
    )


def _anchor(g, element):
    """The vertices a negative audit element sits on: a vertex itself, a
    face its walk, an edge its two ends."""
    if element.kind == "vertex":
        return {element.ident}
    if element.kind == "face":
        return set(g.face_vertices(element.ident))
    return set(element.ident[1])


def _match_distances(g):
    """Graph distance from each vertex to the nearest role vertex or
    witness-face vertex of a non-``conn`` match; unreached vertices are
    absent."""
    dist = {}
    for config_id in CATALOG_ORDER:
        if config_id == "conn":
            continue
        for match in find_configuration(g, config_id):
            dist.update((v, 0) for _, v in match.roles)
            for face in match.faces:
                dist.update((v, 0) for v in g.face_vertices(face))
    layer, d = list(dist), 0
    while layer:
        d += 1
        layer = [w for u in layer for w in g.rotation[u] if w not in dist]
        dist.update(dict.fromkeys(layer, d))
    return dist


def test_criterion_8_contrapositive_audit(named, class_members_7):
    ok = True
    checked = negatives = farthest = 0
    graphs = [g for g in named.values() if g.is_connected()]
    graphs += class_members_7
    graphs += list(_lattice_members())
    # The criterion speaks of class members: sharpness9 has a 5-cycle.
    graphs = [g for g in graphs if class_membership(g).in_class]
    for g in graphs:
        audit = final_audit(g)
        checked += 1
        ok = ok and audit.reconciliation_ok
        ok = ok and bool(audit.negatives)  # total -8 forces a negative element
        dist = _match_distances(g)
        for element in audit.negatives:
            negatives += 1
            near = min((dist[v] for v in _anchor(g, element) if v in dist), default=None)
            ok = ok and near is not None and near <= MATCH_RADIUS
            farthest = max(farthest, near or 0)
    _criterion(
        8,
        ok,
        f"each of {negatives} negative audit elements has a non-conn match "
        f"within distance {farthest} <= {MATCH_RADIUS} on {checked} graphs",
    )


def test_criterion_9_matcher_oracle(host_pool):
    start = time.perf_counter()
    mismatches = 0
    for g in host_pool:
        for config_id in CATALOG_ORDER:
            if set(find_configuration(g, config_id)) != brute_force_matches(
                g, config_id
            ):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _criterion(
        9,
        mismatches == 0 and len(host_pool) >= 500,
        f"detector equals injective-map enumeration on {len(host_pool)} "
        f"hosts x {len(CATALOG_ORDER)} configurations, {elapsed:.0f}s",
    )
