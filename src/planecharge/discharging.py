"""Exact charge accounting: balanced charging, the four global transfer
rules, and per-face edge-level audits.

Amounts are plain ints counting twelfths of a unit charge; every constant
the rules use (1, 1/2, 1/3, 1/4, 1/6) is a whole number of twelfths, so the
ledger is exact and every audit is bit-reproducible.

The sub-rules of one big face are applied by one pass over its walk,
``_audit_face``, which returns a ``FaceAudit``.  ``final_audit`` and
``reconcile_face`` build it for the amounts alone; ``edge_level_audit``
builds it with one ``Transfer`` record per sub-rule draw.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .errors import Disconnected, GraphError, NotBigFace, UnknownFace
from .plane_graph import PlaneGraph

ElementKey = tuple  # ("vertex", v) | ("face", i) | ("edge", (u, v))


# The rule amounts, in twelfths.
ONE = 12
HALF = 6
THIRD = 4
QUARTER = 3
SIXTH = 2

# The shortest face that gives charge away: the rules draw only from faces of
# at least this length, and only they have an edge-level audit.
BIG_FACE = 6

TOTAL_TWELFTHS = -96  # (-8) units: balanced charging on any connected plane graph


class Transfer(NamedTuple):
    rule: str
    source: ElementKey
    sink: ElementKey
    amount: int


class ChargeState(NamedTuple):
    vertex_charge: dict[int, int]
    face_charge: dict[int, int]
    log: tuple[Transfer, ...] = ()

    def total(self) -> int:
        return sum(self.vertex_charge.values()) + sum(self.face_charge.values())


def initial_charges(graph: PlaneGraph) -> ChargeState:
    """Balanced charging: degree minus four on vertices, length minus four
    on faces; the total is exactly -8 on a connected plane graph."""
    if not graph.is_connected():
        raise Disconnected("initial charges need a connected graph")
    if graph.edge_count == 0:
        raise GraphError("charge accounting needs at least one edge")
    euler = graph.vertex_count - graph.edge_count + graph.face_count
    if euler != 2:
        # The total is -4 units times V - E + F, so only a plane rotation
        # system sums to -8.
        raise GraphError(
            f"charge accounting needs a plane rotation system, but V - E + F = {euler}"
        )
    state = ChargeState(
        vertex_charge={v: ONE * (len(nbrs) - 4) for v, nbrs in enumerate(graph.rotation)},
        face_charge={i: ONE * (len(walk) - 4) for i, walk in enumerate(graph.faces)},
    )
    if state.total() != TOTAL_TWELFTHS:  # checked under ``python -O`` too
        raise AssertionError(
            f"balanced charging sums to {state.total()} twelfths, not {TOTAL_TWELFTHS}"
        )
    return state


_VERTEX_DRAWS = {2: ("R1", ONE), 3: ("R2", HALF)}  # by vertex degree


def _rule_draw(graph: PlaneGraph, sink: ElementKey) -> Optional[tuple[str, int]]:
    """The rule and amount by which ``sink`` draws from a 6+-face, per
    incidence: R1 = 1 for a degree-2 vertex and R2 = 1/2 for a degree-3
    vertex, per occurrence on the face's walk; R3 = 1/2 for a 3-face that
    touches another 3-face and R4 = 1/3 for any other 3-face, per shared
    edge; ``PlaneGraph.three_face_edges`` tells the two apart.  None when
    the element draws nothing."""
    kind, key = sink
    if kind == "vertex":
        return _VERTEX_DRAWS.get(len(graph.rotation[key]))
    if len(graph.faces[key]) != 3:
        return None
    return ("R3", HALF) if graph.three_face_edges(key) else ("R4", THIRD)


def rule_transfers(graph: PlaneGraph) -> list[Transfer]:
    """The four global rules, computed from the incidence structure alone:
    first the vertex draws of each big face along its walk, then the draws
    of each 3-face from the big faces across its edges (see ``_rule_draw``)."""
    faces, face_of, twin, origin = graph.faces, graph.face_of, graph.twin, graph.origin
    transfers: list[Transfer] = []
    for i, walk in enumerate(faces):
        if len(walk) < BIG_FACE:
            continue
        source = ("face", i)
        for h in walk:
            sink = ("vertex", origin[h])
            draw = _rule_draw(graph, sink)
            if draw is not None:
                transfers.append(Transfer(draw[0], source, sink, draw[1]))
    for i, walk in enumerate(faces):
        sink = ("face", i)
        draw = _rule_draw(graph, sink)
        if draw is None:
            continue
        for h in walk:
            j = face_of[twin[h]]
            if len(faces[j]) >= BIG_FACE:
                transfers.append(Transfer(draw[0], ("face", j), sink, draw[1]))
    return transfers


def apply_rules(graph: PlaneGraph, state: ChargeState) -> ChargeState:
    """Apply all four rules simultaneously to a fresh balanced charging."""
    vertex_charge = dict(state.vertex_charge)
    face_charge = dict(state.face_charge)
    transfers = rule_transfers(graph)
    for t in transfers:
        kind, key = t.source
        if kind != "face":  # checked under ``python -O`` too
            raise AssertionError(f"rule {t.rule} draws from {t.source}, not from a face")
        face_charge[key] -= t.amount
        kind, key = t.sink
        if kind == "vertex":
            vertex_charge[key] += t.amount
        else:
            face_charge[key] += t.amount
    return ChargeState(
        vertex_charge=vertex_charge,
        face_charge=face_charge,
        log=state.log + tuple(transfers),
    )


# -- edge-level audit of one big face -----------------------------------------


# The sub-rule pulls, as (rule, walk-edge offset, amount) rows.  Walk vertex
# pos sits between walk edges pos - 1 and pos, and a row pulls from walk
# edge pos + offset; the rows of a 3-face across walk edge pos count from
# that edge.  A 2-vertex pulls 1/3 from both walk edges at it and 1/6 from
# the two one step further out.
_SUBR5 = (("SubR5", -1, THIRD), ("SubR5", 0, THIRD), ("SubR5", -2, SIXTH), ("SubR5", 1, SIXTH))
# A 3-vertex with a 3-face across the walk edge after it, else before it;
# the three corners of a 3-vertex pairwise share an edge, so a 3-face at
# that corner always lies across one of the two.
_SUBR3_AFTER = (("SubR3", -1, THIRD), ("SubR3", 1, SIXTH))
_SUBR3_BEFORE = (("SubR3", 0, THIRD), ("SubR3", -2, SIXTH))
_SUBR4 = (("SubR4", -1, QUARTER), ("SubR4", 0, QUARTER))
_SUBR1 = ("SubR1", 0, THIRD)
# A 3-face flanking the 3-face across walk edge pos pulls from the walk edge
# on its side of the shared edge: before it when the flank holds the walk
# edge's first vertex, after it otherwise.
_SUBR2_BEFORE = ("SubR2", -1, SIXTH)
_SUBR2_AFTER = ("SubR2", 1, SIXTH)


class FaceAudit(NamedTuple):
    """Scratch ledger for one 6+-face: each edge occurrence on the walk is
    seeded with 1/3, the sub-rules move edge charge to the 2-vertices,
    3-vertices, and 3-faces around the face, and the face keeps the
    residual 2l/3 - 4.  ``transfers`` holds one ``Transfer`` per sub-rule
    draw when the audit is built with its ledger, and is empty otherwise."""

    face: int
    length: int
    residual: int
    edge_seed: dict[tuple[int, int], int]
    edge_final: dict[tuple[int, int], int]
    sink_received: dict[ElementKey, int]
    transfers: tuple[Transfer, ...]

    def negative_edges(self) -> list[tuple[tuple[int, int], int]]:
        """The edges that end negative, with their final amounts, in edge order."""
        return sorted((e, c) for e, c in self.edge_final.items() if c < 0)

    def conserved(self) -> bool:
        """What the edges keep plus what the sinks receive is what was seeded."""
        kept = sum(self.edge_final.values()) + sum(self.sink_received.values())
        return kept == sum(self.edge_seed.values())


def _audit_face(graph: PlaneGraph, face: int, ledger: bool = False) -> FaceAudit:
    """The one pass over the walk of big face ``face`` that applies the pull
    tables above.  With ``ledger`` it also builds one ``Transfer`` per pull:
    the vertex draws of every walk position first, then the 3-face draws,
    each in walk order.  UnknownFace (an IndexError) unless ``face`` is an
    int in 0..face_count-1, NotBigFace when the face is shorter than
    ``BIG_FACE``."""
    if type(face) is not int or not 0 <= face < graph.face_count:
        raise UnknownFace(face)
    faces, face_of, twin = graph.faces, graph.face_of, graph.twin
    origin, target, rotation = graph.origin, graph.target, graph.rotation
    walk = faces[face]
    length = len(walk)
    if length < BIG_FACE:
        raise NotBigFace(face, length, BIG_FACE)
    # edges[pos] is the walk edge at position pos, as (low, high).
    edges = tuple(
        (origin[h], target[h]) if origin[h] < target[h] else (target[h], origin[h])
        for h in walk
    )
    # The face across each walk edge, and whether it is a 3-face (a 3-face
    # is never the big face itself).
    across = [face_of[twin[h]] for h in walk]
    three = [len(faces[j]) == 3 for j in across]

    taken = [0] * length
    received: dict[ElementKey, int] = {}
    transfers: list[Transfer] = []
    face_transfers: list[Transfer] = []
    for pos, h in enumerate(walk):
        v = origin[h]
        d = len(rotation[v])
        if d == 2:
            pulls = _SUBR5
        elif d == 3:
            pulls = _SUBR3_AFTER if three[pos] else _SUBR3_BEFORE if three[pos - 1] else _SUBR4
        else:
            pulls = ()
        if pulls:
            sink = ("vertex", v)
            for rule, offset, amount in pulls:
                p = (pos + offset) % length
                taken[p] += amount
                received[sink] = received.get(sink, 0) + amount
                if ledger:
                    transfers.append(Transfer(rule, ("edge", edges[p]), sink, amount))
        if not three[pos]:
            continue
        g3 = across[pos]
        sink = ("face", g3)
        pulls = [_SUBR1]
        # The shared edge is not listed: its far side is this big face.
        for hg in graph.three_face_edges(g3):
            pulls.append(_SUBR2_BEFORE if origin[hg] == v else _SUBR2_AFTER)
        for rule, offset, amount in pulls:
            p = (pos + offset) % length
            taken[p] += amount
            received[sink] = received.get(sink, 0) + amount
            if ledger:
                face_transfers.append(Transfer(rule, ("edge", edges[p]), sink, amount))
    transfers += face_transfers

    # Each distinct walk edge's seed is 1/3 per occurrence on the walk; its
    # final charge is what is left once the amounts taken at its positions
    # are gone.
    seed: dict[tuple[int, int], int] = {}
    for e in edges:
        seed[e] = seed.get(e, 0) + THIRD
    final = dict(seed)
    for e, t in zip(edges, taken):
        final[e] -= t
    residual = ONE * (length - 4) - THIRD * length
    return FaceAudit(face, length, residual, seed, final, received, tuple(transfers))


def edge_level_audit(graph: PlaneGraph, face: int) -> FaceAudit:
    """The sub-rule ledger of big face ``face``, one ``Transfer`` per draw;
    UnknownFace (an IndexError) unless ``face`` is an int in
    0..face_count-1.  ``final_audit`` and ``reconcile_face`` build the same
    audit without its transfers."""
    audit = _audit_face(graph, face, ledger=True)
    if not audit.conserved():  # checked under ``python -O`` too
        raise AssertionError(f"the audit of face {face} does not conserve charge")
    return audit


class FaceReconciliation(NamedTuple):
    """Audit receipts versus rule draws, per sink, for one big face."""

    face: int
    ok: bool
    audit_received: dict[ElementKey, int]
    rule_draws: dict[ElementKey, int]
    mismatched: tuple[ElementKey, ...]


def reconcile_face(graph: PlaneGraph, face: int) -> FaceReconciliation:
    """Check that what each sink collects from the face's edges under the
    sub-rules equals what it draws from the face under the global rules."""
    received = _audit_face(graph, face).sink_received
    face_of, twin, origin = graph.face_of, graph.twin, graph.origin
    draws: dict[ElementKey, int] = {}
    for h in graph.faces[face]:
        for sink in (("vertex", origin[h]), ("face", face_of[twin[h]])):
            draw = _rule_draw(graph, sink)
            if draw is not None:
                draws[sink] = draws.get(sink, 0) + draw[1]
    keys = set(received) | set(draws)
    mismatched = tuple(
        sorted(k for k in keys if received.get(k, 0) != draws.get(k, 0))
    )
    return FaceReconciliation(
        face=face,
        ok=not mismatched,
        audit_received=received,
        rule_draws=draws,
        mismatched=mismatched,
    )


# -- final audit ---------------------------------------------------------------


class NegativeElement(NamedTuple):
    kind: str  # "vertex" | "face" | "edge"
    ident: Union[int, tuple]  # vertex id, face index, or (face, (u, v))
    charge: int


class FinalAudit(NamedTuple):
    negatives: tuple[NegativeElement, ...]
    reconciliation_ok: bool
    state: ChargeState


def final_audit(graph: PlaneGraph) -> FinalAudit:
    """Run the whole pipeline and report everything that ends negative.

    The reconciliation flag asserts conservation: the vertex+face total is
    still exactly -8 after the rules, each audited face's edge ledger
    conserves its seeded l/3, and each residual 2l/3 - 4 (nonnegative for
    l >= 6) is what the face keeps of its initial charge after seeding.
    """
    state = apply_rules(graph, initial_charges(graph))
    negatives: list[NegativeElement] = []
    for v, c in sorted(state.vertex_charge.items()):
        if c < 0:
            negatives.append(NegativeElement("vertex", v, c))
    for i, c in sorted(state.face_charge.items()):
        if c < 0:
            negatives.append(NegativeElement("face", i, c))

    reconciliation_ok = state.total() == TOTAL_TWELFTHS
    for i, walk in enumerate(graph.faces):
        if len(walk) < BIG_FACE:
            continue
        audit = _audit_face(graph, i)
        reconciliation_ok = (
            reconciliation_ok
            and audit.conserved()
            and audit.residual == ONE * (audit.length - 4) - sum(audit.edge_seed.values())
            and audit.residual >= 0
        )
        for e, c in audit.negative_edges():
            negatives.append(NegativeElement("edge", (i, e), c))
    return FinalAudit(
        negatives=tuple(negatives),
        reconciliation_ok=reconciliation_ok,
        state=state,
    )
