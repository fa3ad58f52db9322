"""Exact charge accounting: balanced charging, the four global transfer
rules, and per-face edge-level audits.

Amounts are plain ints counting twelfths of a unit charge; every constant
the rules use (1, 1/2, 1/3, 1/4, 1/6) is a whole number of twelfths, so the
ledger is exact and every audit is bit-reproducible.

Which sub-rule rows a walk vertex pulls is stated once, in the table
``_VERTEX_PULLS``, keyed by the vertex's degree and by whether a 3-face
lies across the walk edge after it and before it.  One walk,
``_face_pulls``, lists every element that pulls from a big face's edges
with its rows, and the three per-face readers fold that list:
``edge_level_audit`` into a ``FaceAudit`` with one ``Transfer`` per
sub-rule draw, ``reconcile_face`` into each sink's total, and
``final_audit`` into the amount taken at each walk position, naming an
edge only where it may end negative.
"""

from __future__ import annotations

from typing import NamedTuple, Union

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


# The rule and amount by which an element draws from a 6+-face, by its local
# type.  Per occurrence on the face's walk, a degree-2 vertex draws R1 = 1 and
# a degree-3 vertex R2 = 1/2; a vertex of any other degree draws nothing.  Per
# shared edge, a 3-face draws R3 = 1/2 when it touches another 3-face and
# R4 = 1/3 otherwise, keyed by ``bool(PlaneGraph.three_face_edges(face))``.
_VERTEX_DRAWS = {2: ("R1", ONE), 3: ("R2", HALF)}
_FACE_DRAWS = {True: ("R3", HALF), False: ("R4", THIRD)}


def rule_transfers(graph: PlaneGraph) -> list[Transfer]:
    """The four global rules, computed from the incidence structure alone:
    first the vertex draws of each big face along its walk, then the draws
    of each 3-face from the big faces across its edges, each amount read
    from ``_VERTEX_DRAWS`` or ``_FACE_DRAWS``."""
    faces, face_of, twin = graph.faces, graph.face_of, graph.twin
    origin, rotation = graph.origin, graph.rotation
    vertex_draw = _VERTEX_DRAWS.get
    transfers: list[Transfer] = []
    for i, walk in enumerate(faces):
        if len(walk) < BIG_FACE:
            continue
        source = ("face", i)
        for h in walk:
            v = origin[h]
            draw = vertex_draw(len(rotation[v]))
            if draw is not None:
                transfers.append(Transfer(draw[0], source, ("vertex", v), draw[1]))
    for i, walk in enumerate(faces):
        if len(walk) != 3:
            continue
        rule, amount = _FACE_DRAWS[bool(graph.three_face_edges(i))]
        sink = ("face", i)
        for h in walk:
            j = face_of[twin[h]]
            if len(faces[j]) >= BIG_FACE:
                transfers.append(Transfer(rule, ("face", j), sink, amount))
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


def _vertex_pull_table() -> dict[tuple[int, bool, bool], tuple[int, tuple]]:
    """The rows a walk vertex pulls, with their total, keyed by (its degree,
    whether a 3-face lies across the walk edge after it, whether one lies
    across the walk edge before it): SubR5 at a 2-vertex; at a 3-vertex
    SubR3 towards a 3-face after it, else before it, else SubR4.  A vertex
    of any other degree pulls nothing and has no key."""
    table = {}
    for after in (False, True):
        for before in (False, True):
            subr3 = _SUBR3_AFTER if after else _SUBR3_BEFORE if before else _SUBR4
            for degree, rows in ((2, _SUBR5), (3, subr3)):
                table[degree, after, before] = (sum(row[2] for row in rows), rows)
    return table


_VERTEX_PULLS = _vertex_pull_table()


def _face_pulls(graph: PlaneGraph, face: int) -> tuple[list[int], list[tuple]]:
    """The face across each walk edge of big face ``face``, and every
    element that pulls from the walk's edges, in walk order: at position
    pos the walk vertex (its ``_VERTEX_PULLS`` entry), then the 3-face
    across walk edge pos (SubR1, and SubR2 for each 3-face flanking it).
    Each entry is (pos, kind, ident, total, rows), its sink being (kind,
    ident); a row (rule, offset, amount) pulls from walk edge pos + offset."""
    walk = graph.faces[face]
    face_of, twin = graph.face_of, graph.twin
    origin, rotation = graph.origin, graph.rotation
    vertex_pulls = _VERTEX_PULLS.get
    across = [face_of[twin[h]] for h in walk]
    # Whether a 3-face lies across each walk edge.
    threes = graph.three_face_edges(face)
    three = [h in threes for h in walk] if threes else [False] * len(walk)
    pulls: list[tuple] = []
    for pos, h in enumerate(walk):
        v = origin[h]
        pull = vertex_pulls((len(rotation[v]), three[pos], three[pos - 1]))
        if pull is not None:
            pulls.append((pos, "vertex", v, pull[0], pull[1]))
        if three[pos]:
            j = across[pos]
            rows = (_SUBR1,) + tuple(
                _SUBR2_BEFORE if origin[hg] == v else _SUBR2_AFTER
                for hg in graph.three_face_edges(j)  # the shared edge is not listed
            )
            pulls.append((pos, "face", j, sum(row[2] for row in rows), rows))
    return across, pulls


def _big_face_walk(graph: PlaneGraph, face: int) -> list[int]:
    """The walk of big face ``face``.  UnknownFace (an IndexError) unless
    ``face`` is an int in 0..face_count-1, NotBigFace when the face is
    shorter than ``BIG_FACE``."""
    if type(face) is not int or not 0 <= face < graph.face_count:
        raise UnknownFace(face)
    walk = graph.faces[face]
    if len(walk) < BIG_FACE:
        raise NotBigFace(face, len(walk), BIG_FACE)
    return walk


class FaceAudit(NamedTuple):
    """Scratch ledger for one 6+-face: each edge occurrence on the walk is
    seeded with 1/3, the sub-rules move edge charge to the 2-vertices,
    3-vertices, and 3-faces around the face, and the face keeps the
    residual 2l/3 - 4.  ``edge_final`` holds what each distinct walk edge
    keeps, ``sink_received`` what each sink collects, and ``transfers``
    one ``Transfer`` per sub-rule draw."""

    face: int
    length: int
    residual: int
    edge_final: dict[tuple[int, int], int]
    sink_received: dict[ElementKey, int]
    transfers: tuple[Transfer, ...]

    def conserved(self) -> bool:
        """What the edges keep plus what the sinks receive is 1/3 per walk occurrence."""
        kept = sum(self.edge_final.values()) + sum(self.sink_received.values())
        return kept == THIRD * self.length


def edge_level_audit(graph: PlaneGraph, face: int) -> FaceAudit:
    """The sub-rule ledger of big face ``face``, one ``Transfer`` per draw:
    the vertex pulls of every walk position first, then the 3-face pulls,
    each in walk order.  Each edge keeps 1/3 per walk occurrence less what
    is taken there, and ``FaceAudit.conserved()`` is checked under
    ``python -O`` too.  UnknownFace (an IndexError) unless ``face`` is an
    int in 0..face_count-1, NotBigFace when the face is shorter than
    ``BIG_FACE``."""
    walk = _big_face_walk(graph, face)
    origin, target = graph.origin, graph.target
    length = len(walk)
    # edges[pos] is the walk edge at position pos, as (low, high).
    edges = tuple(
        (origin[h], target[h]) if origin[h] < target[h] else (target[h], origin[h])
        for h in walk
    )
    taken = [0] * length
    received: dict[ElementKey, int] = {}
    transfers: list[Transfer] = []
    face_transfers: list[Transfer] = []
    for pos, kind, ident, total, rows in _face_pulls(graph, face)[1]:
        sink = (kind, ident)
        received[sink] = received.get(sink, 0) + total
        out = transfers if kind == "vertex" else face_transfers
        for rule, offset, amount in rows:
            p = (pos + offset) % length
            taken[p] += amount
            out.append(Transfer(rule, ("edge", edges[p]), sink, amount))
    transfers += face_transfers

    # An edge ends with 1/3 per occurrence on the walk, less what is taken
    # there; only a bridge occurs twice.
    final: dict[tuple[int, int], int] = {}
    for e, t in zip(edges, taken):
        final[e] = final.get(e, 0) + THIRD - t
    residual = ONE * (length - 4) - THIRD * length
    audit = FaceAudit(face, length, residual, final, received, tuple(transfers))
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
    sub-rules equals what it draws from the face under the global rules.
    Each sink's receipts are the totals of its pulls; the draws walk the
    face again under R1-R4, so an element that draws but pulls nothing
    still shows as a mismatch."""
    walk = _big_face_walk(graph, face)
    origin, rotation = graph.origin, graph.rotation
    vertex_draw = _VERTEX_DRAWS.get
    across, pulls = _face_pulls(graph, face)
    received: dict[ElementKey, int] = {}
    for _, kind, ident, total, _ in pulls:
        sink = (kind, ident)
        received[sink] = received.get(sink, 0) + total
    threes = graph.three_face_edges(face)
    draws: dict[ElementKey, int] = {}
    for h, j in zip(walk, across):
        v = origin[h]
        draw = vertex_draw(len(rotation[v]))
        if draw is not None:
            sink = ("vertex", v)
            draws[sink] = draws.get(sink, 0) + draw[1]
        if h in threes:
            sink = ("face", j)
            draws[sink] = draws.get(sink, 0) + _FACE_DRAWS[bool(graph.three_face_edges(j))][1]
    mismatched = ()
    if received != draws:
        keys = received.keys() | draws.keys()
        mismatched = tuple(sorted(k for k in keys if received.get(k, 0) != draws.get(k, 0)))
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
    still exactly -8 after the rules, and each audited face keeps a
    residual 2l/3 - 4 (nonnegative for l >= 6) of its initial charge after
    seeding 1/3 on each walk edge.  Both hold by construction on every
    graph that gets this far; whether the sub-rules pay each rule draw is
    ``reconcile_face``'s check.  The edge ledger is read per walk
    position: only an edge that gives away more than its seed, or a bridge
    (both sides on the face, so seeded twice), is named.
    """
    state = apply_rules(graph, initial_charges(graph))
    negatives: list[NegativeElement] = []
    for v, c in sorted(state.vertex_charge.items()):
        if c < 0:
            negatives.append(NegativeElement("vertex", v, c))
    for i, c in sorted(state.face_charge.items()):
        if c < 0:
            negatives.append(NegativeElement("face", i, c))

    origin, target = graph.origin, graph.target
    reconciliation_ok = state.total() == TOTAL_TWELFTHS
    for i, walk in enumerate(graph.faces):
        length = len(walk)
        if length < BIG_FACE:
            continue
        across, pulls = _face_pulls(graph, i)
        taken = [0] * length
        for pos, _, _, _, rows in pulls:
            for _, offset, amount in rows:
                taken[(pos + offset) % length] += amount
        residual = ONE * (length - 4) - THIRD * length
        reconciliation_ok = reconciliation_ok and residual >= 0
        # An edge ends with 1/3 per occurrence on the walk, less what is
        # taken there; only a bridge occurs twice.
        final: dict[tuple[int, int], int] = {}
        for pos, t in enumerate(taken):
            if t > THIRD or across[pos] == i:
                h = walk[pos]
                u, w = origin[h], target[h]
                e = (u, w) if u < w else (w, u)
                final[e] = final.get(e, 0) + THIRD - t
        for e, c in sorted(final.items()):
            if c < 0:
                negatives.append(NegativeElement("edge", (i, e), c))
    return FinalAudit(
        negatives=tuple(negatives),
        reconciliation_ok=reconciliation_ok,
        state=state,
    )
