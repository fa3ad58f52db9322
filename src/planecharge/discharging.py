"""Exact charge accounting: balanced charging, the four global transfer
rules, and per-face edge-level audits.

Amounts are plain ints counting twelfths of a unit charge; every constant
the rules use (1, 1/2, 1/3, 1/4, 1/6) is a whole number of twelfths, so the
ledger is exact and every audit is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import Disconnected, GraphError, NotBigFace
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


@dataclass(frozen=True)
class ChargeState:
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
        vertex_charge={
            v: ONE * (graph.degree(v) - 4) for v in range(graph.vertex_count)
        },
        face_charge={i: ONE * (len(walk) - 4) for i, walk in enumerate(graph.faces)},
    )
    assert state.total() == TOTAL_TWELFTHS
    return state


def _is_three_face(graph: PlaneGraph, i: int) -> bool:
    return graph.face_length(i) == 3


def _touches_three_face(graph: PlaneGraph, i: int) -> bool:
    """Face i shares an edge with some other 3-face."""
    for h in graph.faces[i]:
        j = graph.opposite_face(h)
        if j != i and _is_three_face(graph, j):
            return True
    return False


_VERTEX_DRAWS = {2: ("R1", ONE), 3: ("R2", HALF)}  # by vertex degree


def _rule_draw(graph: PlaneGraph, sink: ElementKey) -> Optional[tuple[str, int]]:
    """The rule and amount by which ``sink`` draws from a 6+-face, per
    incidence: R1 = 1 for a degree-2 vertex and R2 = 1/2 for a degree-3
    vertex, per occurrence on the face's walk; R3 = 1/2 for a 3-face that
    touches another 3-face and R4 = 1/3 for any other 3-face, per shared
    edge.  None when the element draws nothing."""
    kind, key = sink
    if kind == "vertex":
        return _VERTEX_DRAWS.get(graph.degree(key))
    if not _is_three_face(graph, key):
        return None
    return ("R3", HALF) if _touches_three_face(graph, key) else ("R4", THIRD)


def rule_transfers(graph: PlaneGraph) -> list[Transfer]:
    """The four global rules, computed from the incidence structure alone:
    first the vertex draws of each big face along its walk, then the draws
    of each 3-face from the big faces across its edges (see ``_rule_draw``)."""
    transfers: list[Transfer] = []
    for i, walk in enumerate(graph.faces):
        if len(walk) < BIG_FACE:
            continue
        for h in walk:
            sink = ("vertex", graph.origin[h])
            draw = _rule_draw(graph, sink)
            if draw is not None:
                transfers.append(Transfer(draw[0], ("face", i), sink, draw[1]))
    for i, walk in enumerate(graph.faces):
        draw = _rule_draw(graph, ("face", i))
        if draw is None:
            continue
        for h in walk:
            j = graph.opposite_face(h)
            if graph.face_length(j) >= BIG_FACE:
                transfers.append(Transfer(draw[0], ("face", j), ("face", i), draw[1]))
    return transfers


def apply_rules(graph: PlaneGraph, state: ChargeState) -> ChargeState:
    """Apply all four rules simultaneously to a fresh balanced charging."""
    vertex_charge = dict(state.vertex_charge)
    face_charge = dict(state.face_charge)
    transfers = rule_transfers(graph)
    for t in transfers:
        kind, key = t.source
        assert kind == "face"
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


@dataclass(frozen=True)
class FaceAudit:
    """Scratch ledger for one 6+-face: each edge occurrence on the walk is
    seeded with 1/3, the sub-rules move edge charge to the 2-vertices,
    3-vertices, and 3-faces around the face, and the face keeps the
    residual 2l/3 - 4."""

    face: int
    length: int
    residual: int
    edge_seed: dict[tuple[int, int], int]
    edge_final: dict[tuple[int, int], int]
    sink_received: dict[ElementKey, int]
    transfers: tuple[Transfer, ...]

    def negative_edges(self) -> list[tuple[tuple[int, int], int]]:
        return sorted((e, c) for e, c in self.edge_final.items() if c < 0)

    def conserved(self) -> bool:
        moved = sum(self.sink_received.values())
        kept = sum(self.edge_final.values())
        return kept + moved == sum(self.edge_seed.values())


def edge_level_audit(graph: PlaneGraph, face: int) -> FaceAudit:
    """The sub-rule ledger of big face ``face``; IndexError when the graph
    has no face with that index (negative indices included)."""
    if not 0 <= face < graph.face_count:
        raise IndexError(f"no face with index {face}")
    walk = graph.faces[face]
    length = len(walk)
    if length < BIG_FACE:
        raise NotBigFace(face, length, BIG_FACE)
    origin, target = graph.origin, graph.target
    # edges[pos] is the walk edge at position pos, as (low, high).
    edges = [
        (origin[h], target[h]) if origin[h] < target[h] else (target[h], origin[h])
        for h in walk
    ]

    seed: dict[tuple[int, int], int] = {}
    for e in edges:
        seed[e] = seed.get(e, 0) + THIRD

    taken = [0] * length
    received: dict[ElementKey, int] = {}
    transfers: list[Transfer] = []

    def take(rule: str, pos: int, sink: ElementKey, amount: int) -> None:
        pos %= length
        taken[pos] += amount
        received[sink] = received.get(sink, 0) + amount
        transfers.append(Transfer(rule, ("edge", edges[pos]), sink, amount))

    for pos, h in enumerate(walk):
        # The walk vertex between edge positions pos-1 and pos.
        v = origin[h]
        d = len(graph.rotation[v])
        if d == 2:
            # Short pulls from both incident walk edges, long pulls from the
            # walk edges one step further out.
            take("SubR5", pos - 1, ("vertex", v), THIRD)
            take("SubR5", pos, ("vertex", v), THIRD)
            take("SubR5", pos - 2, ("vertex", v), SIXTH)
            take("SubR5", pos + 1, ("vertex", v), SIXTH)
        elif d == 3:
            # A 3-face at a degree-3 walk vertex always shares one of the
            # two walk edges at that corner (the three corners of a
            # 3-vertex pairwise share an edge).
            after = graph.opposite_face(h)
            before = graph.opposite_face(walk[pos - 1])
            if after != face and _is_three_face(graph, after):
                take("SubR3", pos - 1, ("vertex", v), THIRD)
                take("SubR3", pos + 1, ("vertex", v), SIXTH)
            elif before != face and _is_three_face(graph, before):
                take("SubR3", pos, ("vertex", v), THIRD)
                take("SubR3", pos - 2, ("vertex", v), SIXTH)
            else:
                take("SubR4", pos - 1, ("vertex", v), QUARTER)
                take("SubR4", pos, ("vertex", v), QUARTER)

    for pos, h in enumerate(walk):
        g3 = graph.opposite_face(h)
        if g3 == face or not _is_three_face(graph, g3):
            continue
        take("SubR1", pos, ("face", g3), THIRD)
        # An adjacent 3-face on one of g3's flanks pulls an extra 1/6 from
        # the walk edge on that side of the shared edge.  A 3-face is a
        # triangle, so its only half-edge on the shared edge is twin[h].
        a = origin[h]
        for hg in graph.faces[g3]:
            if hg == graph.twin[h]:
                continue
            other = graph.opposite_face(hg)
            if other != g3 and _is_three_face(graph, other):
                flank_has_a = a in (origin[hg], target[hg])
                take("SubR2", pos - 1 if flank_has_a else pos + 1, ("face", g3), SIXTH)

    edge_final = dict(seed)
    for e, t in zip(edges, taken):
        edge_final[e] -= t

    audit = FaceAudit(
        face=face,
        length=length,
        residual=ONE * (length - 4) - THIRD * length,
        edge_seed=seed,
        edge_final=edge_final,
        sink_received=received,
        transfers=tuple(transfers),
    )
    assert audit.conserved()
    return audit


@dataclass(frozen=True)
class FaceReconciliation:
    """Audit receipts versus rule draws, per sink, for one big face."""

    face: int
    ok: bool
    audit_received: dict[ElementKey, int]
    rule_draws: dict[ElementKey, int]
    mismatched: tuple[ElementKey, ...]


def reconcile_face(graph: PlaneGraph, face: int) -> FaceReconciliation:
    """Check that what each sink collects from the face's edges under the
    sub-rules equals what it draws from the face under the global rules."""
    audit = edge_level_audit(graph, face)
    draws: dict[ElementKey, int] = {}
    for h in graph.faces[face]:
        for sink in (("vertex", graph.origin[h]), ("face", graph.opposite_face(h))):
            draw = _rule_draw(graph, sink)
            if draw is not None:
                draws[sink] = draws.get(sink, 0) + draw[1]
    keys = set(audit.sink_received) | set(draws)
    mismatched = tuple(
        sorted(k for k in keys if audit.sink_received.get(k, 0) != draws.get(k, 0))
    )
    return FaceReconciliation(
        face=face,
        ok=not mismatched,
        audit_received=audit.sink_received,
        rule_draws=draws,
        mismatched=mismatched,
    )


# -- final audit ---------------------------------------------------------------


@dataclass(frozen=True)
class NegativeElement:
    kind: str  # "vertex" | "face" | "edge"
    ident: Union[int, tuple]  # vertex id, face index, or (face, (u, v))
    charge: int


@dataclass(frozen=True)
class FinalAudit:
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
        audit = edge_level_audit(graph, i)
        reconciliation_ok = (
            reconciliation_ok
            and audit.conserved()
            and audit.residual
            == ONE * (audit.length - 4) - sum(audit.edge_seed.values())
            and audit.residual >= 0
        )
        for e, c in audit.negative_edges():
            negatives.append(NegativeElement("edge", (i, e), c))
    return FinalAudit(
        negatives=tuple(negatives),
        reconciliation_ok=reconciliation_ok,
        state=state,
    )
