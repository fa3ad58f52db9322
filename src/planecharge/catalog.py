"""The configuration catalog.

Each configuration is stated once, as a spec in ``SPEC_TEXT``, and the two
structural entries that have no fixed shape add one predicate each in
``PREDICATES``.  The matcher compiles both into one search and one check
per entry, and this module builds from the same spec each reducible
entry's generic instance: the forbidden structure with nothing
overlapping and every vertex within distance two of the removed/recolored
core completed to maximum degree 4.  Farther vertices are left out, since
only vertices within distance two count in the demands.

An instance is built in three steps.

- Fragment: the spec's roles, its ``edge`` clauses and its witness faces.
  A witness face is a cycle through the roles that ``on``, ``share`` and
  ``meet`` put on it, in id order, and then through its free vertices: new
  vertices that fill the face up to its length.
- Embedding: the first of ``corpus.iter_planar_embeddings`` in which
  every witness cycle is a face; the search stops there.
- Completion: every core vertex, and every vertex at distance one from the
  core, gets new pad neighbours up to its spec degree (4 if the spec gives
  none).  A core vertex's pads (stems) are at distance one, so they are
  completed in turn; the other pads are leaves.  A vertex's pads go into its
  first corner outside the witness faces.

Vertex ids follow the build: roles in spec order, a witness face's free
vertices right after the last of its roles, then the pads of each vertex in
id order.  ``_REDUCTIONS`` gives the rest of an entry by role name.

Structural entries (disconnectedness and the two face-adjacency bans) have
no generic instance; they record derivation cases that lean on other
entries or on the forbidden 5-cycle, each with a concrete forced patch
where one can be built.  A case states its structure as the clauses it adds
to its entry's spec, and its patch is that spec's fragment, embedded as an
instance is but with no pads.
"""

from __future__ import annotations

from functools import lru_cache
from operator import ne
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .corpus import iter_planar_embeddings
from .errors import BadSpecClause, UnknownConfig
from .plane_graph import MAX_DEGREE, PlaneGraph, build_from_rotation

# A spec is a list of clauses separated by ``;``:
#
# - ``role NAME [DEGREE]``: a vertex, of exactly that degree (1..MAX_DEGREE)
#   if one is given;
# - ``face NAME LENGTH``: a witness face of exactly that length (at least 3);
# - ``edge A B`` / ``nonedge A B``: roles A and B are adjacent, or not;
# - ``on R F`` / ``off R F``: role R lies on face F, or not;
# - ``share F G A B``: the edge between roles A and B lies on faces F and G;
# - ``meet F G R``: faces F and G have exactly the vertex R in common;
# - ``lt X Y``: a tie-break, the id of X is below that of Y.
#
# No name is declared twice.  Roles are distinct vertices and faces are
# distinct faces.  The order of the entries is the catalog order, which is
# also the matcher's scan order.
SPEC_TEXT = {
    "conn": "",
    "no1v": "role leaf 1",
    "no2v3f": "face f 3; role deg2 2; on deg2 f",
    "no2v4f": "face f 4; role deg2 2; on deg2 f",
    "no22v": "role deg2_a 2; role deg2_b 2; edge deg2_a deg2_b; lt deg2_a deg2_b",
    "no23v": "role deg2 2; role deg3 3; edge deg2 deg3",
    "no33v": "role deg3_a 3; role deg3_b 3; edge deg3_a deg3_b; lt deg3_a deg3_b",
    "no242v": "role deg2_a 2; role middle 4; role deg2_b 2; edge deg2_a middle;"
    " edge middle deg2_b; nonedge deg2_a deg2_b; lt deg2_a deg2_b",
    "no243v": "role deg2 2; role middle 4; role deg3 3; edge deg2 middle;"
    " edge middle deg3; nonedge deg2 deg3",
    "no2v_3f": "face f 3; role anchor 4; role deg2 2; on anchor f;"
    " edge deg2 anchor; off deg2 f",
    "no3v_33f": "face fa 3; role deg3 3; role shared_end; face fb 3; lt fa fb;"
    " share fa fb deg3 shared_end",
    "no333f": "face f 3",
    "no34f": "face f 3; role shared_u; role shared_v; face g 4;"
    " share f g shared_u shared_v; lt shared_u shared_v",
    "no3v_44f": "face fa 4; role deg3 3; role shared_end; face fb 4; lt fa fb;"
    " share fa fb deg3 shared_end",
    "no3v3f3f": "face f 3; role deg3 3; role shared_a; role shared_b; face g 3;"
    " on deg3 f; off deg3 g; share f g shared_a shared_b; lt shared_a shared_b",
    "no3v3f_3f": "face f 3; role deg3 3; role pivot; face g 3; on deg3 f;"
    " meet f g pivot",
    "no3v_3f3v": "face f 3; role anchor 4; role deg3_on 3; role deg3_off 3;"
    " on anchor f; on deg3_on f; edge deg3_off anchor; off deg3_off f",
    "no3v_m3f3f": "face fa 3; role near_end; role far_end; face fb 3; role deg3 3;"
    " lt fa fb; share fa fb near_end far_end; edge deg3 near_end;"
    " off deg3 fa; off deg3 fb",
    "no2v__m3f3f": "face fa 3; role near_end; role far_end; face fb 3;"
    " role middle 4; role deg2 2; lt fa fb; share fa fb near_end far_end;"
    " edge near_end middle; edge middle deg2; off middle fa; off middle fb;"
    " off deg2 fa; off deg2 fb",
}


def _disconnected(g: PlaneGraph, faces: tuple) -> Optional[tuple]:
    """conn: the host itself is the match when it is disconnected."""
    return None if g.is_connected() else ()


def _three_face_partners(g: PlaneGraph, faces: tuple) -> Optional[tuple]:
    """no333f: the other 3-faces across the edges of 3-face ``faces[0]``,
    one per shared edge and sorted, when there are at least two."""
    fi = faces[0]
    partners = sorted(
        fj
        for fj in map(g.opposite_face, g.faces[fi])
        if fj != fi and g.face_length(fj) == 3
    )
    return tuple(partners) if len(partners) >= 2 else None


# Per entry without a fixed shape, a predicate over a host and the faces its
# spec binds: a match's trailing faces, or None when there is no match.
PREDICATES = {"conn": _disconnected, "no333f": _three_face_partners}

# Per reducible entry, by role name: the removed set X, the recolored set R,
# the role pair that Y drops besides every edge at X, and the demand of each
# core role.  ``reducibility`` checks every entry the same way: Hall's rule
# on these demands decides the completed square of its core.
_REDUCTIONS = {
    "no1v": ("leaf", "", "", {"leaf": 8}),
    "no2v3f": ("deg2", "", "", {"deg2": 6}),
    "no2v4f": ("deg2", "", "", {"deg2": 5}),
    "no22v": ("deg2_a deg2_b", "", "", {"deg2_a": 7, "deg2_b": 7}),
    "no23v": ("", "deg2 deg3", "deg2 deg3", {"deg2": 6, "deg3": 3}),
    "no33v": ("", "deg3_a deg3_b", "deg3_a deg3_b", {"deg3_a": 2, "deg3_b": 2}),
    "no242v": ("deg2_a deg2_b", "middle", "", {"deg2_a": 6, "middle": 2, "deg2_b": 6}),
    "no243v": ("deg2", "middle deg3", "", {"deg2": 6, "middle": 1, "deg3": 2}),
    "no2v_3f": ("deg2", "anchor", "", {"anchor": 1, "deg2": 5}),
    "no3v_33f": ("", "deg3", "deg3 shared_end", {"deg3": 4}),
    "no3v_44f": ("", "deg3", "deg3 shared_end", {"deg3": 2}),
    "no3v3f3f": ("", "shared_a shared_b", "shared_a shared_b", {"shared_a": 2, "shared_b": 2}),
    "no3v3f_3f": ("", "deg3 pivot", "deg3 pivot", {"deg3": 3, "pivot": 2}),
    "no3v_3f3v": ("", "anchor deg3_on", "anchor deg3_on", {"anchor": 1, "deg3_on": 3}),
    "no3v_m3f3f": ("", "near_end far_end", "near_end far_end", {"near_end": 2, "far_end": 1}),
    # near_end is the end next to middle, so it has fewer outsiders.
    "no2v__m3f3f": ("", "near_end far_end middle deg2", "near_end far_end",
                    {"near_end": 3, "far_end": 2, "middle": 1, "deg2": 6}),
}

CATALOG_ORDER = tuple(SPEC_TEXT)
REDUCIBLE_IDS = tuple(c for c in CATALOG_ORDER if c in _REDUCTIONS)
STRUCTURAL_IDS = tuple(c for c in CATALOG_ORDER if c not in _REDUCTIONS)


# The kind of name each argument of a constraint clause takes; ``lt``
# takes two names of one kind.
_ARGUMENTS = {
    "edge": ("role", "role"),
    "nonedge": ("role", "role"),
    "on": ("role", "face"),
    "off": ("role", "face"),
    "share": ("face", "face", "role", "role"),
    "meet": ("face", "face", "role"),
}

# Per declaration, how many sizes may follow its name, and their range.
_SIZES = {"role": ((0, 1), 1, MAX_DEGREE), "face": ((1,), 3, float("inf"))}


def _split(text: str) -> list[list[str]]:
    return [c.split() for c in text.split(";") if c.strip()]


def spec_clauses(config_id: str, extra: str = "") -> list[list[str]]:
    """The clauses of a configuration's spec and then those of ``extra``,
    each split into its words.  Raises BadSpecClause at the first clause
    that declares a name twice or with a size the grammar does not allow,
    names a role or face no earlier clause declares, or names one where
    the other kind belongs."""
    clauses = _split(SPEC_TEXT[config_id] + ";" + extra)
    kinds: dict[str, str] = {}
    for clause in clauses:
        keyword, *args = clause
        if keyword in _SIZES:
            counts, least, most = _SIZES[keyword]
            ok = args and args[0] not in kinds and len(args) - 1 in counts and all(
                s.isdecimal() and least <= int(s) <= most for s in args[1:]
            )
            if ok:
                kinds[args[0]] = keyword
        else:
            if keyword == "lt" and args:
                want = 2 * (kinds.get(args[0], "role"),)
            else:
                want = _ARGUMENTS.get(keyword, ())
            ok = len(args) == len(want) > 0 and not any(map(ne, map(kinds.get, args), want))
        if not ok:
            raise BadSpecClause(config_id, " ".join(clause))
    return clauses


# The roles of an entry or case that names none: empty and read-only.
_NO_ROLES: Mapping[str, int] = MappingProxyType({})


class StructuralCase(NamedTuple):
    """One branch of a structural entry's derivation.

    The forced ``patch`` is built from the entry's spec and the case's
    clauses; ``roles`` gives its named roles' ids and ``witness`` the
    indices of its witness faces.  The patch must contain a labelled match
    of the first cited entry, one that binds only named roles and witness
    faces, or, when the case cites none, a 5-cycle (so the structure cannot
    occur in a 5-cycle-free graph).  A case without a patch is pure
    induction.
    """

    description: str
    cites: tuple[str, ...] = ()
    patch: Optional[PlaneGraph] = None
    roles: Mapping[str, int] = _NO_ROLES
    witness: frozenset[int] = frozenset()


class Configuration(NamedTuple):
    """One catalog entry: pattern, removal/recoloring roles, expected demands."""

    config_id: str
    kind: str  # "reducible" | "structural"
    pattern: Optional[PlaneGraph]
    roles: Mapping[str, int] = _NO_ROLES
    removed: frozenset[int] = frozenset()  # X: vertices deleted with their edges
    recolored: frozenset[int] = frozenset()  # R: vertices whose color is redone
    dropped_edges: frozenset[frozenset[int]] = frozenset()  # Y
    expected_f: Optional[Mapping[str, int]] = None  # keyed by role name
    cases: tuple[StructuralCase, ...] = ()

    def core(self) -> frozenset[int]:
        return self.removed | self.recolored

    def expected_f_by_vertex(self) -> dict[int, int]:
        return {self.roles[name]: f for name, f in self.expected_f.items()}


def spec_degrees(
    clauses: list[list[str]], roles: Mapping[str, int], n: int
) -> list[int]:
    """The spec degree of each of n instance vertices: its role's degree
    clause, or MAX_DEGREE for a role without one and for every vertex that
    has no role (free face vertices and pads)."""
    want = [MAX_DEGREE] * n
    for kind, *args in clauses:
        if kind == "role" and args[1:]:
            want[roles[args[0]]] = int(args[1])
    return want


def _fragment(
    clauses: list[list[str]],
) -> tuple[dict[str, int], list[int], list[list[int]], list[set[int]]]:
    """The roles' ids, every fragment vertex's spec degree, the witness
    cycles and the adjacency of the fragment of a spec's clauses."""
    names: list[str] = []
    on: dict[str, set[str]] = {}  # witness face -> the roles on it
    length: dict[str, int] = {}
    edges = []
    for kind, *args in clauses:
        if kind == "role":
            names.append(args[0])
        elif kind == "face":
            on[args[0]], length[args[0]] = set(), int(args[1])
        elif kind == "edge":
            edges.append(args)
        elif kind == "on":
            on[args[1]].add(args[0])
        elif kind in ("share", "meet"):
            for face in args[:2]:
                on[face].update(args[2:])

    ids: dict[str, int] = {}
    n = 0
    cycles: list[list[int]] = []
    for role in names:
        ids[role] = n
        n += 1
        for face, roles in on.items():
            if role in roles and roles <= ids.keys():
                free = range(n, n + length[face] - len(roles))
                n = free.stop
                cycles.append(sorted(ids[r] for r in roles) + list(free))

    adjacency: list[set[int]] = [set() for _ in range(n)]
    pairs = [(ids[a], ids[b]) for a, b in edges]
    pairs += [(c[i - 1], c[i]) for c in cycles for i in range(len(c))]
    for a, b in pairs:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return ids, spec_degrees(clauses, ids, n), cycles, adjacency


def _edges_of(pairs) -> frozenset[frozenset[int]]:
    return frozenset(map(frozenset, pairs))


def _embed(
    adjacency: list[set[int]], cycles: list[list[int]]
) -> tuple[PlaneGraph, set[int]]:
    """The first planar embedding in which every witness cycle is a face,
    with the indices of those faces, one per witness cycle.  A cycle bounds
    two faces only when the fragment is that cycle alone; it is the first
    of them, or both if it is listed twice."""
    wanted = [_edges_of(zip(c, c[1:] + c[:1])) for c in cycles]
    for graph in iter_planar_embeddings(tuple(map(frozenset, adjacency))):
        sides: dict[frozenset, list[int]] = {edges: [] for edges in wanted}
        for i, walk in enumerate(graph.faces):
            edges = _edges_of((graph.origin[h], graph.target[h]) for h in walk)
            if len(edges) == len(walk) and edges in sides:
                sides[edges].append(i)
        first = {i for e, faces in sides.items() for i in faces[: wanted.count(e)]}
        if len(first) == len(wanted):
            return graph, first
    raise ValueError("no embedding has every witness cycle as a face")


def _outer_corner(graph: PlaneGraph, witness: set[int], v: int) -> int:
    """The index in v's rotation right after the first neighbour u whose
    corner (the one that follows u) lies outside the witness faces."""
    nbrs = graph.rotation[v]
    return next(
        (
            i + 1
            for i, u in enumerate(nbrs)
            if graph.face_of[graph.half_edge(u, v)] not in witness
        ),
        len(nbrs),
    )


def _reducible(config_id: str) -> Configuration:
    removed, recolored, pair, expected = _REDUCTIONS[config_id]
    ids, want, cycles, adjacency = _fragment(spec_clauses(config_id))
    graph, witness = _embed(adjacency, cycles)
    x = frozenset(ids[name] for name in removed.split())
    r = frozenset(ids[name] for name in recolored.split())
    core = x | r

    rotation = [list(nbrs) for nbrs in graph.rotation]
    near = {u for v in core for u in adjacency[v]} - core
    dist = dict.fromkeys(core, 0) | dict.fromkeys(near, 1)
    v = 0
    while v < len(rotation):  # pads join the queue as they are made
        if v in dist:
            pads = range(len(rotation), len(rotation) + want[v] - len(rotation[v]))
            at = _outer_corner(graph, witness, v) if v < graph.vertex_count else 1
            rotation[v][at:at] = pads
            for p in pads:
                rotation.append([v])
                want.append(MAX_DEGREE)
                if dist[v] == 0:
                    dist[p] = 1
        v += 1

    dropped = {frozenset((v, u)) for v in x for u in rotation[v]}
    if pair:
        dropped.add(frozenset(ids[r] for r in pair.split()))
    return Configuration(
        config_id=config_id,
        kind="reducible",
        pattern=build_from_rotation(rotation),
        roles=ids,
        removed=x,
        recolored=r,
        dropped_edges=frozenset(dropped),
        expected_f=expected,
    )


# Per structural entry, its derivation cases: (description, cited entries,
# the clauses the case adds to the entry's own spec, or None for a case that
# has no patch).  A patch is the fragment of the entry's spec and the case's
# clauses, embedded with its witness cycles as faces and left unpadded.
_STRUCTURAL = {
    # The proof's one fact: a disconnected graph's square has no edge between
    # components, so list colorings of the components' squares combine.
    "conn": (
        ("components are strictly smaller graphs and can be colored one at a"
         " time without interaction", (), None),
    ),
    "no333f": (
        ("two edges shared with a single 3-face force a degree-2 vertex on a"
         " 3-face", ("no2v3f",),
         "role u; role wedge; role w; face g 3; share f g u wedge; share f g wedge w"),
        ("two distinct non-adjacent 3-faces leave a 5-cycle around the three"
         " faces", (),
         "role u; role v; role w; face g 3; face h 3; share f g u v; share f h v w"),
        ("two distinct adjacent 3-faces force a 3-vertex on two 3-faces",
         ("no3v_33f",),
         "role u; role v; role w; face g 3; face h 3; share f g u v; share f h v w;"
         " role x; share g h v x"),
    ),
    "no34f": (
        ("two edges shared with the same 4-face force a degree-2 vertex on a"
         " 3-face", ("no2v3f",), "role wedge; share f g shared_v wedge"),
        ("a single shared edge leaves a 5-cycle around the two faces", (), ""),
    ),
}


def _structural(config_id: str) -> Configuration:
    cases = []
    for description, cites, extra in _STRUCTURAL[config_id]:
        if extra is None:
            cases.append(StructuralCase(description, cites))
            continue
        ids, _, cycles, adjacency = _fragment(spec_clauses(config_id, extra))
        patch, witness = _embed(adjacency, cycles)
        cases.append(
            StructuralCase(description, cites, patch, ids, frozenset(witness))
        )
    return Configuration(
        config_id=config_id, kind="structural", pattern=None, cases=tuple(cases)
    )


@lru_cache(maxsize=None)
def get_configuration(config_id: str) -> Configuration:
    if config_id in _REDUCTIONS:
        return _reducible(config_id)
    if config_id in _STRUCTURAL:
        return _structural(config_id)
    raise UnknownConfig(config_id)


def catalog() -> list[Configuration]:
    return [get_configuration(c) for c in CATALOG_ORDER]
