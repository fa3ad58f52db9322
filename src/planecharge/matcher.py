"""Detect catalog configurations inside a concrete plane graph.

Each configuration is stated once, as a declarative spec in
``catalog.SPEC_TEXT``, which also gives the clause grammar; the catalog
builds each generic instance from the same spec.  One generic backtracking
search finds every embedding of a spec, and one generic validator re-checks
a reported embedding by running the same spec with its roles and faces
fixed.  Degree requirements follow the forbidden structures' statements,
with derived degrees (for example the degree-4 middle of a 2-2 path)
required exactly; the degenerate variants those requirements exclude are
owned by earlier entries in the catalog scan order, so the union over the
order stays exhaustive.

The search binds roles and faces in the order the spec lists them, and a
report lists the faces in that order.  Each slot draws its candidates from
the first constraint that ties it to a slot already bound (the neighbours
of a role, the vertices of a face, the faces at a vertex, the two faces
beside an edge), else from every vertex of its degree or every face of its
length; so a spec that lists a 3-face first is done at once on a
triangle-free host.
The two structural entries that have no fixed shape add one predicate each,
which returns the report's trailing faces, or None when there is no match.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .catalog import CATALOG_ORDER, spec_clauses
from .errors import UnknownConfig
from .plane_graph import PlaneGraph


class MatchEmbedding(NamedTuple):
    config_id: str
    roles: tuple[tuple[str, int], ...]  # role name -> host vertex, sorted by name
    faces: tuple[int, ...]  # witness face indices

    def role(self, name: str) -> int:
        return dict(self.roles)[name]


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


_PREDICATES = {"conn": _disconnected, "no333f": _three_face_partners}


# -- spec compilation ----------------------------------------------------------
#
# A slot is (is_face, index): the role or face is read as ``r[index]`` or
# ``f[index]``.  Checks and candidate sources take ``(g, r, f)``.


def _flank(g: PlaneGraph, u: int, w: int) -> tuple[int, ...]:
    """The faces on the two sides of edge uw, or none if uw is no edge."""
    if w not in g.rotation[u]:
        return ()
    h = g.half_edge(u, w)
    return (g.face_of[h], g.opposite_face(h))


def _shares(g: PlaneGraph, fa: int, fb: int, u: int, w: int) -> bool:
    sides = _flank(g, u, w)
    return fa in sides and fb in sides


def _check(kind: str, slots: list) -> Callable:
    """The test of one constraint clause over its slots."""
    i = [index for _, index in slots]
    if kind in ("edge", "nonedge"):
        a, b, want = i[0], i[1], kind == "edge"
        return lambda g, r, f: (r[b] in g.rotation[r[a]]) == want
    if kind in ("on", "off"):
        a, b, want = i[0], i[1], kind == "on"
        return lambda g, r, f: (r[a] in g.face_vertex_set(f[b])) == want
    if kind == "share":
        return lambda g, r, f: _shares(g, f[i[0]], f[i[1]], r[i[2]], r[i[3]])
    if kind == "meet":
        return lambda g, r, f: g.face_vertex_set(f[i[0]]) & g.face_vertex_set(
            f[i[1]]
        ) == {r[i[2]]}
    if kind == "lt":
        a, b = i
        if slots[0][0]:
            return lambda g, r, f: f[a] < f[b]
        return lambda g, r, f: r[a] < r[b]
    raise ValueError(f"unknown spec clause {kind!r}")


def _source(kind: str, slots: list, slot: tuple, bound: set) -> Optional[Callable]:
    """Candidates for ``slot`` that one constraint implies from its bound
    slots: every host element that can satisfy the constraint is among them."""
    if slot not in slots:
        return None
    faces = [i for is_face, i in slots if is_face and (True, i) in bound]
    roles = [i for is_face, i in slots if not is_face and (False, i) in bound]
    if not slot[0]:
        if faces and kind in ("on", "share", "meet"):
            return lambda g, r, f: g.face_vertex_set(f[faces[0]])
        if roles and kind in ("edge", "share"):
            return lambda g, r, f: g.rotation[r[roles[0]]]
    elif kind == "share" and len(roles) == 2:
        return lambda g, r, f: _flank(g, r[roles[0]], r[roles[1]])
    elif roles and kind in ("on", "meet"):
        return lambda g, r, f: set(g.faces_at(r[roles[0]]))
    return None


def _every(is_face: bool, size: Optional[int]) -> Callable:
    """The source of a slot tied to no bound slot: all elements of its size."""
    if is_face:
        return lambda g, r, f: [i for i, w in enumerate(g.faces) if len(w) == size]
    return lambda g, r, f: [
        v for v, nbrs in enumerate(g.rotation) if size is None or len(nbrs) == size
    ]


class _Spec(NamedTuple):
    names: tuple[str, ...]  # role names, sorted as in a report
    face_count: int
    # per slot, in binding order: (is_face, index, exact size, source, checks)
    steps: tuple[tuple[bool, int, Optional[int], Callable, tuple], ...]
    predicate: Optional[Callable]


def _compile(clauses: list[list[str]], predicate: Optional[Callable]) -> _Spec:
    """Give each slot its source and the checks it completes; roles are
    indexed in name order, faces in the order they are listed."""
    declared = [c for c in clauses if c[0] in ("role", "face")]
    names = sorted(c[1] for c in declared if c[0] == "role")
    face_names = [c[1] for c in declared if c[0] == "face"]
    slots = {n: (False, i) for i, n in enumerate(names)}
    slots.update({n: (True, i) for i, n in enumerate(face_names)})
    constraints = [
        (c[0], [slots[a] for a in c[1:]])
        for c in clauses
        if c[0] not in ("role", "face")
    ]
    steps = []
    bound: set = set()
    for _, name, *size_arg in declared:
        slot = slots[name]
        size = int(size_arg[0]) if size_arg else None
        sources = [
            src for kind, s in constraints if (src := _source(kind, s, slot, bound))
        ]
        bound.add(slot)
        checks = [
            _check(kind, s) for kind, s in constraints if slot in s and bound >= set(s)
        ]
        source = sources[0] if sources else _every(slot[0], size)
        steps.append((*slot, size, source, tuple(checks)))
    return _Spec(tuple(names), len(face_names), tuple(steps), predicate)


_SPECS = {
    cid: _compile(spec_clauses(cid), _PREDICATES.get(cid)) for cid in CATALOG_ORDER
}


# -- search and validation -----------------------------------------------------


def _extend(g: PlaneGraph, steps: tuple, k: int, bound: tuple, found: list) -> None:
    """Bind slot k and every later one in all ways that pass each slot's
    size, distinctness and constraint checks as it is bound."""
    roles, faces = bound
    is_face, index, size, source, checks = steps[k]
    values, sized = (faces, g.faces) if is_face else (roles, g.rotation)
    for x in source(g, roles, faces):
        # values[index] still holds this slot's previous candidate, which x
        # equals only when a source repeats an element
        if (size is not None and len(sized[x]) != size) or x in values:
            continue
        values[index] = x
        for check in checks:
            if not check(g, roles, faces):
                break
        else:
            if k + 1 < len(steps):
                _extend(g, steps, k + 1, bound, found)
            else:
                found.append((tuple(roles), tuple(faces)))
    values[index] = -1


def _bindings(g: PlaneGraph, spec: _Spec) -> list[tuple[tuple, tuple]]:
    """All (roles, faces) bindings of a spec, trailing faces included."""
    found: list = []
    if spec.steps:
        bound = ([-1] * len(spec.names), [-1] * spec.face_count)
        _extend(g, spec.steps, 0, bound, found)
    else:
        found.append(((), ()))
    if spec.predicate is None:
        return found
    return [
        (roles, faces + tail)
        for roles, faces in found
        if (tail := spec.predicate(g, faces)) is not None
    ]


def _spec_of(config_id: str) -> _Spec:
    try:
        return _SPECS[config_id]
    except KeyError:
        raise UnknownConfig(config_id) from None


def validate_embedding(g: PlaneGraph, emb: MatchEmbedding) -> bool:
    """Re-check every constraint of a reported embedding against the host:
    the spec's size, distinctness and constraint checks, with each role and
    face fixed to the report's."""
    spec = _spec_of(emb.config_id)
    faces = emb.faces
    if len(emb.roles) != len(spec.names) or len(faces) < spec.face_count:
        return False
    roles: list[int] = []
    for (name, v), want in zip(emb.roles, spec.names):
        if name != want or not 0 <= v < g.vertex_count or v in roles:
            return False
        roles.append(v)
    for k, fi in enumerate(faces):
        if not 0 <= fi < g.face_count or (k < spec.face_count and fi in faces[:k]):
            return False
    for is_face, index, size, _, checks in spec.steps:
        if size is not None and size != len(
            g.faces[faces[index]] if is_face else g.rotation[roles[index]]
        ):
            return False
        for check in checks:
            if not check(g, roles, faces):
                return False
    if spec.predicate is None:
        return len(faces) == spec.face_count
    return spec.predicate(g, faces) == faces[spec.face_count :]


# -- public API --------------------------------------------------------------


def find_configuration(g: PlaneGraph, config_id: str) -> list[MatchEmbedding]:
    """All embeddings of one configuration, canonically ordered."""
    spec = _spec_of(config_id)
    matches = []
    # Roles are indexed in name order, so raw bindings sort as the reports do.
    for roles, faces in sorted(set(_bindings(g, spec))):
        emb = MatchEmbedding(config_id, tuple(zip(spec.names, roles)), faces)
        assert validate_embedding(g, emb), f"unsound match {emb}"
        matches.append(emb)
    return matches


def find_any_reducible(g: PlaneGraph) -> Optional[MatchEmbedding]:
    """First match over the fixed catalog order, or None."""
    for config_id in CATALOG_ORDER:
        matches = find_configuration(g, config_id)
        if matches:
            return matches[0]
    return None
