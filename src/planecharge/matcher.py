"""Detect catalog configurations inside a concrete plane graph.

Each configuration is stated once, as a declarative spec in
``catalog.SPEC_TEXT``, which also gives the clause grammar; the catalog
builds each generic instance from the same spec.  When this module is
imported, each spec is compiled into the source of two Python functions:
a search, with one nested ``for`` loop per role or face and each test
written inline at the slot that completes it, and a check, one conjunction
of every test the spec states.  One private step, ``_checked``, runs an
entry's search, then its check on every binding found, and raises if one
fails, also under ``python -O``.  Three readers share it:
``find_configuration`` sorts and wraps every binding, ``find_any_reducible``
stops at the first entry with a binding and wraps only the least, and
``match_summary`` counts every entry's bindings and wraps only the first
match.  ``validate_embedding`` runs the same check on a reported
embedding.  No configuration is named here: every per-entry fact comes from
the catalog.
Degree requirements follow the forbidden structures' statements, with
derived degrees (for example the degree-4 middle of a 2-2 path) required
exactly; the degenerate variants those requirements exclude are owned by
earlier entries in the catalog scan order, so the union over the order
stays exhaustive.

The search binds roles and faces in the order the spec lists them, and a
report lists the faces in that order.  Each slot draws its candidates from
the first constraint that ties it to a slot already bound (the neighbours
of a role, the vertices of a face, the faces at a vertex, the two faces
beside an edge), else from every vertex or face; so a spec that lists a
3-face first is done at once on a triangle-free host.  A constraint that
the slot's candidates all satisfy (``edge`` over a role's neighbours,
``on`` over a face's vertices or a vertex's faces) is left out of the
search, but never out of the check.
An entry's predicate in ``catalog.PREDICATES`` is written into both: the
search keeps a binding, with the predicate's faces appended, only when the
predicate gives faces rather than None, and the check requires exactly
those faces after the spec's, where any other entry lists no more.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .catalog import CATALOG_ORDER, PREDICATES, spec_clauses
from .errors import UnknownConfig
from .plane_graph import PlaneGraph


class MatchEmbedding(NamedTuple):
    config_id: str
    roles: tuple[tuple[str, int], ...]  # role name -> host vertex, sorted by name
    faces: tuple[int, ...]  # witness face indices


# -- spec compilation ----------------------------------------------------------
#
# A slot is (is_face, index), named ``r<index>`` or ``f<index>`` in the
# generated source.  Only those names, sizes parsed by ``int`` and the fixed
# texts below go into that source: no spec word reaches ``compile``.


def _flank(g: PlaneGraph, u: int, w: int) -> tuple[int, ...]:
    """The faces on the two sides of edge uw, or none if uw is no edge.  The
    compiled search and check pass only vertex ids already in range, so the
    half-edge is read off the layout ``PlaneGraph`` documents, without
    ``half_edge``'s argument checks."""
    nbrs = g.rotation[u]
    if w not in nbrs:
        return ()
    h = g._first[u] + nbrs.index(w)
    sides = (g.face_of[h], g.opposite_face(h))
    return sides[:1] if sides[0] == sides[1] else sides


def _shares(g: PlaneGraph, fa: int, fb: int, u: int, w: int) -> bool:
    sides = _flank(g, u, w)
    return fa in sides and fb in sides


# The test of each constraint clause, over the names of its slots in order.
_TESTS = {
    "edge": "{1} in rot[{0}]",
    "nonedge": "{1} not in rot[{0}]",
    "on": "{0} in fvs({1})",
    "off": "{0} not in fvs({1})",
    "share": "_shares(g, {0}, {1}, {2}, {3})",
    "meet": "fvs({0}) & fvs({1}) == {{{2}}}",
    "lt": "{0} < {1}",
}

_HOST = "    rot = g.rotation; faces = g.faces; fvs = g.face_vertex_set"


def _name(slot: tuple) -> str:
    return ("f%d" if slot[0] else "r%d") % slot[1]


def _source(kind: str, slots: list, slot: tuple, bound: list) -> Optional[tuple]:
    """Candidates for ``slot`` that one constraint implies from its bound
    slots (every host element that can satisfy the constraint is among
    them), and whether every candidate satisfies the constraint."""
    if slot not in slots:
        return None
    faces = [_name(s) for s in slots if s[0] and s in bound]
    roles = [_name(s) for s in slots if not s[0] and s in bound]
    if not slot[0]:
        if faces and kind in ("on", "share", "meet"):
            return f"fvs({faces[0]})", kind == "on"
        if roles and kind in ("edge", "share"):
            return f"rot[{roles[0]}]", kind == "edge"
    elif kind == "share" and len(roles) == 2:
        return f"_flank(g, {roles[0]}, {roles[1]})", False
    elif roles and kind in ("on", "meet"):
        return f"set(g.faces_at({roles[0]}))", kind == "on"
    return None


def _tuple(names: list[str]) -> str:
    return "(" + "".join(n + ", " for n in names) + ")"


class _Spec(NamedTuple):
    names: tuple[str, ...]  # role names, sorted as in a report
    search: Callable  # g -> every (roles, faces) binding
    check: Callable  # (g, bindings) -> whether every binding passes every test


def _compile(clauses: list[list[str]], predicate: Optional[Callable]) -> _Spec:
    """Write a spec's search and check as Python source and compile them;
    roles are indexed in name order, faces in the order they are listed.
    At each slot the search skips a candidate of the wrong size, one
    already bound, and one that fails a constraint the slot completes.  The
    check tests the number of faces, every id's range, distinctness, every
    size and every constraint, and then the predicate's faces."""
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
    tests = [_TESTS[kind].format(*map(_name, s)) for kind, s in constraints]
    roles = [_name((False, i)) for i in range(len(names))]
    faces = [_name((True, i)) for i in range(len(face_names))]
    search = ["def search(g):", _HOST, "    found = []"]
    sizes = []
    bound: list = []
    for depth, (_, name, *size_arg) in enumerate(declared, 1):
        slot = slots[name]
        var, table = _name(slot), "faces" if slot[0] else "rot"
        source, implied = f"range(len({table}))", None
        for k, (kind, s) in enumerate(constraints):
            if drawn := _source(kind, s, slot, bound):
                source, implied = drawn[0], k if drawn[1] else None
                break
        rejects = []
        if size_arg:
            size = f"len({table}[{var}]) %s " + str(int(size_arg[0]))
            sizes.append(size % "==")
            rejects.append(size % "!=")
        rejects += [f"{var} == {_name(b)}" for b in bound if b[0] == slot[0]]
        bound.append(slot)
        rejects += [
            f"not ({tests[k]})"
            for k, (_, s) in enumerate(constraints)
            if k != implied and slot in s and all(b in bound for b in s)
        ]
        indent = "    " * depth
        search.append(f"{indent}for {var} in {source}:")
        if rejects:
            search.append(f"{indent}    if {' or '.join(rejects)}:")
            search.append(f"{indent}        continue")
    innermost = "    " * (len(declared) + 1)
    binding = f"{_tuple(roles)}, {_tuple(faces)}"
    if predicate:
        search.append(f"{innermost}tail = pred(g, {_tuple(faces)})")
        search.append(f"{innermost}if tail is not None:")
        search.append(f"{innermost}    found.append(({binding} + tail))")
    else:
        search.append(f"{innermost}found.append(({binding}))")
    search.append("    return found")

    count = len(faces)
    terms = [f"0 <= {v} < V" for v in roles] + [f"0 <= {v} < F" for v in faces]
    for group in (roles, faces):
        terms += [f"{a} != {b}" for i, a in enumerate(group) for b in group[i + 1 :]]
    if predicate:
        tests.append(f"pred(g, f[:{count}]) == f[{count}:]")
    check = ["def check(g, bindings):", _HOST, "    V = len(rot); F = len(faces)"]
    check.append("    for r, f in bindings:")
    check.append(f"        if len(f) {'<' if predicate else '!='} {count}:")
    check.append("            return False")
    if roles:
        check.append(f"        {_tuple(roles)} = r")
    if faces:
        check.append(f"        {_tuple(faces)} = f[:{count}]")
    check.append(f"        if not ({' and '.join(terms + sizes + tests) or 'True'}):")
    check.append("            return False")
    check.append("    return True")

    namespace = {"_flank": _flank, "_shares": _shares, "pred": predicate}
    exec(compile("\n".join(search + check) + "\n", "<spec>", "exec"), namespace)
    return _Spec(tuple(names), namespace["search"], namespace["check"])


_SPECS = {
    cid: _compile(spec_clauses(cid), PREDICATES.get(cid)) for cid in CATALOG_ORDER
}


# -- search and validation -----------------------------------------------------


def _spec_of(config_id: str) -> _Spec:
    try:
        return _SPECS[config_id]
    except KeyError:
        raise UnknownConfig(config_id) from None


def _checked(g: PlaneGraph, config_id: str) -> list[tuple]:
    """The one checked step every reader runs: the spec's search, then its
    check on every binding found, also under ``python -O``.  The bindings
    come unsorted; roles are indexed in name order, so raw bindings sort as
    the reports do, and no candidate source repeats an element, so no
    binding repeats."""
    spec = _SPECS[config_id]
    bindings = spec.search(g)
    if not spec.check(g, bindings):
        bad = min(b for b in bindings if not spec.check(g, [b]))
        raise AssertionError(f"unsound {config_id} match {bad}")
    return bindings


def _embedding(config_id: str, binding: tuple) -> MatchEmbedding:
    roles, faces = binding
    return MatchEmbedding(config_id, tuple(zip(_SPECS[config_id].names, roles)), faces)


def validate_embedding(g: PlaneGraph, emb: MatchEmbedding) -> bool:
    """Re-check a reported embedding against the host: its role names are
    the spec's, every id is an int, and the spec's check holds with each
    role and face fixed to the report's."""
    spec = _spec_of(emb.config_id)
    roles = tuple(v for _, v in emb.roles)
    if tuple(name for name, _ in emb.roles) != spec.names or any(
        type(x) is not int for x in roles + emb.faces
    ):
        return False
    return spec.check(g, [(roles, emb.faces)])


# -- public API --------------------------------------------------------------


def find_configuration(g: PlaneGraph, config_id: str) -> list[MatchEmbedding]:
    """All embeddings of one configuration, canonically ordered.  Every
    binding the search finds is re-checked, also under ``python -O``."""
    names = _spec_of(config_id).names
    return [
        MatchEmbedding(config_id, tuple(zip(names, roles)), faces)
        for roles, faces in sorted(_checked(g, config_id))
    ]


def find_any_reducible(g: PlaneGraph) -> Optional[MatchEmbedding]:
    """First match over the fixed catalog order, or None: the least match
    of the first entry that has one, every binding of which is re-checked."""
    for config_id in CATALOG_ORDER:
        bindings = _checked(g, config_id)
        if bindings:
            return _embedding(config_id, min(bindings))
    return None


def match_summary(g: PlaneGraph) -> tuple[dict[str, int], Optional[MatchEmbedding]]:
    """Every entry's match count, in catalog order, and the match that
    ``find_any_reducible`` gives; every binding counted is re-checked."""
    counts = {}
    first = None
    for config_id in CATALOG_ORDER:
        bindings = _checked(g, config_id)
        counts[config_id] = len(bindings)
        if first is None and bindings:
            first = _embedding(config_id, min(bindings))
    return counts, first
