"""Mechanical verification of reducible configurations.

A configuration removes a vertex set X (with edge set Y) and recolors a
vertex set R; the remaining graph keeps vertex set R + P and edge set Q.
The reduction is valid when every edge at X lies in Y, every square-graph
edge lost by the removal touches X + R, the removal genuinely shrinks the
graph, and the completed square of the core, the complete graph on X + R,
is choosable from lists of size f(v) = 12 - |N2(v) ∩ P|, which Hall's rule
decides exactly (``choosability.clique_f_choosable``; proof in its docstring).

Each catalog entry is checked once, on its generic instance, and the
verdict holds in every host graph that contains the configuration:

- Conditions 1 and 2 and ``smaller_ok`` read only X, Y and the edges at X,
  and the configuration fixes all three, so they carry over to any host.
- The instance has full degree around its core: every core vertex and
  every neighbour of the core has its spec degree.  So a host's N2(v) for
  a core vertex v is an image of the instance's, with no more outsiders,
  and its demands can only be higher.  A host may also add square edges
  between core vertices, but the complete core square is the worst case.
  Higher demands on a subgraph of a choosable graph stay choosable.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

from .catalog import Configuration, StructuralCase, catalog, get_configuration
from .catalog import spec_clauses, spec_degrees
from .choosability import MAX_DEMAND, clique_f_choosable
from .errors import OverlappingRoles, UnknownEdgeInY
from .matcher import MatchEmbedding, find_configuration
from .plane_graph import FORBIDDEN_CYCLE, SimpleGraph, check_vertex, has_cycle_of_length
from .square import induced_subgraph, neighbors_within2, square


class ReductionReport(NamedTuple):
    condition1_ok: bool  # every edge at a removed vertex is itself removed
    condition2_ok: bool  # lost square-edges all touch the removed/recolored core
    smaller_ok: bool  # something was removed
    computed_f: Mapping[int, int]
    induced_square: SimpleGraph
    choosable: bool  # on the completed core square
    f_matches_expected: Optional[bool]

    @property
    def passed(self) -> bool:
        return (
            self.condition1_ok
            and self.condition2_ok
            and self.smaller_ok
            and self.choosable
            and self.f_matches_expected is not False
        )


class CatalogEntryResult(NamedTuple):
    config_id: str
    kind: str
    passed: bool
    report: Optional[ReductionReport]
    notes: tuple[str, ...]


def f_values(
    graph: SimpleGraph,
    x: Iterable[int],
    r: Iterable[int],
) -> dict[int, int]:
    """List-size demands for the core: 12 minus the distance-<=2 outsiders."""
    x = frozenset(x)
    r = frozenset(r)
    core = x | r
    for v in core:
        check_vertex(v, graph.vertex_count)
    if x & r:
        raise OverlappingRoles(f"X and R overlap on {sorted(x & r)}")
    return {
        v: MAX_DEMAND - len(neighbors_within2(graph, v) - core)
        for v in sorted(core)
    }


def verify_reduction(
    graph: SimpleGraph,
    x: Iterable[int],
    r: Iterable[int],
    y: Iterable[frozenset[int]],
    expected_f: Optional[Mapping[int, int]] = None,
) -> ReductionReport:
    x = frozenset(x)
    r = frozenset(r)
    computed = f_values(graph, x, r)  # checks the roles before Y
    entries = []
    for e in y:
        try:
            e = tuple(e)
        except TypeError:  # not a collection of vertices at all
            raise UnknownEdgeInY(e) from None
        if len(e) != 2 or not graph.has_edge(*e):
            raise UnknownEdgeInY(e)
        entries.append(e)
    y = frozenset(map(frozenset, entries))

    core = x | r
    condition1_ok = all(
        frozenset((v, u)) in y for v in x for u in graph.neighbors(v)
    )

    kept_edges = [
        (u, v)
        for u, v in graph.edges()
        if frozenset((u, v)) not in y and u not in x and v not in x
    ]
    remainder = SimpleGraph(graph.vertex_count, kept_edges)
    g_sq = square(graph)
    h_sq = square(remainder)
    condition2_ok = all(
        u in core or v in core
        for u, v in g_sq.edges()
        if not h_sq.has_edge(u, v)
    )

    return ReductionReport(
        condition1_ok=condition1_ok,
        condition2_ok=condition2_ok,
        smaller_ok=bool(x or y),
        computed_f=computed,
        induced_square=induced_subgraph(g_sq, core)[0],
        choosable=clique_f_choosable(computed.values()),
        f_matches_expected=None if expected_f is None else dict(expected_f) == computed,
    )


def _reducible_result(config: Configuration) -> CatalogEntryResult:
    """A reducible entry passes when its report passes on the generic
    instance and every core vertex and every neighbour of the core there
    has its spec degree."""
    report = verify_reduction(
        config.pattern,
        config.removed,
        config.recolored,
        config.dropped_edges,
        expected_f=config.expected_f_by_vertex(),
    )
    notes = []
    if report.choosable and not report.induced_square.is_complete():
        notes.append("choosable with the missing core pair added")
    g, core = config.pattern, config.core()
    want = spec_degrees(spec_clauses(config.config_id), config.roles, g.vertex_count)
    full = all(g.degree(v) == want[v] for v in core.union(*map(g.neighbors, core)))
    if not full:
        notes.append("FAIL: a vertex around the core lacks its spec degree")
    passed = report.passed and full
    return CatalogEntryResult(config.config_id, config.kind, passed, report, tuple(notes))


def labelled_matches(case: StructuralCase, config_id: str) -> list[MatchEmbedding]:
    """The matches of an entry in a case's patch that bind only the case's
    named roles and its witness faces."""
    named = set(case.roles.values())
    return [
        m
        for m in find_configuration(case.patch, config_id)
        if {v for _, v in m.roles} <= named and set(m.faces) <= case.witness
    ]


def _structural_result(
    config: Configuration, reducible: Mapping[str, CatalogEntryResult]
) -> CatalogEntryResult:
    """A structural entry passes when each case's cited reducible entry, if
    it has one (looked up in ``reducible``), passes and its forced patch, if
    it has one, contains a labelled match of that entry or, citing none, a
    cycle of length ``FORBIDDEN_CYCLE``."""
    notes = []
    ok = True
    for case in config.cases:
        if case.cite is not None:
            case_ok = case.cite in reducible and reducible[case.cite].passed
            if case.patch is not None:
                case_ok = case_ok and bool(labelled_matches(case, case.cite))
        else:
            case_ok = case.patch is None or has_cycle_of_length(case.patch, FORBIDDEN_CYCLE)
        ok = ok and case_ok
        notes.append(f"{'ok' if case_ok else 'FAIL'}: {case.description}")
    return CatalogEntryResult(config.config_id, config.kind, ok, None, tuple(notes))


def verify_entry(config_id: str) -> CatalogEntryResult:
    """Verify one catalog entry, the one per-entry path: a reducible entry
    on its generic instance, a structural entry together with the reducible
    entries its cases cite."""
    config = get_configuration(config_id)
    if config.kind == "reducible":
        return _reducible_result(config)
    cited = dict.fromkeys(case.cite for case in config.cases if case.cite is not None)
    return _structural_result(
        config, {c: _reducible_result(get_configuration(c)) for c in cited}
    )


def verify_catalog() -> list[CatalogEntryResult]:
    """Verify every catalog entry, each reducible one once; failures are
    reported, never raised."""
    configs = catalog()
    reducible = {
        c.config_id: _reducible_result(c) for c in configs if c.kind == "reducible"
    }
    return [
        reducible[c.config_id]
        if c.kind == "reducible"
        else _structural_result(c, reducible)
        for c in configs
    ]
