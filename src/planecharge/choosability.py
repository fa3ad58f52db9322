"""Exact list-coloring and choosability decisions.

An assignment of lists is determined up to color renaming by how many
colors are shared by exactly each subset of vertices ("atoms"), so
choosability could be decided by testing one instantiation of every
atom-size pattern.  Two reductions cut that down, applied recursively to
induced subgraphs G[M]:

* greedy-last: a vertex with more colors than neighbors in G[M] can
  always be colored last, so it is deleted;
* private color: a color in one list only lets its vertex be colored
  last, so once every G[M - v] is known to be f-choosable only the
  singleton-free patterns (atoms of two or more vertices) remain.

Negative answers carry a failing assignment, lifted from the subgraph
where it was found by giving every dropped vertex fresh colors, and
re-verified against the list-coloring search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import MissingList, TooManyVertices
from .square import SimpleGraph

MAX_CHOOSABILITY_VERTICES = 6
MAX_CHROMATIC_VERTICES = 12
MAX_DEMAND = 12


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex color sets; an empty set marks an explicitly infeasible vertex."""

    lists: tuple[frozenset[int], ...]

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "ListAssignment":
        return cls(tuple(frozenset(colors) for colors in lists))

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.lists)


@dataclass(frozen=True)
class DemandFunction:
    """Required list size per vertex, each between 0 and 12."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        for v, f in enumerate(self.values):
            if not isinstance(f, int) or not 0 <= f <= MAX_DEMAND:
                raise ValueError(f"demand f({v})={f} outside 0..{MAX_DEMAND}")

    @classmethod
    def constant(cls, k: int, n: int) -> "DemandFunction":
        return cls((k,) * n)


@dataclass(frozen=True)
class ChoosabilityVerdict:
    choosable: bool
    bad_assignment: Optional[ListAssignment]
    patterns_checked: int


def l_coloring(
    graph: SimpleGraph, assignment: ListAssignment
) -> Optional[dict[int, int]]:
    """A proper coloring picking each vertex's color from its own list.

    Exhaustive backtracking with most-constrained-vertex ordering; returns
    None iff no list-respecting proper coloring exists.
    """
    n = graph.vertex_count
    if len(assignment.lists) < n:
        raise MissingList(len(assignment.lists))
    lists = assignment.lists[:n]
    # Bit i stands for the i-th smallest color, so the search tries each
    # vertex's colors in the order sorted() puts them.
    palette = sorted(set().union(*lists), key=_color_key)
    rank = {c: i for i, c in enumerate(palette)}
    found = _color_bits(
        [_bits(graph._adjacency[v]) for v in range(n)],
        [_bits(rank[c] for c in colors) for colors in lists],
        (1 << n) - 1,
    )
    if found is None:
        return None
    # Each vertex reports the color from its own list (1 and True are one
    # color but print differently).
    coloring = {v: next(c for c in lists[v] if rank[c] == found[v]) for v in range(n)}
    for v in range(n):
        assert coloring[v] in lists[v]
        for u in graph._adjacency[v]:
            assert coloring[u] != coloring[v]
    return coloring


def _color_key(color: object) -> tuple:
    # Agrees with sorted() wherever one list's colors are comparable, and
    # still orders colors of different kinds (numbers, strings) apart.
    if isinstance(color, (int, float)):
        return (0, "", color)
    return (1, type(color).__name__, color)


def _bits(items: Iterable[int]) -> int:
    mask = 0
    for i in items:
        mask |= 1 << i
    return mask


def _color_bits(
    adjacency: Sequence[int], lists: Sequence[int], vertices: int
) -> Optional[list[int]]:
    """The search behind l_coloring, on bitmasks.

    Colors the vertices in the mask ``vertices``; ``adjacency[v]`` and
    ``lists[v]`` are bitmasks of neighbors and of color indices.  Each step
    takes the uncolored vertex with the fewest options (lowest index on
    ties) and tries its colors in ascending order.  Returns each vertex's
    color index (-1 outside ``vertices``), or None if there is no coloring.
    """
    forbidden = [0] * len(lists)
    color = [-1] * len(lists)

    def extend(uncolored: int) -> bool:
        if not uncolored:
            return True
        v, avail, fewest = -1, 0, 0
        rest = uncolored
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            options = lists[w] & ~forbidden[w]
            count = options.bit_count()
            if v < 0 or count < fewest:
                if not count:
                    return False
                v, avail, fewest = w, options, count
                if count == 1:
                    break  # a forced vertex is always a best pick
        uncolored ^= 1 << v
        nbrs = adjacency[v] & uncolored
        while avail:
            bit = avail & -avail
            avail ^= bit
            color[v] = bit.bit_length() - 1
            marked = []
            rest = nbrs
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not forbidden[u] & bit:
                    forbidden[u] |= bit
                    marked.append(u)
            if extend(uncolored):
                return True
            for u in marked:
                forbidden[u] ^= bit
        return False

    return color if extend(vertices) else None


def is_f_choosable(graph: SimpleGraph, demand: DemandFunction) -> ChoosabilityVerdict:
    """Decide whether every assignment with sizes f admits a proper coloring.

    Recurses on induced subgraphs G[M], memoized within the call:

    1. greedy-last: if some v has f(v) > deg(v) in G[M], G[M] is
       f-choosable iff G[M - v] is;
    2. private color: otherwise G[M] is f-choosable iff every G[M - v] is
       and every singleton-free pattern (each color in two or more lists)
       is colorable.

    Singleton-free patterns are enumerated once each up to color renaming
    and tested with one fresh instantiation; ``patterns_checked`` counts
    them over all subproblems.  A failing sub-witness is lifted by giving
    the dropped vertex f(v) fresh colors, and the final witness is
    re-verified.
    """
    n = graph.vertex_count
    if n > MAX_CHOOSABILITY_VERTICES:
        raise TooManyVertices(n, MAX_CHOOSABILITY_VERTICES)
    if len(demand.values) != n:
        raise MissingList(len(demand.values))
    f = demand.values
    adjacency = [_bits(graph._adjacency[v]) for v in range(n)]
    # Per mask: None if G[mask] is f-choosable, else a failing assignment
    # as one color bitmask per vertex (0 outside the mask).
    memo: dict[int, Optional[list[int]]] = {}
    checked = 0

    def solve(mask: int) -> Optional[list[int]]:
        if mask not in memo:
            memo[mask] = decide(mask)
        return memo[mask]

    def decide(mask: int) -> Optional[list[int]]:
        members = [v for v in range(n) if mask >> v & 1]
        greedy = [v for v in members if f[v] > (adjacency[v] & mask).bit_count()]
        for v in greedy[:1] or members:
            bad = solve(mask ^ 1 << v)
            if bad is not None:
                lifted = list(bad)
                fresh = max(m.bit_length() for m in bad)
                lifted[v] = ((1 << f[v]) - 1) << fresh
                return lifted
        if greedy:
            return None
        return singleton_free_failure(mask, members)

    def singleton_free_failure(mask: int, members: list[int]) -> Optional[list[int]]:
        # Atoms of two or more vertices, grouped by their lowest vertex: the
        # lowest vertex with unmet demand takes its colors from its group.
        groups: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
        for v in members:
            higher = mask & ~((2 << v) - 1)
            sub = higher
            while sub:
                atom = sub | 1 << v
                groups[v].append((sub, [u for u in members if atom >> u & 1]))
                sub = (sub - 1) & higher
        remaining = list(f)
        lists = [0] * n
        witness: list[list[int]] = []

        def fill(unmet: int, start: int, color: int) -> bool:
            nonlocal checked
            if not unmet:
                checked += 1
                if _color_bits(adjacency, lists, mask) is None:
                    witness.append(list(lists))
                    return True
                return False
            low = unmet & -unmet
            group = groups[low.bit_length() - 1]
            bit = 1 << color
            for i in range(start, len(group)):
                others, atom = group[i]
                if others & ~unmet:
                    continue
                met = 0
                for u in atom:
                    lists[u] |= bit
                    remaining[u] -= 1
                    if not remaining[u]:
                        met |= 1 << u
                if fill(unmet ^ met, 0 if met & low else i, color + 1):
                    return True
                for u in atom:
                    lists[u] ^= bit
                    remaining[u] += 1
            return False

        fill(_bits(v for v in members if f[v]), 0, 0)
        return witness[0] if witness else None

    bad = solve((1 << n) - 1)
    if bad is None:
        return ChoosabilityVerdict(True, None, checked)
    witness = ListAssignment(
        tuple(frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in bad)
    )
    return _failing_verdict(graph, demand, witness, checked)


def _failing_verdict(
    graph: SimpleGraph,
    demand: DemandFunction,
    witness: ListAssignment,
    checked: int,
) -> ChoosabilityVerdict:
    assert witness.sizes() == demand.values
    assert l_coloring(graph, witness) is None
    return ChoosabilityVerdict(False, witness, checked)


def is_k_choosable(graph: SimpleGraph, k: int) -> ChoosabilityVerdict:
    """Choosability from every assignment of k-element lists."""
    if not 0 <= k <= MAX_DEMAND:
        raise ValueError(f"list size k={k} outside 0..{MAX_DEMAND}")
    return is_f_choosable(graph, DemandFunction.constant(k, graph.vertex_count))


def clique_f_choosable(f_values: Sequence[int]) -> bool:
    """f-choosability of a complete graph, by the distinct-representatives rule.

    A proper list coloring of a clique is a system of distinct
    representatives of the lists, so Hall's condition reduces to: after
    sorting the demands ascending, the i-th smallest must be at least i.
    """
    values = sorted(f_values)
    if not values:
        raise ValueError("empty demand multiset")
    return all(f >= i + 1 for i, f in enumerate(values))


def chromatic_number(graph: SimpleGraph) -> int:
    """Exact chromatic number by canonical backtracking (at most 12 vertices)."""
    n = graph.vertex_count
    if n > MAX_CHROMATIC_VERTICES:
        raise TooManyVertices(n, MAX_CHROMATIC_VERTICES)
    if n == 0:
        return 0
    adjacency = [graph.adjacency(v) for v in range(n)]
    colors = [-1] * n

    def colorable(k: int, v: int, used: int) -> bool:
        if v == n:
            return True
        banned = {colors[u] for u in adjacency[v] if colors[u] >= 0}
        # New colors are introduced in order, killing color-permutation symmetry.
        for c in range(min(used + 1, k)):
            if c in banned:
                continue
            colors[v] = c
            if colorable(k, v + 1, max(used, c + 1)):
                return True
            colors[v] = -1
        return False

    for k in range(1, n + 1):
        if colorable(k, 0, 0):
            return k
    return n
