"""Exact list-coloring and choosability decisions.

An assignment of lists is determined up to color renaming by how many
colors are shared by exactly each subset of vertices ("atoms"), so
choosability could be decided by testing one instantiation of every
atom-size pattern.  Four reductions cut that down, applied recursively
to induced subgraphs G[M]:

* greedy-last: a vertex with more colors than neighbors in G[M] can
  always be colored last, so it is deleted;
* private color: a color in one list only lets its vertex be colored
  last, so once every G[M - v] is known to be f-choosable only the
  singleton-free patterns (atoms of two or more vertices) remain;
* free atom: a singleton-free pattern is colorable, with no search, when
  one of its atoms holds a vertex u with no neighbor in the atom.  Color
  G[M - u] from its lists (it is f-choosable), then give u the atom's
  color, which no neighbor of u holds.  Such a pattern is still counted;
* isomorphic twin: within one query, a proper induced subgraph G[M] whose
  singleton-free patterns all passed settles every later G[M'] that is
  isomorphic to it by a map keeping the demands (a colored
  ``corpus.canonical_form``).  G[M'] reaches that stage only once its own
  greedy-last check and every G[M' - v] have passed, and an isomorphism
  maps its singleton-free patterns one to one onto those of G[M] and
  colorings onto colorings, so its stage would pass after exactly as many
  patterns; they are added to the count.  A failing stage ends the query
  and is never reused, so every verdict, witness and count is the one the
  full enumeration gives.  Queries on a complete graph, and sub-masks of
  fewer than four vertices, skip it: their stages are cheap, and keying
  them costs more than it saves.

Within one stage every coloring the search finds is proper on G[M], and
only the lists change from pattern to pattern, so a pattern whose lists
still hold each vertex's color in the stage's last coloring is colorable
without a search.  A failing pattern never fits it, so it still reaches
the search, and the witness and count are as before.

Negative answers carry a failing assignment, lifted from the subgraph
where it was found by giving every dropped vertex fresh colors, and
re-verified against the list-coloring search.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .corpus import canonical_form
from .errors import (
    DemandOutOfRange,
    MissingList,
    SurplusDemands,
    TooManyVertices,
)
from .plane_graph import SimpleGraph

MAX_CHOOSABILITY_VERTICES = 6
MAX_CHROMATIC_VERTICES = 12
MAX_DEMAND = 12
# Below this many vertices a singleton-free stage has demands of at most 2
# and a handful of patterns, fewer than keying it by shape would cost.
_TWIN_MIN_VERTICES = 4


class ListAssignment(NamedTuple):
    """Per-vertex color sets; an empty set marks an explicitly infeasible vertex."""

    lists: tuple[frozenset[int], ...]

    @classmethod
    def from_lists(cls, lists: Sequence[Sequence[int]]) -> "ListAssignment":
        return cls(tuple(frozenset(colors) for colors in lists))

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.lists)


class _Demands(NamedTuple):
    values: tuple[int, ...]


class DemandFunction(_Demands):
    """Required list size per vertex, each between 0 and 12."""

    __slots__ = ()

    def __new__(cls, values: tuple[int, ...]) -> "DemandFunction":
        for v, f in enumerate(values):
            # A bool is not a demand, though Python counts it as an int.
            if type(f) is not int or not 0 <= f <= MAX_DEMAND:
                raise DemandOutOfRange(f"demand f({v})={f} outside 0..{MAX_DEMAND}")
        return super().__new__(cls, values)

    @classmethod
    def _make(cls, iterable) -> "DemandFunction":
        # The inherited _make, which _replace calls, would skip __new__.
        return cls(*iterable)

    @classmethod
    def constant(cls, k: int, n: int) -> "DemandFunction":
        return cls((k,) * n)


class ChoosabilityVerdict(NamedTuple):
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
    lists = assignment.lists
    if len(lists) < n:
        raise MissingList(len(lists))
    if len(lists) > n:
        raise SurplusDemands(len(lists), n)
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
    # color but print differently); the check below runs under -O too.
    coloring = {v: next(c for c in lists[v] if rank[c] == found[v]) for v in range(n)}
    for v in range(n):
        if coloring[v] not in lists[v] or any(
            coloring[u] == coloring[v] for u in graph._adjacency[v]
        ):
            raise AssertionError(f"improper color {coloring[v]!r} at vertex {v}")
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
    and tested with one fresh instantiation, except that a pattern with a
    free atom is colorable untested (the third reduction in the module
    docstring), so is one that the stage's last coloring still fits, and
    a G[M] isomorphic to an earlier passed one is not enumerated again
    (the fourth); ``patterns_checked`` counts them all over all
    subproblems, twins included.
    A failing sub-witness is lifted by giving the dropped vertex f(v)
    fresh colors, and the final witness is re-verified.
    """
    n = graph.vertex_count
    if n > MAX_CHOOSABILITY_VERTICES:
        raise TooManyVertices(n, MAX_CHOOSABILITY_VERTICES)
    if len(demand.values) < n:
        raise MissingList(len(demand.values))
    if len(demand.values) > n:
        raise SurplusDemands(len(demand.values), n)
    f = demand.values
    adjacency = [_bits(graph._adjacency[v]) for v in range(n)]
    # No atom of a complete graph is free, so cliques skip that test.
    sparse = sum(map(int.bit_count, adjacency)) < n * (n - 1)
    # Per mask: None if G[mask] is f-choosable, else a failing assignment
    # as one color bitmask per vertex (0 outside the mask).
    memo: dict[int, Optional[list[int]]] = {}
    checked = 0
    # Passed singleton-free stages of proper sub-masks, bucketed by their
    # sorted (demand, degree) pairs; each entry is [members, shape key or
    # None until a second mask lands in the bucket, patterns counted].
    passed: dict[tuple, list[list]] = {}

    def solve(mask: int) -> Optional[list[int]]:
        if mask not in memo:
            memo[mask] = decide(mask)
        return memo[mask]

    def decide(mask: int) -> Optional[list[int]]:
        nonlocal checked
        if not mask:
            checked += 1  # G[∅] has one pattern, the empty one, and it colors
            return None
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
        # Reuse a passed stage of an isomorphic twin (the fourth reduction
        # in the module docstring).  The whole graph is never revisited,
        # and small or complete graphs' stages are left to the search.
        if not sparse or not _TWIN_MIN_VERTICES <= len(members) < n:
            return singleton_free_failure(mask, members)
        profile = sorted((f[v], (adjacency[v] & mask).bit_count()) for v in members)
        bucket = passed.setdefault(tuple(profile), [])
        key = None
        if bucket:
            key = _shape(adjacency, f, members)
            for entry in bucket:
                if entry[1] is None:
                    entry[1] = _shape(adjacency, f, entry[0])
                if entry[1] == key:
                    checked += entry[2]
                    return None
        before = checked
        bad = singleton_free_failure(mask, members)
        if bad is None:
            bucket.append([members, key, checked - before])
        return bad

    def singleton_free_failure(mask: int, members: list[int]) -> Optional[list[int]]:
        # Atoms of two or more vertices, grouped by their lowest vertex: the
        # lowest vertex with unmet demand takes its colors from its group.
        # An atom is free when one of its vertices has no neighbor in it.
        groups: list[list[tuple[int, list[int], bool]]] = [[] for _ in range(n)]
        for v in members:
            higher = mask & ~((2 << v) - 1)
            sub = higher
            while sub:
                atom = sub | 1 << v
                vs = [u for u in members if atom >> u & 1]
                is_free = sparse and not all(map(atom.__and__, map(adjacency.__getitem__, vs)))
                groups[v].append((sub, vs, is_free))
                sub = (sub - 1) & higher
        remaining = list(f)
        lists = [0] * n
        witness: list[list[int]] = []
        last: Optional[list[int]] = None  # the stage's last coloring found

        def fill(unmet: int, start: int, color: int, free: bool) -> bool:
            # free: the pattern so far uses a free atom.
            nonlocal checked, last
            if not unmet:
                checked += 1
                if free or last is not None and all(lists[v] >> last[v] & 1 for v in members):
                    return False
                found = _color_bits(adjacency, lists, mask)
                if found is None:
                    witness.append(list(lists))
                    return True
                last = found
                return False
            low = unmet & -unmet
            group = groups[low.bit_length() - 1]
            bit = 1 << color
            for i in range(start, len(group)):
                others, atom, is_free = group[i]
                if others & ~unmet:
                    continue
                met = 0
                for u in atom:
                    lists[u] |= bit
                    remaining[u] -= 1
                    if not remaining[u]:
                        met |= 1 << u
                if fill(unmet ^ met, 0 if met & low else i, color + 1, free or is_free):
                    return True
                for u in atom:
                    lists[u] ^= bit
                    remaining[u] += 1
            return False

        fill(_bits(v for v in members if f[v]), 0, 0, False)
        return witness[0] if witness else None

    bad = solve((1 << n) - 1)
    if bad is None:
        return ChoosabilityVerdict(True, None, checked)
    witness = ListAssignment(
        tuple(frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in bad)
    )
    return _failing_verdict(graph, demand, witness, checked)


def _shape(adjacency: Sequence[int], f: Sequence[int], members: list[int]) -> tuple:
    """G[members] up to isomorphism, with the demands as vertex colors."""
    index = {v: i for i, v in enumerate(members)}
    rows = [frozenset(index[u] for u in members if adjacency[v] >> u & 1) for v in members]
    return canonical_form(len(members), rows, [f[v] for v in members])


def _failing_verdict(
    graph: SimpleGraph,
    demand: DemandFunction,
    witness: ListAssignment,
    checked: int,
) -> ChoosabilityVerdict:
    """A negative verdict, once its witness is re-verified (under
    ``python -O`` too): its lists have the demanded sizes and admit no
    proper coloring."""
    if witness.sizes() != demand.values:
        raise AssertionError(
            f"witness sizes {witness.sizes()} differ from the demand"
        )
    if l_coloring(graph, witness) is not None:
        raise AssertionError("witness lists admit a proper coloring")
    return ChoosabilityVerdict(False, witness, checked)


def is_k_choosable(graph: SimpleGraph, k: int) -> ChoosabilityVerdict:
    """Choosability from every assignment of k-element lists."""
    if type(k) is not int or not 0 <= k <= MAX_DEMAND:
        raise DemandOutOfRange(f"list size k={k} outside 0..{MAX_DEMAND}")
    return is_f_choosable(graph, DemandFunction.constant(k, graph.vertex_count))


def clique_f_choosable(f_values: Sequence[int]) -> bool:
    """f-choosability of a complete graph, by the distinct-representatives rule.

    A proper list coloring of a clique is a system of distinct
    representatives of the lists, so Hall's condition reduces to: after
    sorting the demands ascending, the i-th smallest must be at least i.
    With no demands the condition holds vacuously, as ``is_f_choosable``
    finds K_0 choosable.  Demands are checked as ``DemandFunction`` checks
    them.
    """
    values = sorted(DemandFunction(tuple(f_values)).values)
    return all(f >= i + 1 for i, f in enumerate(values))


def chromatic_number(graph: SimpleGraph) -> int:
    """Exact chromatic number (at most 12 vertices): the least k for which
    ``_color_bits`` colors the graph when vertex v may use only colors
    0..min(v, k - 1).  Renaming the colors of any k-coloring in order of
    first use gives vertex v a color at most v, so the lists lose none."""
    n = graph.vertex_count
    if n > MAX_CHROMATIC_VERTICES:
        raise TooManyVertices(n, MAX_CHROMATIC_VERTICES)
    adjacency = [_bits(graph._adjacency[v]) for v in range(n)]
    k = 0
    while True:
        lists = [(1 << min(v + 1, k)) - 1 for v in range(n)]
        if _color_bits(adjacency, lists, (1 << n) - 1) is not None:
            return k
        k += 1
