"""Exhaustive deciders for packing existence and packing numbers.

The packing search branches on whole per-vertex columns (the k slots a
vertex contributes, one per colouring, necessarily a permutation of the
k slots by disjointness), processing vertices in degeneracy order so
that every vertex is constrained only by few earlier neighbours.  List
packing is the same search on the list-cover.  All searches are
complete; a configurable node budget turns runaway
instances into a distinct BudgetExceeded outcome rather than a silent
"none".
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Iterable, Iterator, Optional, Sequence

from .core import (  # noqa: F401 - degeneracy_order is re-exported
    CorrespondenceCover,
    Graph,
    ListAssignment,
    Packing,
    barred_slots,
    degeneracy_order,
    list_to_cover,
    slots_to_colours,
)

DEFAULT_BUDGET = 10**8


class BudgetExceeded(Exception):
    """Search node budget exhausted before the instance was decided."""


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: Optional[int]):
        self.remaining = DEFAULT_BUDGET if limit is None else limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceeded("search budget exceeded")


def _as_budget(budget) -> _Budget:
    return budget if isinstance(budget, _Budget) else _Budget(budget)


def find_packing(
    cover: CorrespondenceCover, budget: Optional[int] = None
) -> Optional[Packing]:
    """Complete search for a k-fold packing of the cover.

    Returns a packing (cover mode) or None when provably no packing
    exists; raises BudgetExceeded when the node budget runs out.  Each
    vertex, in degeneracy order, takes a column: an injective choice of
    slot per colouring, slot s barred from colouring i when it conflicts
    with colouring i's slot at an earlier neighbour.  A malformed cover
    raises ValueError (see CorrespondenceCover.conflicts).
    """
    g, k = cover.graph, cover.k
    order, earlier = g.peel[0], g.earlier
    conflicts = cover.conflicts
    b = _as_budget(budget)
    columns: list[Optional[tuple[int, ...]]] = [None] * g.n

    def dfs(idx: int) -> bool:
        if idx == g.n:
            return True
        v = order[idx]
        forbidden = barred_slots(k, conflicts[v], earlier[v], columns)
        col = [0] * k

        def rec(i: int, used: int) -> bool:
            b.spend()
            if i == k:
                columns[v] = tuple(col)
                return dfs(idx + 1)
            bad = forbidden[i] | used
            for s in range(k):
                if bad >> s & 1:
                    continue
                col[i] = s
                if rec(i + 1, used | 1 << s):
                    return True
            return False

        if rec(0, 0):
            return True
        columns[v] = None
        return False

    if not dfs(0):
        return None
    return Packing.from_columns("cover", k, columns)


def find_list_packing(
    g: Graph, lists: ListAssignment, budget: Optional[int] = None
) -> Optional[Packing]:
    """Complete search for an L-packing: find_packing on the list-cover,
    translated back to colours."""
    found = find_packing(list_to_cover(g, lists), budget=budget)
    return None if found is None else slots_to_colours(lists, found)


def find_independent_transversal(
    cover: CorrespondenceCover,
    allowed: Sequence[Sequence[int]],
    budget: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """One slot per vertex, within allowed[v], no matched pair chosen:
    the search of find_packing for a single colouring.  A malformed
    cover, or an allowed slot outside 0..k-1, raises ValueError."""
    g, k = cover.graph, cover.k
    for v, slots in enumerate(allowed):
        if any(not (0 <= s < k) for s in slots):
            raise ValueError(f"allowed[{v}] contains a slot outside 0..{k - 1}")
    order, earlier = g.peel[0], g.earlier
    conflicts = cover.conflicts
    b = _as_budget(budget)
    chosen: list[Optional[tuple[int]]] = [None] * g.n  # one-slot columns

    def dfs(idx: int) -> bool:
        if idx == g.n:
            return True
        v = order[idx]
        forbidden = barred_slots(1, conflicts[v], earlier[v], chosen)[0]
        for s in sorted(allowed[v]):
            b.spend()
            if forbidden >> s & 1:
                continue
            chosen[v] = (s,)
            if dfs(idx + 1):
                return True
        chosen[v] = None
        return False

    if not dfs(0):
        return None
    return tuple(c[0] for c in chosen)  # type: ignore[index]


def canonical_list_assignments(n: int, k: int) -> Iterator[ListAssignment]:
    """All k-list-assignments on n vertices, canonical up to colour
    relabelling.

    Canonical form: colours are named by first appearance in vertex-then-
    slot scan order (lists sorted ascending), so at each vertex the fresh
    colours are exactly the next unused integers.  Every assignment is a
    colour permutation of exactly one canonical one.  Colours stay below
    n*k, the palette needed when every vertex is private.
    """
    lists: list[tuple[int, ...]] = []

    def rec(v: int, m: int) -> Iterator[ListAssignment]:
        if v == n:
            yield ListAssignment(lists=tuple(lists))
            return
        for t in range(k + 1):
            fresh = tuple(range(m, m + t))
            for old in combinations(range(m), k - t):
                lists.append(old + fresh)
                yield from rec(v + 1, m + t)
                lists.pop()

    yield from rec(0, 0)


def _first_unpackable(
    covers: Iterable[CorrespondenceCover], budget: Optional[int]
) -> Optional[CorrespondenceCover]:
    """The first cover that find_packing finds no packing for, every
    search drawing on one shared budget; None when all of them pack."""
    b = _Budget(budget)
    for cover in covers:
        if find_packing(cover, budget=b) is None:
            return cover
    return None


def decide_chi_star_list(
    g: Graph, k: int, budget: Optional[int] = None
) -> Optional[ListAssignment]:
    """Witness k-list-assignment with no L-packing, or None when every
    canonical assignment packs (certifying chi*_ell(g) <= k)."""
    if g.n == 0:
        return None  # the empty assignment packs, and has no list size
    covers = (list_to_cover(g, a) for a in canonical_list_assignments(g.n, k))
    witness = _first_unpackable(covers, budget)
    return None if witness is None else witness.lists


def _cycle_type_representatives(k: int) -> Iterator[tuple[int, ...]]:
    """One permutation of range(k) per cycle type, in ascending order:
    the cycles, of ascending length, on consecutive slots, each mapping
    a slot to the next and the last back to the first; (1, 0, 3, 4, 2)
    for type (2, 3).  Each is the lex-first permutation of its type.
    Built lazily from the partitions of k."""

    def reps(start: int, least: int) -> Iterator[tuple[int, ...]]:
        # permutations of start..k-1 into cycles of length >= least
        for length in range(least, (k - start) // 2 + 1):
            cycle = (*range(start + 1, start + length), start)
            for tail in reps(start + length, length):
                yield cycle + tail
        yield (*range(start + 1, k), start)

    return reps(0, 1)


def _non_forest_edges(
    n: int, edges: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The edges, in the given order, that close a cycle with earlier
    ones: the complement of the spanning forest union-find picks."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    rest = []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            rest.append((u, v))
        else:
            root[ru] = rv
    return rest


def decide_chi_star_corr(
    g: Graph, k: int, budget: Optional[int] = None
) -> Optional[CorrespondenceCover]:
    """Witness k-fold cover with no packing, or None when every k-fold
    cover packs (certifying chi*_c(g) <= k).

    Enumerates perfect covers only: every edge of the spanning forest
    that union-find builds over the sorted edges gets the identity
    matching, the first remaining edge ranges over
    _cycle_type_representatives(k), and the others over all of
    permutations(range(k)) in itertools.product order.  This is still
    complete, for three reasons:

    - Every partial matching extends to a perfect one, and adding
      conflicts cannot create a packing, so if some cover has no
      packing, some perfect one has none.
    - Relabelling the slots of each vertex, tree by tree outward from
      a root, turns the forest's matchings into identities, and
      relabelling maps packings to packings.
    - Relabelling every vertex by the same permutation keeps the
      identities and conjugates every other matching, so the first of
      them needs only one permutation per cycle type.

    The covers come lazily, in lexicographic order of their matchings
    along the sorted edges, with no table of the k! permutations, so a
    large k spends budget, not memory.
    """
    edges = sorted(g.edges)
    if not edges:
        # No edges: every cover packs (slot i to colouring i everywhere).
        return None
    free = _non_forest_edges(g.n, edges)
    matchings = dict.fromkeys(edges, tuple((i, i) for i in range(k)))

    def covers(j: int) -> Iterator[CorrespondenceCover]:
        if j == len(free):
            yield CorrespondenceCover(graph=g, k=k, matchings=dict(matchings))
            return
        perms = _cycle_type_representatives(k) if j == 0 else permutations(range(k))
        for p in perms:
            matchings[free[j]] = tuple(enumerate(p))
            yield from covers(j + 1)

    return _first_unpackable(covers(0), budget)
