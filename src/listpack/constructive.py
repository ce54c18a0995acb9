"""Constructive packers, each guaranteed to succeed under the
hypothesis of the bound it realises:

  * pack_degenerate      — k >= 2 * degeneracy, any correspondence cover;
                           greedy over a degeneracy order, one perfect
                           matching (colourings vs slots) per vertex.
  * pack_complete        — complete graphs, k-lists with every colour on
                           at most k lists; inductive peel-off of one
                           colouring per stage, swapping in "rich"
                           colours (those on exactly k lists) first.
  * pack_bipartite_ordered — bipartite, k >= min(Delta_A, Delta_B) + 1;
                           the B side takes the unique sorted packing and
                           each A vertex is finished independently by a
                           system of distinct representatives.
  * pack_augment         — k >= 1 + Delta + chi_c_bound; grows a partial
                           packing by recolouring an independent
                           transversal with a missing colour.

All packers are deterministic pure functions of their inputs.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Optional

from .core import (
    CorrespondenceCover,
    Graph,
    ListAssignment,
    Packing,
    barred_slots,
    degeneracy_order,  # noqa: F401 - re-exported
    list_to_cover,
    slots_to_colours,
    validate_packing,
)
from .exact import find_independent_transversal
from .matching import perfect_matching


class PackingError(RuntimeError):
    """A packer's internal guarantee failed; indicates a bug or a wrong
    caller-supplied bound, never a mere unlucky instance."""


def pack_degenerate(cover: CorrespondenceCover) -> Packing:
    """Greedy packer for k >= 2 * degeneracy(graph).

    Vertices are processed in degeneracy order; at each vertex a perfect
    matching pairs the k colourings with the k slots (slot s may extend
    colouring i iff no earlier neighbour's choice conflicts through the
    edge matching).  The matching exists because each side excludes at
    most d partners.  A malformed cover raises ValueError.
    """
    g, k = cover.graph, cover.k
    order, d = g.peel
    if k < 2 * d:
        raise ValueError(f"need k >= 2*degeneracy = {2 * d}, got k = {k}")
    conflicts = cover.conflicts
    full = (1 << k) - 1
    columns: list[Optional[list[int]]] = [None] * g.n
    for v in order:
        barred = barred_slots(k, conflicts[v], g.earlier[v], columns)
        col = perfect_matching([full & ~m for m in barred], k)
        if col is None:
            raise PackingError(f"no perfect matching at vertex {v}")
        columns[v] = col
    return Packing.from_columns("cover", k, columns)


def _sdr(families: list[list[int]]) -> Optional[list[int]]:
    """System of distinct representatives; families hold colour ids."""
    universe = sorted({c for fam in families for c in fam})
    index = {c: i for i, c in enumerate(universe)}
    masks = [sum(1 << index[c] for c in fam) for fam in families]
    m = perfect_matching(masks, len(universe))
    if m is None:
        return None
    return [universe[i] for i in m]


def _complete_stage(lists: list[tuple[int, ...]], k: int) -> list[int]:
    """One proper colouring of K_n from the given lists that uses every
    rich colour (a colour on exactly k lists)."""
    n = len(lists)
    c = _sdr([list(lst) for lst in lists])
    if c is None:
        raise PackingError("Hall condition failed for the list SDR")
    counts = Counter(col for lst in lists for col in lst)
    rich = sorted(r for r, cnt in counts.items() if cnt == k)
    if rich:
        masks = [
            sum(1 << v for v in range(n) if r in lists[v]) for r in rich
        ]
        m = perfect_matching(masks, n)
        if m is None:
            raise PackingError("Hall condition failed for rich colours")
        f = {r: m[i] for i, r in enumerate(rich)}
        # Swap unused rich colours in; each f(r) is written at most once,
        # so |rich| rounds always suffice.
        for _ in range(len(rich) + 1):
            used = set(c)
            pending = [r for r in rich if r not in used]
            if not pending:
                break
            c[f[pending[0]]] = pending[0]
        else:
            raise PackingError("rich-colour swap loop failed to terminate")
    if len(set(c)) != n:
        raise PackingError("stage colouring not proper on the clique")
    return c


def pack_complete(lists: ListAssignment, k: int) -> Packing:
    """Packer for K_n with k-lists where every colour is on at most k
    lists (1 <= k <= n)."""
    n = lists.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}, got k = {k}")
    if lists.uniform_size() != k:
        raise ValueError("lists must all have size k")
    counts = Counter(c for lst in lists.lists for c in lst)
    worst = max(counts.values())
    if worst > k:
        raise ValueError(
            f"colour {max(counts, key=lambda c: counts[c])} appears in "
            f"{worst} > k lists"
        )
    current = [lst for lst in lists.lists]
    rows = []
    for stage in range(k, 0, -1):
        c = _complete_stage(current, stage)
        rows.append(tuple(c))
        current = [
            tuple(col for col in lst if col != c[v])
            for v, lst in enumerate(current)
        ]
    return Packing.from_rows("list", rows)


def bipartition(g: Graph) -> Optional[tuple[list[int], list[int]]]:
    """Two-colour the graph by BFS; None if an odd cycle exists."""
    side = [-1] * g.n
    nbrs = g.neighbours()
    for start in range(g.n):
        if side[start] != -1:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in nbrs[v]:
                if side[u] == -1:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return None
    return (
        [v for v in range(g.n) if side[v] == 0],
        [v for v in range(g.n) if side[v] == 1],
    )


def bipartite_sides(g: Graph) -> tuple[list[int], list[int], int]:
    """(A, B, Delta_A): A is the part of the bipartition with the smaller
    maximum degree, the first part on a tie.  Raises ValueError on an
    odd cycle."""
    parts = bipartition(g)
    if parts is None:
        raise ValueError("graph is not bipartite")
    deg = g.degrees()
    d0, d1 = (max((deg[v] for v in part), default=0) for part in parts)
    if d0 <= d1:
        return parts[0], parts[1], d0
    return parts[1], parts[0], d1


def pack_bipartite_ordered(g: Graph, lists: ListAssignment) -> Packing:
    """Bipartite packer for k >= min(Delta_A, Delta_B) + 1.

    The part with the smaller maximum degree extends a forced packing of
    the other part: on the list-cover, every B vertex gets the identity
    column (colouring i takes slot i, the i-th smallest colour of L(b))
    and each A vertex picks a system of distinct representatives of the
    colouring-index sets I_j, the colourings whose slot at no neighbour
    holds the j-th colour of L(a).
    """
    a_side, _, delta_a = bipartite_sides(g)
    k = lists.uniform_size()
    if k < delta_a + 1:
        raise ValueError(
            f"need k >= Delta_A + 1 = {delta_a + 1}, got k = {k}"
        )
    conflicts = list_to_cover(g, lists).conflicts
    # A is independent, so its identity columns are never read
    columns = [range(k)] * g.n
    for a in a_side:
        barred = barred_slots(k, conflicts[a], conflicts[a], columns)
        index_sets = [
            sum(1 << i for i in range(k) if not barred[i] >> j & 1)
            for j in range(k)
        ]
        m = perfect_matching(index_sets, k)
        if m is None:
            raise PackingError(f"Hall condition failed at vertex {a}")
        columns[a] = sorted(range(k), key=m.__getitem__)  # colouring m[j] takes slot j
    return slots_to_colours(lists, Packing.from_columns("cover", k, columns))


def pack_augment(
    cover: CorrespondenceCover,
    chi_c_bound: Optional[int] = None,
    on_round: Optional[Callable[[int], None]] = None,
) -> Packing:
    """Augmentation packer for k >= 1 + Delta(graph) + chi_c_bound.

    chi_c_bound must be a valid upper bound on the correspondence
    chromatic number of the graph; the default 1 + degeneracy always is.
    While some slot is uncoloured, a colour missing from its part is
    pushed onto an independent transversal of carefully restricted slot
    sets, displaced colours are shifted, and the number of coloured slots
    strictly grows.  on_round, if given, receives the coloured-slot count
    after every augmentation (used by tests to check progress).  A
    malformed cover raises ValueError.
    """
    g, k = cover.graph, cover.k
    d = g.peel[1]
    if chi_c_bound is None:
        chi_c_bound = 1 + d
    delta = g.max_degree()
    if k < 1 + delta + chi_c_bound:
        raise ValueError(
            f"need k >= 1 + Delta + chi_c_bound = {1 + delta + chi_c_bound},"
            f" got k = {k}"
        )
    conflicts = cover.conflicts
    colour: list[list[Optional[int]]] = [[None] * k for _ in range(g.n)]

    def coloured_count() -> int:
        return sum(1 for part in colour for c in part if c is not None)

    # every round colours at least one more slot, so the round after the
    # (n*k)-th finds none left
    for _ in range(g.n * k + 1):
        target = None
        for v in range(g.n):
            for x in range(k):
                if colour[v][x] is None:
                    target = (v, x)
                    break
            if target:
                break
        if target is None:
            break
        v1, x = target
        used = {c for c in colour[v1] if c is not None}
        red = min(c for c in range(k) if c not in used)

        red_slot = [None] * g.n
        for v in range(g.n):
            for s in range(k):
                if colour[v][s] == red:
                    red_slot[v] = s
                    break

        allowed: list[list[int]] = []
        for v in range(g.n):
            if v == v1 or red_slot[v] is None:
                slots = list(range(k))
            else:
                blocked_colours = set()
                for u in conflicts[v]:
                    j = conflicts[u][v].get(red_slot[v])
                    if j is not None and colour[u][j] is not None:
                        blocked_colours.add(colour[u][j])
                slots = [
                    y
                    for y in range(k)
                    if colour[v][y] not in blocked_colours
                ]
            j = conflicts[v].get(v1, {}).get(x)
            if j in slots:
                slots.remove(j)
            allowed.append(slots)

        transversal = find_independent_transversal(cover, allowed)
        if transversal is None:
            raise PackingError(
                "no independent transversal; chi_c_bound is too small"
            )
        t = list(transversal)
        t[v1] = x

        before = coloured_count()
        for v in range(g.n):
            old = colour[v][t[v]]
            colour[v][t[v]] = red
            r = red_slot[v]
            if r is not None and r != t[v]:
                colour[v][r] = old
        after = coloured_count()
        if after <= before:
            raise PackingError("augmentation failed to make progress")
        if on_round is not None:
            on_round(after)
    else:
        raise PackingError("augmentation did not terminate in n*k rounds")

    columns = [[part.index(i) for i in range(k)] for part in colour]
    packing = Packing.from_columns("cover", k, columns)
    err = validate_packing(cover, packing)
    if err is not None:
        raise PackingError(f"internal validation failed: {err}")
    return packing
