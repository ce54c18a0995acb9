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
                           each A vertex is finished independently by one
                           perfect matching (colourings vs slots).
  * pack_augment         — k >= 1 + Delta + chi_c_bound; grows a partial
                           packing by recolouring an independent
                           transversal with a missing colour, the
                           transversal taking empty slots where it can,
                           so a round fills that colour almost
                           everywhere it is missing.

pack_degenerate, pack_bipartite_ordered and pack_bipartite_lll share one
column loop, _fill_columns.

All packers are deterministic pure functions of their inputs.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

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


def _checked(cover: CorrespondenceCover, packing: Packing) -> Packing:
    """The packing, once validate_packing accepts it for the cover; a
    rejected packing raises PackingError."""
    err = validate_packing(cover, packing)
    if err is not None:
        raise PackingError(f"internal validation failed: {err}")
    return packing


def _fill_columns(
    cover: CorrespondenceCover,
    vertices: Iterable[int],
    sources: Sequence[Iterable[int]],
    columns: list[Optional[Sequence[int]]],
) -> Optional[int]:
    """Give each vertex v in turn the column of a perfect matching of
    the colourings to its slots, slot s barred from colouring i when it
    conflicts with columns[u][i] for a u in sources[v].  Returns the
    first v without one, or None once every vertex has its column."""
    k, conflicts = cover.k, cover.conflicts
    full = (1 << k) - 1
    for v in vertices:
        barred = barred_slots(k, conflicts[v], sources[v], columns)
        col = perfect_matching([full & ~m for m in barred], k)
        if col is None:
            return v
        columns[v] = col
    return None


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
    columns: list[Optional[list[int]]] = [None] * g.n
    v = _fill_columns(cover, order, g.earlier, columns)
    if v is not None:
        raise PackingError(f"no perfect matching at vertex {v}")
    return Packing.from_columns("cover", k, columns)


def _complete_stage(lists: list[tuple[int, ...]], k: int) -> list[int]:
    """One proper colouring of K_n from the given lists that uses every
    rich colour (a colour on exactly k lists)."""
    n = len(lists)
    counts = Counter(col for lst in lists for col in lst)
    # c: a system of distinct representatives of the lists
    universe = sorted(counts)
    index = {col: i for i, col in enumerate(universe)}
    masks = [sum(1 << index[col] for col in lst) for lst in lists]
    m = perfect_matching(masks, len(universe))
    if m is None:
        raise PackingError("Hall condition failed for the list SDR")
    c = [universe[i] for i in m]
    rich = sorted(r for r, cnt in counts.items() if cnt == k)
    row = {r: i for i, r in enumerate(rich)}
    masks = [0] * len(rich)  # masks[row[r]]: the vertices whose list has r
    for v, lst in enumerate(lists):
        for col in lst:
            if col in row:
                masks[row[col]] |= 1 << v
    m = perfect_matching(masks, n)
    if m is None:
        raise PackingError("Hall condition failed for rich colours")
    f = {r: m[i] for i, r in enumerate(rich)}
    # Write each missing rich colour r at f(r), and queue the rich colour
    # it displaces.  f is injective, so each f(r) is written at most once
    # and the written set is the closure of the initially missing
    # colours, in whatever order they are popped.
    used = set(c)
    pending = [r for r in rich if r not in used]
    while pending:
        r = pending.pop()
        displaced = c[f[r]]
        c[f[r]] = r
        if counts[displaced] == k:
            pending.append(displaced)
    if len(set(c)) != n:
        raise PackingError("stage colouring not proper on the clique")
    return c


def pack_complete(lists: ListAssignment) -> Packing:
    """Packer for K_n with k-lists, k the common list size, where every
    colour is on at most k lists (1 <= k <= n)."""
    n, k = lists.n, lists.uniform_size()
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n = {n}, got k = {k}")
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


def bipartition(g: Graph) -> tuple[list[int], list[int]]:
    """The two sides of a two-colouring; ValueError on an odd cycle."""
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
                    raise ValueError("graph is not bipartite")
    return (
        [v for v in range(g.n) if side[v] == 0],
        [v for v in range(g.n) if side[v] == 1],
    )


def bipartite_sides(g: Graph) -> tuple[list[int], list[int], int]:
    """(A, B, Delta_A): A is the part of the bipartition with the smaller
    maximum degree, the first part on a tie.  bipartition raises
    ValueError on an odd cycle."""
    parts = bipartition(g)
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
    and each A vertex matches the k colourings to its slots, slot s
    barred from colouring i when a neighbour's i-th smallest colour is
    the colour at slot s of L(a).
    """
    a_side, _, delta_a = bipartite_sides(g)
    k = lists.uniform_size()
    if k < delta_a + 1:
        raise ValueError(
            f"need k >= Delta_A + 1 = {delta_a + 1}, got k = {k}"
        )
    cover = list_to_cover(g, lists)
    # A is independent, so its identity columns are never read
    columns = [range(k)] * g.n
    a = _fill_columns(cover, a_side, cover.conflicts, columns)
    if a is not None:
        raise PackingError(f"Hall condition failed at vertex {a}")
    return slots_to_colours(lists, Packing.from_columns("cover", k, columns))


def pack_augment(
    cover: CorrespondenceCover,
    chi_c_bound: Optional[int] = None,
    on_round: Optional[Callable[[int], None]] = None,
) -> Packing:
    """Augmentation packer for k >= 1 + Delta(graph) + chi_c_bound.

    chi_c_bound must be a valid upper bound on the correspondence
    chromatic number of the graph; the default 1 + degeneracy always is.
    While some slot is uncoloured, a colour red missing at the first
    vertex v1 with an empty slot is pushed onto an independent
    transversal of carefully restricted slot sets (at v1 only its lowest
    empty slot), displaced colours are shifted, and the number of
    coloured slots strictly grows, so there are at most n*k rounds; a
    round that gains none raises PackingError.  A slot is gained
    wherever red is missing and the transversal lands on an empty slot,
    so the search tries the empty slots of those vertices first: any
    transversal in the allowed sets is a valid round, and n*k stays the
    proven bound, but in practice one round fills red almost everywhere
    it is missing (8 rounds on a 1,500-vertex path with a random 5-fold
    cover, where taking the lowest allowed slot took 4,502).  Each
    vertex keeps its column in the form of Packing.from_columns (the
    slot of each colouring, None while it is missing) and its empty
    slots as a bitmask, so a round costs O(k(n + m)) bookkeeping and one
    find_independent_transversal.  on_round, if given, receives the
    running coloured-slot count after every round, ending at n*k.  A
    malformed cover raises ValueError.
    """
    g, k = cover.graph, cover.k
    if chi_c_bound is None:
        chi_c_bound = 1 + g.peel[1]
    delta = g.max_degree()
    if k < 1 + delta + chi_c_bound:
        raise ValueError(
            f"need k >= 1 + Delta + chi_c_bound = {1 + delta + chi_c_bound},"
            f" got k = {k}"
        )
    conflicts = cover.conflicts
    full = (1 << k) - 1
    # columns[v][i]: the slot of colouring i at v, None while i is missing
    columns: list[list[Optional[int]]] = [[None] * k for _ in range(g.n)]
    # empty[v]: v's uncoloured slots as a mask, kept in step with columns
    # rather than rebuilt, as every round reads them: for prefer, and to
    # tell in O(1) whether a slot holds a colour
    empty = [full] * g.n
    coloured = v1 = 0
    while coloured < g.n * k:
        # full parts stay full, so v1 only moves forward
        while not empty[v1]:
            v1 += 1
        x = (empty[v1] & -empty[v1]).bit_length() - 1
        red = columns[v1].index(None)

        # v may not take a slot holding a colour that a neighbour keeps
        # in the slot matched to v's red slot, nor the slot matched to x,
        # which v1 takes: no transversal could use that slot, and barring
        # it here, not at v1, keeps the search from backtracking into v1
        # (where it can spend its whole budget); where red is missing, the
        # search tries the empty slots first, as red gains a slot only there
        allowed: list[int] = []  # slot masks
        prefer: list[int] = []
        for v, col in enumerate(columns):
            r = col[red]
            bad = 0
            if r is not None:
                for u in conflicts[v]:
                    j = conflicts[u][v].get(r)
                    if j is not None and j in columns[u]:
                        y = col[columns[u].index(j)]
                        if y is not None:
                            bad |= 1 << y
            j = conflicts[v].get(v1, {}).get(x)
            if j is not None:
                bad |= 1 << j
            allowed.append(full & ~bad)
            prefer.append(empty[v] if r is None else 0)
        allowed[v1] = 1 << x

        transversal = find_independent_transversal(cover, allowed, prefer=prefer)
        if transversal is None:
            raise PackingError("no independent transversal; chi_c_bound is too small")

        # swap red into slot y and the colour there into red's old slot r
        gained = 0
        for v, y in enumerate(transversal):
            col = columns[v]
            old = None if empty[v] >> y & 1 else col.index(y)
            r, col[red] = col[red], y
            if old is None:  # y fills, and red's old slot r, if any, empties
                gained += r is None
                empty[v] ^= 1 << y if r is None else 1 << y | 1 << r
            elif old != red:
                col[old] = r
        if not gained:
            raise PackingError("augmentation failed to make progress")
        coloured += gained
        if on_round is not None:
            on_round(coloured)

    return _checked(cover, Packing.from_columns("cover", k, columns))
