"""Exhaustive deciders for packing existence and packing numbers.

The packing search branches on whole per-vertex columns (the k slots a
vertex contributes, one per colouring, necessarily a permutation of the
k slots by disjointness), processing vertices in degeneracy order so
that every vertex is constrained only by few earlier neighbours.  The
first vertex takes only the identity column: relabelling the k
colourings maps packings to packings, so that loses no packing, and as
the identity is the first column the full search would try there, the
packing found is the same.  List packing is the same search on the
list-cover; find_independent_transversal is its one-colouring version.
Each search is one loop that keeps its backtracking state in
per-vertex arrays, not on the Python stack.  All searches are
complete; a configurable node budget turns runaway instances into a
distinct BudgetExceeded outcome rather than a silent "none".

A decider's "all pack" answer is proven assignment by assignment or
cover by cover: the correspondence decider searches each cover it
enumerates; the list decider certifies an assignment either by the
Hall peel of _hall_peels, which needs no search, or by the search.
The list decider peels each prefix of its enumeration once, counting
every vertex whose list is still open at its worst (it adds 1 to a
and 1 to b of each alive neighbour, and goes when 2 * (its alive
neighbours) <= k).  Deletion only lowers a and b, so the peel has one
fixpoint and a prefix's deletions are made by the peel of each of its
completions; a prefix that peels to nothing certifies its whole
subtree, and a full assignment is left with exactly the vertices that
_hall_peels leaves.  The list decider also skips colour-relabelled
twins: each vertex takes, from every class of colours that the same
earlier lists hold, only the lowest few.  So it searches a subsequence
of the assignments that _hall_peels leaves, in their order, and stops
at the same first unpackable one.  Both deciders and
canonical_list_assignments enumerate on one loop, _odometer, not by
recursion.  Budgets count search nodes only.

The deciders build no cover and no Packing per candidate: each keeps
one set of slot-conflict maps and updates it in place as it moves to
the next candidate, and hands it to _search, the loop behind
find_packing.  The list decider rewrites the maps of the edges from v
down whenever a prefix that survives its peel fixes L(v), and the
correspondence decider those of the edge its odometer turns.  At each
searched candidate the maps equal the ones CorrespondenceCover.conflicts
builds for it (list_to_cover's for an assignment), so the search, its
node counts and the witnesses are those of find_packing on each cover;
both kinds of cover are valid by construction, so none is checked.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

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

#: slot-conflict maps shaped like CorrespondenceCover.conflicts
_Conflicts = Sequence[Mapping[int, Mapping[int, int]]]
_W = TypeVar("_W")
_O = TypeVar("_O")


class BudgetExceeded(Exception):
    """Search node budget exhausted before the instance was decided;
    nodes counts the nodes spent, the first one over the budget too."""

    def __init__(self, nodes: int):
        super().__init__(f"search budget exceeded after {nodes} nodes")
        self.nodes = nodes


class _Budget:
    __slots__ = ("limit", "remaining")

    def __init__(self, limit: Optional[int]):
        self.limit = self.remaining = DEFAULT_BUDGET if limit is None else limit

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExceeded(self.limit - self.remaining)


def find_packing(
    cover: CorrespondenceCover, budget: Optional[int] = None
) -> Optional[Packing]:
    """Complete search for a k-fold packing of the cover.

    Returns a packing (cover mode) or None when provably no packing
    exists; raises BudgetExceeded when the node budget runs out.  Each
    vertex, in degeneracy order, takes a column: an injective choice of
    slot per colouring, slot s barred from colouring i when it conflicts
    with colouring i's slot at an earlier neighbour.  The first vertex
    is fixed to the identity column (colouring i on slot i): any packing
    relabelled by a permutation of the colourings is a packing, so a
    None proves that no packing exists at all, with up to k! fewer
    nodes.  The identity is also the first column the search would try
    at that vertex, which has no earlier neighbours, so the packing
    returned is the first in search order, as without the fixing.  The
    search (_search) is one loop that keeps its backtracking state in
    per-vertex arrays, so no n or k is too large for the Python stack.
    A malformed cover raises ValueError (see
    CorrespondenceCover.conflicts).
    """
    columns = _search(cover.graph, cover.k, cover.conflicts, _Budget(budget))
    return None if columns is None else Packing.from_columns("cover", cover.k, columns)


def _search(
    g: Graph, k: int, conflicts: _Conflicts, b: _Budget
) -> Optional[list[list[int]]]:
    """find_packing on slot-conflict maps shaped like
    CorrespondenceCover.conflicts and built for this k >= 1: the
    columns of the packing (columns[v][i] is the slot of v in colouring
    i), or None.  Every node is spent from b, which the deciders share
    across their searches.  They call it on maps they keep up to date
    themselves, so no cover or Packing is built per candidate."""
    n, order, earlier = g.n, g.peel[0], g.earlier
    full = (1 << k) - 1
    # col[:i] = columns[v][:i] is a partial column of v = order[idx] using
    # the slots in `used`; free[i] holds the slots colouring i has still
    # to try, lowest first, and bar[i] those barred from it
    columns: list[Optional[list[int]]] = [None] * n
    frees: list = [None] * n
    bars: list = [None] * n
    idx, i = 0, -1  # i == -1: order[idx] not yet entered
    while True:
        if i < 0:
            if idx == n:
                return columns
            v = order[idx]
            col = columns[v] = [0] * k
            free = frees[idx] = [0] * k
            bar = bars[idx] = barred_slots(k, conflicts[v], earlier[v], columns)
            if not idx:  # order[0] takes only the identity column (see above)
                bar[:] = (full ^ 1 << j for j in range(k))
            # one budget unit per partial column, the empty one included
            b.spend()
            i, used = 0, 0
            free[0] = full & ~bar[0]
        avail = free[i]
        if avail:
            low = avail & -avail
            free[i] = avail ^ low
            col[i] = low.bit_length() - 1
            b.spend()
            if i + 1 == k:
                idx, i = idx + 1, -1
            else:
                used |= low
                i += 1
                free[i] = full & ~(bar[i] | used)
        elif i:
            i -= 1
            used ^= 1 << col[i]
        elif idx:
            # back to the last colouring of the previous vertex, whose
            # column is a permutation of the k slots
            idx, i = idx - 1, k - 1
            col, free, bar = columns[order[idx]], frees[idx], bars[idx]
            used = full ^ 1 << col[i]
        else:
            return None


def find_list_packing(
    g: Graph, lists: ListAssignment, budget: Optional[int] = None
) -> Optional[Packing]:
    """Complete search for an L-packing: find_packing on the list-cover,
    translated back to colours."""
    found = find_packing(list_to_cover(g, lists), budget=budget)
    return None if found is None else slots_to_colours(lists, found)


def find_independent_transversal(
    cover: CorrespondenceCover,
    allowed: Sequence[int],
    budget: Optional[int] = None,
    prefer: Optional[Sequence[int]] = None,
) -> Optional[tuple[int, ...]]:
    """One slot per vertex, a bit of the slot mask allowed[v], no matched
    pair chosen: the loop of find_packing for a single colouring, with
    one position per vertex.  It tries each vertex's allowed slots in
    prefer[v] first, lowest first, then its other allowed slots, lowest
    first (with no prefer, all of them lowest first), one budget unit
    per slot tried.  The order changes only which transversal is found:
    the search stays complete.  A malformed cover, len(allowed) != n,
    len(prefer) != n, or an allowed mask that is negative or has a bit
    at k or above raises ValueError; bits of prefer[v] outside
    allowed[v] are ignored."""
    g, k = cover.graph, cover.k
    if prefer is None:
        prefer = [0] * g.n
    for name, masks in (("allowed", allowed), ("prefer", prefer)):
        if len(masks) != g.n:
            raise ValueError(f"{name} has {len(masks)} entries for {g.n} vertices")
    for v, mask in enumerate(allowed):
        if mask < 0 or mask >> k:
            raise ValueError(f"allowed[{v}] contains a slot outside 0..{k - 1}")
    n, order, earlier = g.n, g.peel[0], g.earlier
    conflicts = cover.conflicts
    b = _Budget(budget)
    chosen = [0] * n  # the slot of each vertex already placed
    # untried[idx]: the allowed slots of order[idx] still to try, -1 until
    # it is entered; forbidden[idx]: those matched to an earlier choice
    untried = [-1] * n
    forbidden = [0] * n
    idx = 0
    while 0 <= idx < n:
        v = order[idx]
        avail = untried[idx]
        if avail < 0:
            conflicts_v = conflicts[v]
            barred = 0
            for u in earlier[v]:
                edge = conflicts_v.get(u)
                if edge is not None:
                    s = edge.get(chosen[u])
                    if s is not None:
                        barred |= 1 << s
            forbidden[idx] = barred
            avail = allowed[v]
        if avail:
            first = avail & prefer[v] or avail
            low = first & -first
            untried[idx] = avail ^ low
            b.spend()
            if not forbidden[idx] & low:
                chosen[v] = low.bit_length() - 1
                idx += 1
        else:
            untried[idx] = -1
            idx -= 1
    return None if idx < 0 else tuple(chosen)


def _peel(
    nbrs: Sequence[Iterable[int]],
    masks: Sequence[int],
    k: int,
    fixed: int,
    alive: int,
    work: list[int],
) -> int:
    """The Hall peel of _hall_peels on the vertices of the bitmask
    alive when only the vertices below `fixed` have lists (masks[v] is
    the colour bitmask of L(v)); returns the vertices left.

    An alive neighbour u of v adds 1 to a and to the count of each
    colour of L(v) that L(u) has; if L(u) or L(v) is open, it adds 1 to
    a and to b, its most.  Only the vertices in `work` and the
    neighbours of each deleted vertex are examined, so `work` must hold
    every alive vertex whose counts fell since `alive` was peeled.
    """
    while work:
        v = work.pop()
        if not alive >> v & 1:
            continue
        mv, ab = masks[v], 0
        levels = []  # levels[j]: colours of L(v) in more than j listed L(u)
        for u in nbrs[v]:
            if alive >> u & 1:
                if u >= fixed or v >= fixed:
                    ab += 2
                elif m := masks[u] & mv:
                    ab += 1
                    for j, level in enumerate(levels):
                        levels[j] = level | m
                        m &= level
                    if m:
                        levels.append(m)
        if ab + len(levels) <= k:  # a + b <= k
            alive ^= 1 << v
            work.extend(nbrs[v])
    return alive


def _hall_peels(
    nbrs: Sequence[Iterable[int]], lists: Sequence[tuple[int, ...]], k: int
) -> bool:
    """True when repeatedly deleting a vertex v with a + b <= k deletes
    every vertex; then the k-list-assignment `lists` has an L-packing.

    Over the neighbours of v not yet deleted, a counts those whose list
    meets L(v), and b is the most of them whose lists share one colour
    of L(v).  Put v back onto any packing of the vertices deleted after
    it: each colouring bars at most a of v's colours (one per such
    neighbour) and each colour of L(v) is barred from at most b
    colourings (a neighbour's colourings use each of its colours once).
    So in the bipartite graph of colourings and colours that v may
    still pair, the minimum degrees are k - a and k - b, which sum to
    at least k, and Hall's condition holds: a perfect matching extends
    the packing to v.  Deletion only lowers a and b, so the order of
    deletions does not matter.  This is _peel with every list fixed.
    """
    n = len(lists)
    masks = [sum(1 << c for c in lst) for lst in lists]
    return not _peel(nbrs, masks, k, n, (1 << n) - 1, list(range(n)))


def _list_options(m: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The lists a vertex may take in canonical form after colours
    0..m-1 are used, lazily, each with the colours used after it: k - t
    old colours, then the t fresh ones m..m+t-1 (colours are named by
    first appearance)."""
    for t in range(k + 1):
        fresh = tuple(range(m, m + t))
        for old in combinations(range(m), k - t):
            yield old + fresh, m + t


def _odometer(
    width: int,
    options: Callable[[int], Iterator[_O]],
    take: Callable[[int, _O], bool],
) -> Iterator[None]:
    """Every sequence of `width` options, the last position turning
    fastest, from one loop: position j draws in turn from the iterator
    options(j), made afresh each time j is entered, and take(j, option)
    records the option in the caller's state; when it returns False, no
    sequence extending that prefix is visited.  Yields once per full
    sequence (once for width 0), and the caller reads its own state
    before resuming.  No width is too large for the Python stack."""
    trying: list = [None] * width
    j = 0
    while j >= 0:
        if j == width:
            yield
            j -= 1
            continue
        if trying[j] is None:
            trying[j] = options(j)
        for option in trying[j]:
            if take(j, option):
                j += 1
                break
        else:
            trying[j] = None
            j -= 1


def canonical_list_assignments(n: int, k: int) -> Iterator[ListAssignment]:
    """All k-list-assignments on n vertices, canonical up to colour
    relabelling.

    Canonical form: colours are named by first appearance in vertex-then-
    slot scan order (lists sorted ascending), so at each vertex the fresh
    colours are exactly the next unused integers.  Every assignment is a
    colour permutation of at least one canonical one, and two canonical
    ones may be twins: the swap 0 <-> 1 maps ((0, 1), (0, 2)) onto
    ((0, 1), (1, 2)), and both are enumerated.  Colours stay below
    n*k, the palette needed when every vertex is private.  The
    enumeration is an _odometer over the vertices, so no n is too large
    for the Python stack.
    """
    lists: list[tuple[int, ...]] = [()] * n
    used = [0] * (n + 1)  # used[v]: the colours 0..m-1 of the prefix 0..v-1

    def take(v: int, option: tuple[tuple[int, ...], int]) -> bool:
        lists[v], used[v + 1] = option
        return True

    for _ in _odometer(n, lambda v: _list_options(used[v], k), take):
        yield ListAssignment(lists=tuple(lists))


def _first_unpackable(
    g: Graph,
    k: int,
    candidates: Iterable[tuple[_W, _Conflicts]],
    budget: Optional[int],
) -> Optional[_W]:
    """The witness of the first (witness, conflicts) candidate whose
    conflict maps _search finds no packing for, every search drawing on
    one shared budget; None when all of them pack.  The maps are read
    before the next candidate is drawn, so a generator may update one
    set of them in place."""
    b = _Budget(budget)
    for witness, conflicts in candidates:
        if _search(g, k, conflicts, b) is None:
            return witness
    return None


def decide_chi_star_list(
    g: Graph, k: int, budget: Optional[int] = None
) -> Optional[ListAssignment]:
    """Witness k-list-assignment with no L-packing, or None when every
    canonical assignment packs (certifying chi*_ell(g) <= k).

    The searched assignments are a subsequence, in order, of the
    canonical assignments that _hall_peels does not certify (those
    pack by Hall's theorem), each searched by find_packing's search on
    its list-cover's conflict maps, and the witness is the first
    unpackable canonical assignment, the one an unfiltered loop finds.
    Two rules drop assignments, and neither drops that one.

    The enumeration is an _odometer over the vertices whose take peels
    each prefix once, as its last list is fixed, from the vertices its
    parent prefix left.  A vertex whose list is open is counted at its
    worst (_peel): it goes when 2 * (its alive neighbours) <= k, and
    counts once in a and once in b of each listed alive neighbour; a
    fixed list can only lower those counts.  Deletion only lowers a and
    b, so the peel's fixpoint is unique, and every deletion made on a
    prefix is made by the full peel of each of its completions: if a
    prefix peels to nothing, every assignment under it packs and take
    cuts the subtree off, and at a full assignment the vertices left
    are exactly those _hall_peels leaves.  The first take peels every
    vertex and leaves the k/2-core (no two listed vertices are adjacent),
    so when 2d <= k for the degeneracy d it ends the enumeration unsearched.

    The options of vertex v are those of _list_options, in its order,
    less the colour-relabelled twins.  Two colours are interchangeable
    at v when the same lists of vertices 0..v-1 hold them; each class of
    interchangeable colours is a run of consecutive names (the fresh
    colours of one vertex are one class, and taking a prefix of a class
    splits it into two runs), and L(v) may take only the lowest r
    colours of each class, for some r.  If L(v) holds c but not c' < c
    of c's class, the swap c <-> c' fixes the lists of 0..v-1 and turns
    the assignment into a canonical one that comes earlier and packs
    exactly when it does.  So every dropped assignment is a relabelling
    of an earlier one that is kept, and the first unpackable one is
    never dropped.

    No cover is built: take keeps one slot-conflict map per vertex and
    rewrites those of the edges from v down as a surviving prefix fixes
    L(v), so the maps searched at each assignment are exactly
    list_to_cover(g, a).conflicts, and a ListAssignment is built only
    for the witness.  The budget counts search nodes only, so it may
    decide where searching every assignment would exhaust it.  A k below
    1 raises ValueError.
    """
    if k < 1:
        raise ValueError(f"fold k={k} must be positive")
    n, nbrs = g.n, g.neighbours()
    below = [[u for u in nbrs[v] if u < v] for v in range(n)]
    lists: list[tuple[int, ...]] = [()] * n
    masks = [0] * n
    alive = [(1 << n) - 1] * (n + 1)  # alive[v]: what prefix 0..v-1's peel leaves
    # starts[v]: bitmask of the lowest colour of each class of colours that
    # the same lists of the prefix 0..v-1 hold, and of m, the colours they use
    starts = [1] * (n + 1)
    conflicts: list[dict[int, dict[int, int]]] = [{} for _ in range(n)]

    def options(v: int) -> Iterator[tuple[tuple[int, ...], int]]:
        # a colour that starts no class goes in L(v) only with the one below
        for lst, _ in _list_options(starts[v].bit_length() - 1, k):
            mask = sum(1 << c for c in lst)
            if not mask & ~(mask << 1) & ~starts[v]:
                yield lst, mask

    def take(v: int, option: tuple[tuple[int, ...], int]) -> bool:
        lists[v], mv = option
        masks[v] = mv
        # a class splits between adjacent colours when L(v) holds just one
        # of them; the bit this sets above L(v)'s fresh colours is the new m
        starts[v + 1] = starts[v] | mv ^ mv << 1
        work = [v, *below[v]] if v else list(range(n))
        live = alive[v + 1] = _peel(nbrs, masks, k, v + 1, alive[v], work)
        if not live:
            return False  # every assignment extending this prefix packs
        slot = {c: j for j, c in enumerate(lists[v])}
        for u in below[v]:
            if masks[u] & mv:
                conflicts[v][u] = forward = {}
                conflicts[u][v] = back = {}
                for i, c in enumerate(lists[u]):
                    if c in slot:
                        forward[i] = j = slot[c]
                        back[j] = i
            else:
                conflicts[v].pop(u, None)
                conflicts[u].pop(v, None)
        return True

    steps = _odometer(n, options, take)
    left = ((lists, conflicts) for _ in steps if alive[n])  # n = 0 peels to nothing
    found = _first_unpackable(g, k, left, budget)
    return None if found is None else ListAssignment(lists=tuple(found))


def _cycle_type_representatives(k: int) -> Iterator[tuple[int, ...]]:
    """One permutation of range(k) per cycle type, in ascending order:
    the cycles, of ascending length, on consecutive slots, each mapping
    a slot to the next and the last back to the first; (1, 0, 3, 4, 2)
    for type (2, 3).  Each is the lex-first permutation of its type.
    Built lazily from the partitions of k; a k below 1 raises
    ValueError."""
    if k < 1:
        raise ValueError(f"fold k={k} must be positive")
    # Kelleher's rule_asc: parts[:m + 1] runs through the partitions of
    # k as ascending compositions, in lexicographic order
    parts, m = [0, k] + [0] * (k - 1), 1
    while m:
        x, y, m = parts[m - 1] + 1, parts[m] - 1, m - 1
        while x <= y:
            parts[m] = x
            y, m = y - x, m + 1
        parts[m] = x + y
        perm, start = list(range(1, k + 1)), 0
        for length in parts[: m + 1]:
            start += length
            perm[start - 1] = start - length
        yield tuple(perm)


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
    along the sorted edges, from an _odometer over the non-forest edges
    with no table of the k! permutations, so a large k spends budget,
    not memory, and no number of edges is too large for the Python
    stack.  The odometer's take keeps one set of slot-conflict maps: a
    turned edge (u, v) taking permutation p gets conflicts[v][u] =
    {i: p[i]} and conflicts[u][v] its inverse, exactly the maps
    CorrespondenceCover.conflicts builds from the matching
    tuple(enumerate(p)), and the forest edges share the identity.
    Every matching is a permutation of range(k), so the covers are
    valid by construction and a CorrespondenceCover is built only for
    the witness, from its maps; a k below 1 raises ValueError.
    """
    if k < 1:
        raise ValueError(f"fold k={k} must be positive")
    edges = sorted(g.edges)
    if not edges:
        # No edges: every cover packs (slot i to colouring i everywhere).
        return None
    free = _non_forest_edges(g.n, edges)
    identity = {i: i for i in range(k)}
    conflicts: list[dict[int, dict[int, int]]] = [{} for _ in range(g.n)]
    for u, v in edges:
        conflicts[u][v] = conflicts[v][u] = identity

    def options(j: int) -> Iterator[tuple[int, ...]]:
        return _cycle_type_representatives(k) if j == 0 else permutations(range(k))

    def take(j: int, p: tuple[int, ...]) -> bool:
        u, v = free[j]
        conflicts[v][u] = dict(enumerate(p))
        conflicts[u][v] = dict(zip(p, range(k)))
        return True

    steps = _odometer(len(free), options, take)
    found = _first_unpackable(g, k, ((conflicts, conflicts) for _ in steps), budget)
    if found is None:
        return None
    matchings = {(u, v): tuple(found[v][u].items()) for u, v in edges}
    return CorrespondenceCover(graph=g, k=k, matchings=matchings)
