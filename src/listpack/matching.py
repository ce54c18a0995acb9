"""Deterministic maximum bipartite matching (Kuhn's augmenting paths).

Left vertices are 0..n_left-1, right vertices 0..n_right-1; the
adjacency of left vertex u is the bitmask masks[u] (bit w set iff u is
adjacent to w).  Left vertices are processed in ascending order and each
mask is scanned lowest bit first, preferring an unmatched partner, so
results are reproducible and complete adjacency yields the identity.
A greedy first pass gives each left vertex with an unmatched neighbour
the lowest one straight away; only a vertex without one starts the
augmenting-path search.  That is the partner the search would take
first, so the matchings are exactly those of the search alone.
Sizes in this package are tiny (k is a list size), so the O(V*E) bound
is irrelevant.
"""

from __future__ import annotations

from typing import Optional, Sequence


def _kuhn(
    masks: Sequence[int], n_right: int, perfect: bool
) -> Optional[tuple[list[Optional[int]], list[Optional[int]]]]:
    """(match_left, match_right) of a maximum matching; with perfect=True,
    None as soon as a left vertex stays unmatched (it never is later).

    `free` holds the unmatched right vertices.  A left vertex with a free
    neighbour takes the lowest one inline, the partner augment would
    take first; the others reset `unvisited` and search for an
    augmenting path, whose free end is one lowest-bit test of
    `avail & free`."""
    match_left: list[Optional[int]] = [None] * len(masks)
    match_right: list[Optional[int]] = [None] * n_right
    full = (1 << n_right) - 1
    free = unvisited = full

    def augment(u: int) -> bool:
        nonlocal free, unvisited
        avail = masks[u] & unvisited
        low = avail & free
        if low:
            low &= -low
            free ^= low
            w = low.bit_length() - 1
            match_left[u], match_right[w] = w, u
            return True
        while avail:
            low = avail & -avail
            w = low.bit_length() - 1
            unvisited &= ~low
            if augment(match_right[w]):
                match_left[u], match_right[w] = w, u
                return True
            avail &= unvisited
        return False

    for u, mask in enumerate(masks):
        low = mask & free
        if low:
            low &= -low
            free ^= low
            w = low.bit_length() - 1
            match_left[u], match_right[w] = w, u
            continue
        unvisited = full
        if not augment(u) and perfect:
            return None
    return match_left, match_right


def max_bipartite_matching(
    masks: Sequence[int], n_right: int
) -> tuple[list[Optional[int]], list[Optional[int]]]:
    """Return (match_left, match_right); None marks an unmatched vertex."""
    return _kuhn(masks, n_right, perfect=False)  # type: ignore[return-value]


def perfect_matching(masks: Sequence[int], n_right: int) -> Optional[list[int]]:
    """Perfect matching of the left side, or None if one does not exist."""
    found = _kuhn(masks, n_right, perfect=True)
    return None if found is None else found[0]  # type: ignore[return-value]


def hall_violator(
    masks: Sequence[int], n_right: int
) -> Optional[tuple[set[int], set[int]]]:
    """A Hall violator of the left side: (S, N(S)) with |N(S)| < |S|.

    S is the set of left vertices reachable by alternating paths from
    unmatched left vertices under a maximum matching; returns None when
    the matching saturates the left side.
    """
    match_left, match_right = max_bipartite_matching(masks, n_right)
    free = [u for u in range(len(masks)) if match_left[u] is None]
    if not free:
        return None
    reach_left = set(free)
    reach_right = 0
    frontier = list(free)
    while frontier:
        fresh = masks[frontier.pop()] & ~reach_right
        reach_right |= fresh
        while fresh:
            low = fresh & -fresh
            fresh ^= low
            back = match_right[low.bit_length() - 1]
            if back is not None and back not in reach_left:
                reach_left.add(back)
                frontier.append(back)
    return reach_left, {w for w in range(n_right) if reach_right >> w & 1}
