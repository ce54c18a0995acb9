"""Deterministic bipartite matching (Kuhn's augmenting paths).

Rows are 0..len(masks)-1, columns 0..n_right-1; the adjacency of row u
is the bitmask masks[u] (bit w set iff u is adjacent to w).  Rows are
matched in ascending order and each mask is scanned lowest bit first,
preferring an unmatched column, so results are reproducible and
complete adjacency yields the identity.  A greedy first pass gives each
row with an unmatched neighbour the lowest one straight away; only a
row without one starts the augmenting-path search.  That is the column
the search would take first, so the matchings are exactly those of the
search alone.  The search is one loop over an explicit path, so its
depth (up to the number of rows) is not limited by the Python stack.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union


def _kuhn(
    masks: Sequence[int], n_right: int
) -> Union[list[int], tuple[set[int], set[int]]]:
    """match_left of a perfect matching of the rows or, for the first row
    u that no augmenting path matches, the Hall violator (S, N(S)) its
    search found: u and the partners of the columns it reached, and
    those columns, so |N(S)| = |S| - 1.

    `free` holds the unmatched columns and `unvisited` the columns the
    search from u has not reached.  `path` is the alternating path from
    u: each row after u is the partner of the column its predecessor
    tried last, so that column is still its match_left.  The last row
    tries its unvisited columns lowest first, a free one before any
    other; a row with none left is dropped, and its predecessor tries
    its next column.  That is the order of the textbook recursive
    search, so the matchings are its matchings."""
    match_left = [0] * len(masks)
    match_right = [0] * n_right
    full = (1 << n_right) - 1
    free = full
    for u, mask in enumerate(masks):
        low = mask & free
        if low:
            low &= -low
            free ^= low
            w = low.bit_length() - 1
            match_left[u], match_right[w] = w, u
            continue
        unvisited = full
        path = [u]
        while path:
            avail = masks[path[-1]] & unvisited
            low = avail & free
            if low:
                low &= -low
                free ^= low
                w = low.bit_length() - 1
                for row in reversed(path):
                    match_right[w] = row
                    match_left[row], w = w, match_left[row]
                break
            if avail:
                low = avail & -avail
                unvisited ^= low
                path.append(match_right[low.bit_length() - 1])
            else:
                path.pop()
        else:
            reached = {w for w in range(n_right) if not unvisited >> w & 1}
            return {u} | {match_right[w] for w in reached}, reached
    return match_left


def perfect_matching(masks: Sequence[int], n_right: int) -> Optional[list[int]]:
    """Perfect matching of the rows (the column of each), or None if one
    does not exist."""
    found = _kuhn(masks, n_right)
    return found if isinstance(found, list) else None


def hall_violator(
    masks: Sequence[int], n_right: int
) -> Optional[tuple[set[int], set[int]]]:
    """A tight Hall violator of the rows: (S, N(S)) with |N(S)| = |S| - 1,
    or None when the rows have a perfect matching.

    S is the first row that stays unmatched (rows are matched in
    ascending order) together with the rows reachable from it by
    alternating paths, and N(S) the columns those paths reach.
    """
    found = _kuhn(masks, n_right)
    return None if isinstance(found, list) else found
