"""Randomized packers.

pack_fractional turns a proper fractional (a,b)-colouring into an
L-packing: every colour in the union of lists gets a uniformly random
vector in {0..a-1}^k, each vertex stacks its k list-colour vectors into
a k x k matrix, and a round succeeds when every vertex's matrix has a
transversal through values of its own fractional colour class.  The
transversal decodes into k disjoint proper colourings: disjoint because
the transversal is a permutation of list positions, proper because
adjacent colour classes are disjoint so adjacent vertices can never
accept the same vector entry.

pack_bipartite_lll packs a correspondence cover of a bipartite graph:
the B side takes uniformly random slot orderings, an A vertex is bad
when its conflict matrix (colouring i vs own slot s) has no
0-transversal, and bad vertices trigger Moser-Tardos resampling of
their neighbourhood orderings, lowest vertex id first.

Both packers validate their output before returning it; a returned
packing is always valid, even when the guarantees behind the retry
budgets do not hold for the instance at hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constructive import _checked, bipartite_sides, bipartition
from .core import (
    CorrespondenceCover,
    Graph,
    ListAssignment,
    Packing,
    barred_slots,
    list_to_cover,
)
from .matching import perfect_matching


@dataclass(frozen=True)
class FractionalColoring:
    """Proper (a,b)-colouring: each vertex gets a b-subset of {0..a-1},
    adjacent vertices disjoint subsets."""

    a: int
    b: int
    assignment: tuple[frozenset[int], ...]

    @classmethod
    def from_sets(cls, a: int, b: int, sets) -> "FractionalColoring":
        return cls(a, b, tuple(frozenset(s) for s in sets))


def validate_fractional(g: Graph, fc: FractionalColoring) -> Optional[str]:
    if len(fc.assignment) != g.n:
        return f"assignment covers {len(fc.assignment)} vertices, graph has {g.n}"
    for v, s in enumerate(fc.assignment):
        if len(s) != fc.b:
            return f"vertex {v}: class size {len(s)} != b = {fc.b}"
        if any(not (0 <= c < fc.a) for c in s):
            return f"vertex {v}: colour outside 0..{fc.a - 1}"
    for u, v in sorted(g.edges):
        if fc.assignment[u] & fc.assignment[v]:
            return f"edge ({u},{v}): classes intersect"
    return None


def fc_from_bipartition(g: Graph) -> FractionalColoring:
    """(2,1)-colouring from a bipartition; raises on odd cycles."""
    parts = bipartition(g)
    if parts is None:
        raise ValueError("graph is not bipartite")
    side1 = set(parts[1])
    return FractionalColoring.from_sets(
        2, 1, [{1} if v in side1 else {0} for v in range(g.n)]
    )


def fc_from_colouring(colours: list[int]) -> FractionalColoring:
    """(t,1)-colouring from a proper colouring with colours 0..t-1."""
    t = max(colours) + 1 if colours else 1
    return FractionalColoring.from_sets(t, 1, [{c} for c in colours])


def pack_fractional(
    g: Graph,
    lists: ListAssignment,
    fc: FractionalColoring,
    max_rounds: int = 100,
    seed: int = 0,
) -> Optional[Packing]:
    """Sample colour vectors until every vertex matrix has a transversal
    through its fractional class; None after max_rounds failures."""
    err = validate_fractional(g, fc)
    if err is not None:
        raise ValueError(err)
    k = lists.uniform_size()
    palette = sorted({c for lst in lists.lists for c in lst})
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(max_rounds):
        x = {ell: rng.integers(0, fc.a, size=k).tolist() for ell in palette}
        columns = []
        for v in range(g.n):
            lv = lists.lists[v]
            cv = fc.assignment[v]
            masks = [
                sum(1 << s for s, ell in enumerate(lv) if x[ell][i] in cv)
                for i in range(k)
            ]
            sigma = perfect_matching(masks, k)
            if sigma is None:
                break
            columns.append([lv[s] for s in sigma])
        else:
            packing = Packing.from_columns("list", k, columns)
            return _checked(list_to_cover(g, lists), packing)
    return None


def pack_bipartite_lll(
    cover: CorrespondenceCover,
    max_resamples: Optional[int] = None,
    seed: int = 0,
    on_resample: Optional[Callable[[int], None]] = None,
) -> Optional[Packing]:
    """Moser-Tardos packer for covers of bipartite graphs.

    A is the part with the smaller maximum degree; B-side slot orderings
    are sampled uniformly, bad A vertices (no 0-transversal of their
    conflict matrix) have their neighbourhoods resampled until none are
    left or the budget (default 10 * |A|) runs out.  on_resample,
    if given, receives the bad vertex id at every resampling step.  A
    malformed cover raises ValueError.
    """
    g, k = cover.graph, cover.k
    a_side, b_side, _ = bipartite_sides(g)
    if max_resamples is None:
        max_resamples = 10 * len(a_side)
    conflicts = cover.conflicts
    nbrs = g.neighbours()
    full = (1 << k) - 1
    rng = np.random.Generator(np.random.Philox(key=seed))

    ordering: dict[int, list[int]] = {
        b: [int(s) for s in rng.permutation(k)] for b in b_side
    }

    def zero_trans(a: int) -> Optional[list[int]]:
        # a 0-transversal of the conflict matrix of a: colouring i takes
        # a slot that no neighbour's colouring-i slot collides with
        barred = barred_slots(k, conflicts[a], nbrs[a], ordering)
        return perfect_matching([full & ~m for m in barred], k)

    resamples = 0
    while True:
        bad = next((a for a in a_side if zero_trans(a) is None), None)
        if bad is None:
            break
        if resamples >= max_resamples:
            return None
        resamples += 1
        if on_resample is not None:
            on_resample(bad)
        for b in nbrs[bad]:
            ordering[b] = [int(s) for s in rng.permutation(k)]

    columns = [ordering[v] if v in ordering else zero_trans(v) for v in range(g.n)]
    return _checked(cover, Packing.from_columns("cover", k, columns))
