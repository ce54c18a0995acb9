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
the B side takes uniformly random slot orderings; a scan solves each A
column once, lowest id first (constructive._fill_columns), and the first
A vertex whose conflict matrix has no 0-transversal is bad and triggers
Moser-Tardos resampling of its neighbourhood orderings.

Both packers validate their output before returning it; a returned
packing is always valid, even when the guarantees behind the retry
budgets do not hold for the instance at hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .constructive import _checked, _fill_columns, bipartite_sides, bipartition
from .core import (
    CorrespondenceCover,
    Graph,
    ListAssignment,
    Packing,
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
    """(2,1)-colouring from a bipartition; ValueError on odd cycles."""
    side1 = set(bipartition(g)[1])
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
    are sampled uniformly.  A scan solves each A column once, lowest id
    first, up to the first bad A vertex (no 0-transversal of its
    conflict matrix), whose neighbourhood is resampled; scans repeat
    until one finds none or the budget (default 10 * |A|) runs out.
    on_resample, if given, receives the bad vertex id at every
    resampling step.  A malformed cover raises ValueError.
    """
    g, k = cover.graph, cover.k
    a_side, b_side, _ = bipartite_sides(g)
    if max_resamples is None:
        max_resamples = 10 * len(a_side)
    nbrs = g.neighbours()
    rng = np.random.Generator(np.random.Philox(key=seed))

    columns: list[Optional[list[int]]] = [None] * g.n
    for b in b_side:
        columns[b] = [int(s) for s in rng.permutation(k)]

    resamples = 0
    while (bad := _fill_columns(cover, a_side, cover.conflicts, columns)) is not None:
        if resamples >= max_resamples:
            return None
        resamples += 1
        if on_resample is not None:
            on_resample(bad)
        for b in nbrs[bad]:
            columns[b] = [int(s) for s in rng.permutation(k)]

    return _checked(cover, Packing.from_columns("cover", k, columns))
