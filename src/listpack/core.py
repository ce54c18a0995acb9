"""Data model for graphs, list-assignments, correspondence covers and packings.

Conventions used throughout the package:

  * Vertices are 0..n-1; edges are stored once, as ordered pairs (u, v)
    with u < v.
  * Colour lists are stored sorted ascending.  The *slot index* of a
    colour is its rank in the sorted list, so the list {1, 5, 9} has
    colour 5 at slot 1.
  * A correspondence cover keeps one partial matching per edge (u, v)
    with u < v; a pair (i, j) in that matching means slot i of u
    conflicts with slot j of v.  The reverse orientation is implied by
    inverting the injection.  Edges absent from the matchings map carry
    the empty matching.
  * A packing of size k is k rows of length n.  In "list" mode the
    entries are colour identifiers; in "cover" mode they are slot
    indices 0..k-1.

All types are immutable after construction and the validators are pure
functions, so everything here is safe to share across threads.  A Graph
computes its degeneracy order and earlier-neighbour lists on first use
and keeps them (as tuples) for its lifetime; a CorrespondenceCover does
the same with its slot conflict maps, checking itself as it builds them.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

SCHEMA_VERSION = "listpack/1"


def checked_int(x, what: str) -> int:
    """x itself when it is an int; ValueError otherwise.  JSON true and
    1.5 are not integers, though int() takes them."""
    if type(x) is not int:  # bool is a subclass of int
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
            e = (u, v) if u < v else (v, u)
            if e in norm:
                raise ValueError(f"duplicate edge {e}")
            norm.add(e)
        return Graph(n=n, edges=frozenset(norm))

    def neighbours(self) -> list[set[int]]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return nbrs

    def degrees(self) -> list[int]:
        return [len(s) for s in self.neighbours()]

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    @cached_property
    def peel(self) -> tuple[tuple[int, ...], int]:
        """degeneracy_order(self), computed once per instance."""
        return degeneracy_order(self)

    @cached_property
    def earlier(self) -> tuple[tuple[int, ...], ...]:
        """earlier[v]: the neighbours of v that precede it in the
        degeneracy order, ascending."""
        pos = [0] * self.n
        for i, v in enumerate(self.peel[0]):
            pos[v] = i
        earlier: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            if pos[u] < pos[v]:
                earlier[v].append(u)
            else:
                earlier[u].append(v)
        return tuple(map(tuple, earlier))


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex colour lists; each list is a sorted tuple of distinct
    non-negative integers (see checked_int)."""

    lists: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_lists(lists: Iterable[Iterable[int]]) -> "ListAssignment":
        out = []
        for i, lst in enumerate(lists):
            t = tuple(sorted(checked_int(c, f"colour of vertex {i}") for c in lst))
            if len(set(t)) != len(t):
                raise ValueError(f"duplicate colour in list of vertex {i}")
            if any(c < 0 for c in t):
                raise ValueError(f"negative colour in list of vertex {i}")
            out.append(t)
        return ListAssignment(lists=tuple(out))

    @property
    def n(self) -> int:
        return len(self.lists)

    def uniform_size(self) -> int:
        """Common list size k; raises if the lists are not all equal length."""
        sizes = {len(lst) for lst in self.lists}
        if len(sizes) != 1:
            raise ValueError(f"lists have unequal sizes {sorted(sizes)}")
        return sizes.pop()


@dataclass(frozen=True)
class CorrespondenceCover:
    """A k-fold correspondence cover: per-vertex parts of k slots and a
    partial matching of slot pairs per edge.

    ``lists`` is populated when the cover was derived from a list
    assignment (see :func:`list_to_cover`); it lets list-mode packings be
    validated against the cover they came from.
    """

    graph: Graph
    k: int
    matchings: Mapping[tuple[int, int], tuple[tuple[int, int], ...]]
    lists: Optional[ListAssignment] = field(default=None, compare=False)

    @staticmethod
    def from_matchings(
        graph: Graph,
        k: int,
        matchings: Mapping[tuple[int, int], Iterable[tuple[int, int]]],
    ) -> "CorrespondenceCover":
        norm = {}
        for (u, v), pairs in matchings.items():
            if u >= v:
                raise ValueError(f"matching key ({u},{v}) must satisfy u < v")
            norm[(u, v)] = tuple(sorted(tuple(p) for p in pairs))
        return CorrespondenceCover(graph=graph, k=k, matchings=norm)

    def matching(self, u: int, v: int) -> tuple[tuple[int, int], ...]:
        """Matching pairs oriented from u to v (inverted if u > v)."""
        if u < v:
            return self.matchings.get((u, v), ())
        return tuple((j, i) for i, j in self.matchings.get((v, u), ()))

    @property
    def conflicts(self) -> tuple[dict[int, dict[int, int]], ...]:
        """conflicts[v][u][s]: the slot of v that conflicts with slot s of
        the neighbour u.  Edges with empty matchings are left out.
        Building the maps checks the cover: a ValueError names its first
        violation in ascending edge order.  Computed once per instance
        and shared: callers must not modify it."""
        # cached by hand: functools.cached_property takes a lock on first
        # use before Python 3.12, which every fresh cover would pay
        cached = self.__dict__.get("_conflicts")
        if cached is not None:
            return cached
        g, k = self.graph, self.k
        if k < 1:
            raise ValueError(f"fold k={k} must be positive")
        conf: list[dict[int, dict[int, int]]] = [{} for _ in range(g.n)]
        for (u, v), pairs in sorted(self.matchings.items()):
            if (u, v) not in g.edges:
                raise ValueError(f"matching on non-edge ({u},{v})")
            if not pairs:
                continue
            conf[v][u] = forward = {}
            conf[u][v] = back = {}
            for i, j in pairs:
                if not (0 <= i < k and 0 <= j < k):
                    raise ValueError(
                        f"edge ({u},{v}): slot pair ({i},{j}) out of range 0..{k - 1}"
                    )
                if i in forward:
                    raise ValueError(f"edge ({u},{v}): slot {i} of {u} matched twice")
                if j in back:
                    raise ValueError(f"edge ({u},{v}): slot {j} of {v} matched twice")
                forward[i] = j
                back[j] = i
        self.__dict__["_conflicts"] = cached = tuple(conf)
        return cached


def barred_slots(
    k: int,
    conflicts_v: Mapping[int, Mapping[int, int]],
    sources: Iterable[int],
    columns: Sequence[Sequence[int]],
) -> list[int]:
    """barred[i]: bitmask of the slots of v that conflict with
    columns[u][i] for some u in sources.

    conflicts_v is cover.conflicts[v]; columns[u] holds the k slots the
    fixed vertex u gives its colourings, one per colouring.
    """
    barred = [0] * k
    for u in sources:
        edge = conflicts_v.get(u)
        if edge is not None:
            for i, t in enumerate(columns[u]):
                s = edge.get(t)
                if s is not None:
                    barred[i] |= 1 << s
    return barred


@dataclass(frozen=True)
class Packing:
    """k mutually disjoint proper colourings, stored row-per-colouring."""

    k: int
    mode: str  # "list" or "cover"
    colourings: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(mode: str, rows: Iterable[Iterable[int]]) -> "Packing":
        t = tuple(tuple(r) for r in rows)
        if mode not in ("list", "cover"):
            raise ValueError(f"unknown packing mode {mode!r}")
        return Packing(k=len(t), mode=mode, colourings=t)

    @staticmethod
    def from_columns(
        mode: str, k: int, columns: Sequence[Sequence[int]]
    ) -> "Packing":
        """Colouring i gives vertex v the entry columns[v][i]; k empty
        colourings when there are no vertices."""
        return Packing.from_rows(mode, zip(*columns) if columns else [()] * k)


def validate_cover(cover: CorrespondenceCover) -> Optional[str]:
    """Return None if the cover satisfies all invariants, else the message
    of the ValueError that building cover.conflicts raises."""
    try:
        cover.conflicts
    except ValueError as exc:
        return str(exc)
    return None


def validate_packing(cover: CorrespondenceCover, p: Packing) -> Optional[str]:
    """Return None if p is a valid packing of the cover, else a message.

    Both modes are checked on slots.  A list-mode packing needs the
    cover's source lists: its colours are checked against them, then
    translated to slots.  Sound because only list_to_cover sets
    cover.lists, and its matchings are exactly the equal-colour slot pairs.
    """
    g = cover.graph
    if p.k != cover.k:
        return f"packing size {p.k} != cover fold {cover.k}"
    for row in p.colourings:
        if len(row) != g.n:
            return f"colouring has {len(row)} entries, expected {g.n}"
    if p.mode == "list":
        if cover.lists is None:
            return "list-mode packing but cover has no source lists"
        for v, allowed in enumerate(cover.lists.lists):
            for i, row in enumerate(p.colourings):
                if row[v] not in allowed:
                    return f"vertex {v}: colour {row[v]} of colouring {i} not in its list"
        p = packing_to_slots(cover.lists, p)
    for v in range(g.n):
        column = [row[v] for row in p.colourings]
        for i, s in enumerate(column):
            if not (0 <= s < cover.k):
                return f"vertex {v}: slot {s} of colouring {i} out of range"
        if len(set(column)) != len(column):
            return f"vertex {v}: colourings not disjoint"
    for (u, v), pairs in sorted(cover.matchings.items()):
        forbidden = set(pairs)
        for i, row in enumerate(p.colourings):
            if (row[u], row[v]) in forbidden:
                return f"edge ({u},{v}): colouring {i} uses matched slot pair"
    return None


def list_to_cover(g: Graph, lists: ListAssignment) -> CorrespondenceCover:
    """The list-cover: slot i of u conflicts with slot j of v exactly when
    the i-th colour of L(u) equals the j-th colour of L(v)."""
    if lists.n != g.n:
        raise ValueError(f"{lists.n} lists for {g.n} vertices")
    k = lists.uniform_size()
    slot = [{c: j for j, c in enumerate(lst)} for lst in lists.lists]
    matchings = {}
    for u, v in sorted(g.edges):
        slot_v = slot[v]
        pairs = tuple(
            (i, slot_v[c]) for i, c in enumerate(lists.lists[u]) if c in slot_v
        )
        if pairs:
            matchings[(u, v)] = pairs
    # keys are u < v and pairs ascend in slot of u: already normalised
    return CorrespondenceCover(graph=g, k=k, matchings=matchings, lists=lists)


def packing_to_slots(lists: ListAssignment, p: Packing) -> Packing:
    """Translate a list-mode packing to slot indices."""
    if p.mode != "list":
        raise ValueError("expected a list-mode packing")
    rows = []
    for row in p.colourings:
        rows.append(
            tuple(lists.lists[v].index(c) for v, c in enumerate(row))
        )
    return Packing.from_rows("cover", rows)


def slots_to_colours(lists: ListAssignment, p: Packing) -> Packing:
    """Translate a cover-mode packing back to colour identifiers."""
    if p.mode != "cover":
        raise ValueError("expected a cover-mode packing")
    rows = []
    for row in p.colourings:
        rows.append(tuple(lists.lists[v][s] for v, s in enumerate(row)))
    return Packing.from_rows("list", rows)


def degeneracy_order(g: Graph) -> tuple[tuple[int, ...], int]:
    """Order where every vertex has at most d earlier neighbours, and the
    degeneracy d itself (min-degree peeling, ties to the smaller vertex,
    removal order reversed).  Heap entries whose degree is stale are
    skipped when popped; a removed vertex has only stale ones left."""
    nbrs = g.neighbours()
    deg = [len(s) for s in nbrs]
    heap = [(dv, v) for v, dv in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * g.n
    removal: list[int] = []
    d = 0
    while heap:
        dv, v = heapq.heappop(heap)
        if dv != deg[v]:
            continue
        d = max(d, dv)
        removed[v] = True
        removal.append(v)
        for w in nbrs[v]:
            if not removed[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return tuple(reversed(removal)), d


# ---------------------------------------------------------------------------
# JSON instance formats (all arrays 0-indexed):
#   list mode:  {"n": int, "edges": [[u,v],...], "lists": [[c,...],...]}
#   cover mode: {"n", "edges", "k", "matchings": {"u-v": [[i,j],...]}}
#   packing:    {"k", "mode": "list"|"cover", "colourings": [[...],...]}
# ---------------------------------------------------------------------------


class InstanceFormatError(ValueError):
    """Raised when an instance/packing JSON document is malformed."""


def _graph_from_obj(obj: dict) -> Graph:
    try:
        n = checked_int(obj["n"], "n")
        edges = [
            (checked_int(u, "edge endpoint"), checked_int(v, "edge endpoint"))
            for u, v in obj["edges"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad graph object: {exc}") from exc
    try:
        return Graph.from_edges(n, edges)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def instance_from_obj(obj: dict):
    """Parse an instance dict; returns either (Graph, ListAssignment) for
    list mode or a CorrespondenceCover for cover mode.  An instance with
    both 'lists' and 'matchings', lists that are empty or of unequal
    size, and matching keys other than "u-v" in plain decimal with u < v
    (so no signs, spaces or leading zeros) are rejected."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance must be a JSON object")
    if "lists" in obj and "matchings" in obj:
        raise InstanceFormatError("instance has both 'lists' and 'matchings'")
    g = _graph_from_obj(obj)
    if "lists" in obj:
        try:
            lists = ListAssignment.from_lists(obj["lists"])
            k = lists.uniform_size()
        except (TypeError, ValueError) as exc:
            raise InstanceFormatError(f"bad lists: {exc}") from exc
        if k < 1:
            raise InstanceFormatError("lists are empty")
        if lists.n != g.n:
            raise InstanceFormatError(f"{lists.n} lists for {g.n} vertices")
        return g, lists
    if "matchings" in obj:
        if not isinstance(obj["matchings"], dict):
            raise InstanceFormatError("'matchings' must be a JSON object")
        try:
            k = checked_int(obj["k"], "k")
            matchings = {}
            for key, pairs in obj["matchings"].items():
                u, v = map(int, key.split("-"))
                if key != f"{u}-{v}":  # one spelling per edge, as written out
                    raise ValueError(f"matching key {key!r} is not of the form u-v")
                matchings[(u, v)] = [
                    (checked_int(i, "slot"), checked_int(j, "slot"))
                    for i, j in pairs
                ]
            cover = CorrespondenceCover.from_matchings(g, k, matchings)
        except (KeyError, TypeError, ValueError) as exc:
            raise InstanceFormatError(f"bad cover object: {exc}") from exc
        err = validate_cover(cover)
        if err is not None:
            raise InstanceFormatError(err)
        return cover
    raise InstanceFormatError("instance needs either 'lists' or 'matchings'")


def instance_to_obj(instance) -> dict:
    if isinstance(instance, CorrespondenceCover):
        g = instance.graph
        return {
            "n": g.n,
            "edges": [list(e) for e in sorted(g.edges)],
            "k": instance.k,
            "matchings": {
                f"{u}-{v}": [list(p) for p in pairs]
                for (u, v), pairs in sorted(instance.matchings.items())
            },
        }
    g, lists = instance
    return {
        "n": g.n,
        "edges": [list(e) for e in sorted(g.edges)],
        "lists": [list(lst) for lst in lists.lists],
    }


def packing_from_obj(obj: dict) -> Packing:
    try:
        rows = [[checked_int(c, "packing entry") for c in r] for r in obj["colourings"]]
        return Packing.from_rows(obj["mode"], rows)
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceFormatError(f"bad packing object: {exc}") from exc


def packing_to_obj(p: Packing) -> dict:
    return {
        "k": p.k,
        "mode": p.mode,
        "colourings": [list(row) for row in p.colourings],
    }


def dumps(obj: dict) -> str:
    """Single-line JSON with deterministic key order."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
