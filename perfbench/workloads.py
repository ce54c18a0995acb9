"""The three workloads: input generators, jobs and output checks.

Inputs come only from ``random.Random(seed)`` and from properties that
hold by construction (a planted packing, a degeneracy order, a degree
cap), never from the code under test, so set-up cost and expected
answers do not move when the program changes.  Every job is one
``listpack.cli.main([...])`` call writing its record to an ``-o`` file.

Jobs fall into three parts per workload, reported as ``part_a_s``,
``part_b_s`` and ``part_c_s``:

=========== ================= ================= ===================
workload    part a            part b            part c
=========== ================= ================= ===================
exact       chi-star list     chi-star corr     solve
montecarlo  perm-zero k=12    perm-zero k=8     zero-transversal
construct   pack degenerate   pack augment      bip-lll + fractional
=========== ================= ================= ===================
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Optional

from listpack import cli, core

#: the seed whose Monte Carlo records are pinned in MC_RECORDED
DEFAULT_SEED = 1

#: keys of a record that carry the answer; the fingerprint hashes these
ANSWER_KEYS = ("result", "k", "packing", "witness", "estimate", "ci")


@dataclass
class Job:
    """One CLI call, the exit code it must return and its output check."""

    name: str
    part: str
    argv: list
    expect: int
    check: Callable[[dict], Optional[str]]


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, separators=(",", ":")))
    return path


# ---------------------------------------------------------------------------
# graph and instance generators (random.Random only)
# ---------------------------------------------------------------------------


def cycle(n: int) -> list:
    return path(n) + [(0, n - 1)]


def path(n: int) -> list:
    return [(i, i + 1) for i in range(n - 1)]


def clique(n: int) -> list:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def degenerate_graph(rng: random.Random, n: int, d: int, cap: int = 0) -> list:
    """Edges where every vertex joins at most d earlier ones, so the
    graph is d-degenerate; with cap > 0 no vertex exceeds degree cap."""
    deg = [0] * n
    edges = []
    for v in range(1, n):
        pool = [u for u in range(v) if deg[u] < cap] if cap else range(v)
        for u in rng.sample(pool, min(len(pool), d)):
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return edges


def max_degree(n: int, edges: list) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def random_cover(rng: random.Random, n: int, edges: list, k: int) -> dict:
    """Cover object with a uniformly random perfect matching per edge."""
    matchings = {}
    for u, v in sorted((min(e), max(e)) for e in edges):
        perm = list(range(k))
        rng.shuffle(perm)
        matchings[f"{u}-{v}"] = [[i, perm[i]] for i in range(k)]
    return {"n": n, "edges": [list(e) for e in edges], "k": k, "matchings": matchings}


def planted_lists(rng: random.Random, n: int, k: int, p: float, palette: int) -> dict:
    """Random G(n, p) with k-lists built from k disjoint proper
    colourings, so an L-packing exists by construction."""
    edges = [(u, v) for u, v in clique(n) if rng.random() < p]
    earlier = [[u for u, w in edges if w == v] for v in range(n)]
    rows = None
    while rows is None:
        rows = _plant(rng, n, k, earlier, palette)
    lists = [sorted(rows[i][v] for i in range(k)) for v in range(n)]
    return {"n": n, "edges": [list(e) for e in edges], "lists": lists}


def _plant(rng: random.Random, n: int, k: int, earlier: list, palette: int):
    """k disjoint proper colourings drawn greedily, or None if stuck."""
    rows = [[0] * n for _ in range(k)]
    for v in range(n):
        used: set = set()
        for i in range(k):
            options = [
                c
                for c in range(1, palette + 1)
                if c not in used and all(rows[i][u] != c for u in earlier[v])
            ]
            if not options:
                return None
            rows[i][v] = rng.choice(options)
            used.add(rows[i][v])
    return rows


def regular_bipartite(rng: random.Random, side: int, degree: int) -> list:
    """A degree-regular simple bipartite graph on side + side vertices: a
    circulant with random offsets under random relabellings of both sides."""
    sigma = list(range(side))
    rng.shuffle(sigma)
    pi = list(range(side))
    rng.shuffle(pi)
    offsets = rng.sample(range(side), degree)
    return [(a, side + pi[(sigma[a] + o) % side]) for a in range(side) for o in offsets]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _parse_instance_cover(obj: dict) -> core.CorrespondenceCover:
    inst = core.instance_from_obj(obj)
    if isinstance(inst, core.CorrespondenceCover):
        return inst
    return core.list_to_cover(*inst)


def packing_check(instance: dict) -> Callable[[dict], Optional[str]]:
    """The record holds a packing that core.validate_packing accepts."""

    def check(record: dict) -> Optional[str]:
        if record.get("result") != "packing":
            return f"expected a packing, got {record.get('result')!r}"
        packing = core.packing_from_obj(record["packing"])
        return core.validate_packing(_parse_instance_cover(instance), packing)

    return check


def result_check(result: str) -> Callable[[dict], Optional[str]]:
    def check(record: dict) -> Optional[str]:
        if record.get("result") != result:
            return f"expected {result!r}, got {record.get('result')!r}"
        return None

    return check


def _has_packing(n: int, edges: list, parts: list, clash) -> bool:
    """Brute force over every column permutation of every vertex; the
    reference for witness checks on graphs of at most five vertices."""
    columns = [list(permutations(part)) for part in parts]
    for choice in product(*columns):
        if all(
            not clash(u, v, choice[u][i], choice[v][i])
            for u, v in edges
            for i in range(len(parts[0]))
        ):
            return True
    return False


def witness_check(mode: str, n: int, edges: list, k: int) -> Callable[[dict], Optional[str]]:
    """A well-formed witness on the decided graph, of fold k, that admits
    no packing (checked by brute force)."""
    want_edges = sorted(sorted(e) for e in edges)

    def check(record: dict) -> Optional[str]:
        if record.get("result") != "witness" or record.get("k") != k:
            return f"expected a witness at k={k}, got {record.get('result')!r}"
        w = record["witness"]
        if w.get("n") != n or sorted(sorted(e) for e in w.get("edges", [])) != want_edges:
            return "witness is on another graph"
        inst = core.instance_from_obj(w)
        if mode == "list":
            _, lists = inst
            if any(len(lst) != k for lst in lists.lists):
                return f"witness lists are not all of size {k}"
            parts = [list(lst) for lst in lists.lists]
            clash = lambda u, v, a, b: a == b  # noqa: E731
        else:
            if inst.k != k:
                return f"witness cover has fold {inst.k}, expected {k}"
            pairs = {e: set(inst.matching(*e)) for e in map(tuple, want_edges)}
            parts = [list(range(k))] * n
            clash = lambda u, v, a, b: (a, b) in pairs[(u, v)]  # noqa: E731
        if _has_packing(n, [tuple(e) for e in want_edges], parts, clash):
            return "witness admits a packing"
        return None

    return check


def estimate_check(job: str, trials: int, seed: int) -> Callable[[dict], Optional[str]]:
    """Well-formed (estimate, ci); bit-identical to the pinned record when
    one exists for this job, trial count and seed."""
    pinned = MC_RECORDED.get((job, trials, seed))

    def check(record: dict) -> Optional[str]:
        est, ci = record.get("estimate"), record.get("ci")
        if not isinstance(est, float) or not isinstance(ci, float):
            return "estimate and ci must be floats"
        if not (0.0 <= est <= 1.0 and 0.0 < ci <= 1.0):
            return f"estimate {est} or ci {ci} out of range"
        if abs(est * trials - round(est * trials)) > 1e-6:
            return f"estimate {est} is not a count over {trials} trials"
        if pinned is not None and (est, ci) != pinned:
            return f"(estimate, ci) = {(est, ci)} differs from pinned {pinned}"
        return None

    return check


#: (job, trials, seed) -> (estimate, ci) recorded with listpack 0.1.0
MC_RECORDED = {
    ("pz-0", 500, 1): (0.004, 0.007270959779625866),
    ("pzf-0", 500, 1): (0.712, 0.05216369153767793),
    ("zt-0", 500, 1): (1.0, 0.009168055107232398),
    ("pz-0", 2500, 1): (0.0064, 0.004108117470655284),
    ("pz-1", 2500, 1): (0.0056, 0.003844338726403321),
    ("pz-2", 2500, 1): (0.0048, 0.0035605974592595713),
    ("pz-3", 2500, 1): (0.006, 0.003978468214199556),
    ("pz-4", 2500, 1): (0.0048, 0.0035605974592595713),
    ("pz-5", 2500, 1): (0.008, 0.00458931539233051),
    ("pz-6", 2500, 1): (0.0052, 0.0037052424871373097),
    ("pz-7", 2500, 1): (0.006, 0.003978468214199556),
    ("pzf-0", 4000, 1): (0.6845, 0.018926638708658697),
    ("pzf-1", 4000, 1): (0.68025, 0.0189944461949216),
    ("pzf-2", 4000, 1): (0.68125, 0.01897865531252028),
    ("pzf-3", 4000, 1): (0.6845, 0.018926638708658697),
    ("pzf-4", 4000, 1): (0.6775, 0.019037354327869318),
    ("pzf-5", 4000, 1): (0.68975, 0.018840344234212502),
    ("pzf-6", 4000, 1): (0.69425, 0.018764122562272476),
    ("pzf-7", 4000, 1): (0.66825, 0.019176177164600332),
    ("zt-0", 1250, 1): (1.0, 0.003677358045582335),
    ("zt-1", 1250, 1): (1.0, 0.003677358045582335),
    ("zt-2", 1250, 1): (1.0, 0.003677358045582335),
    ("zt-3", 1250, 1): (1.0, 0.003677358045582335),
    ("zt-4", 1250, 1): (1.0, 0.003677358045582335),
    ("zt-5", 1250, 1): (1.0, 0.003677358045582335),
    ("zt-6", 1250, 1): (1.0, 0.003677358045582335),
    ("zt-7", 1250, 1): (1.0, 0.003677358045582335),
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

GRAPHS = {
    "C4": (4, cycle(4)),
    "C5": (5, cycle(5)),
    "P4": (4, path(4)),
    "P5": (5, path(5)),
    "K3": (3, clique(3)),
    "K4": (4, clique(4)),
}

#: (mode, graph, k, expected result); the witness rows are the fast cases
DECIDERS = (
    ("list", "P4", 3, "all-pack"),
    ("list", "C4", 3, "all-pack"),
    ("list", "K3", 5, "all-pack"),
    ("list", "C4", 2, "witness"),
    ("list", "K4", 3, "witness"),
    ("corr", "C4", 4, "all-pack"),
    ("corr", "P5", 4, "all-pack"),
    ("corr", "K3", 5, "all-pack"),
    ("corr", "C5", 3, "witness"),
)

#: extremal instances from `listpack gen`; none of them packs
GEN_FAMILIES = (["c4"], ["kab-cover"], ["shift"], ["kbb", "--b", "3"])


def setup_exact(seed: int, workdir: str, tiny: bool) -> list:
    rng = random.Random(seed)
    jobs = []
    for mode, gname, k, expected in DECIDERS:
        if tiny and expected == "all-pack" and k > 3:
            continue
        n, edges = GRAPHS[gname]
        graph = write_json(os.path.join(workdir, f"{gname}.json"), {"n": n, "edges": edges})
        check = (
            result_check("all-pack")
            if expected == "all-pack"
            else witness_check(mode, n, edges, k)
        )
        part = "a" if mode == "list" else "b"
        code = cli.EXIT_OK if expected == "all-pack" else cli.EXIT_NONE
        jobs.append(
            Job(
                f"chi-{mode}-{gname}-k{k}",
                part,
                ["chi-star", mode, graph, "--k", str(k)],
                code,
                check,
            )
        )
    for family in GEN_FAMILIES:
        out = os.path.join(workdir, f"gen-{family[0]}.json")
        if cli.main(["gen", *family, "-o", out]) != cli.EXIT_OK:
            raise RuntimeError(f"listpack gen {' '.join(family)} failed")
        check = result_check("none")
        jobs.append(Job(f"solve-{family[0]}", "c", ["solve", out], cli.EXIT_NONE, check))
    for i in range(10 if tiny else 600):
        inst = planted_lists(rng, n=9, k=3, p=0.4, palette=7)
        path_ = write_json(os.path.join(workdir, f"planted-{i}.json"), inst)
        check = packing_check(inst)
        jobs.append(Job(f"solve-planted-{i}", "c", ["solve", path_], cli.EXIT_OK, check))
    return jobs


#: (kind, argv without --trials/--seed, trials per chunk); a pass runs
#: MC_CHUNKS chunks of each kind, each a CLI call with its own seed, so
#: that calibration loops fall every few tenths of a second
MC_JOBS = (
    ("pz", ["matrix", "perm-zero", "--k", "12", "--p", "0.5"], 2500),
    ("pzf", ["matrix", "perm-zero", "--k", "8", "--p", "0.7"], 4000),
    ("zt", ["matrix", "zero-transversal", "--n", "30", "--k", "11"], 1250),
)
MC_CHUNKS = 8

#: trials of the single chunk per kind with the tiny inputs
MC_TINY_TRIALS = 500

#: trials of the warm-up call of each estimator made during set-up
MC_WARMUP_TRIALS = 200


def setup_montecarlo(seed: int, workdir: str, tiny: bool) -> list:
    rng = random.Random(seed)
    jobs = []
    for part, (kind, argv, trials) in zip("abc", MC_JOBS):
        warm = os.path.join(workdir, f"warmup-{kind}.json")
        warm_argv = [*argv, "--trials", str(MC_WARMUP_TRIALS), "--seed", str(seed)]
        if cli.main([*warm_argv, "-o", warm]) != cli.EXIT_OK:
            raise RuntimeError(f"warm-up of {kind} failed")
        trials = MC_TINY_TRIALS if tiny else trials
        for chunk in range(1 if tiny else MC_CHUNKS):
            name = f"{kind}-{chunk}"
            job_argv = [*argv, "--trials", str(trials), "--seed", str(rng.randrange(2**31))]
            check = estimate_check(name, trials, seed)
            jobs.append(Job(name, part, job_argv, cli.EXIT_OK, check))
    return jobs


def setup_construct(seed: int, workdir: str, tiny: bool) -> list:
    rng = random.Random(seed)
    jobs = []

    # pack_degenerate needs k >= 2 * degeneracy; the graphs are built
    # 2-degenerate, so k = 4 holds whatever order the program computes.
    # Three graphs rather than one of n = 4000 keep the quadratic
    # degeneracy order's work (3 * 2000^2 against 4000^2) in jobs short
    # enough for the calibration loops around them to track the host
    count, n, d = (1, 300, 2) if tiny else (3, 2000, 2)
    for i in range(count):
        inst = random_cover(rng, n, degenerate_graph(rng, n, d), 2 * d)
        f = write_json(os.path.join(workdir, f"degenerate-{i}.json"), inst)
        argv = ["pack", f, "--method", "degenerate"]
        jobs.append(Job(f"degenerate-{i}", "a", argv, cli.EXIT_OK, packing_check(inst)))

    # pack_augment needs k >= 1 + Delta + chi_c_bound; 1 + d bounds the
    # correspondence chromatic number of a d-degenerate graph, and the
    # degree cap keeps Delta (hence k and the work) the same across seeds
    count, n, d, cap = (1, 20, 2, 6) if tiny else (3, 60, 2, 8)
    for i in range(count):
        edges = degenerate_graph(rng, n, d, cap)
        bound = d + 1
        inst = random_cover(rng, n, edges, 1 + max_degree(n, edges) + bound)
        f = write_json(os.path.join(workdir, f"augment-{i}.json"), inst)
        argv = ["pack", f, "--method", "augment", "--chi-c-bound", str(bound)]
        jobs.append(Job(f"augment-{i}", "b", argv, cli.EXIT_OK, packing_check(inst)))

    for i in range(3 if tiny else 40):
        inst = random_cover(rng, 80, regular_bipartite(rng, 40, 8), 9)
        f = write_json(os.path.join(workdir, f"lll-{i}.json"), inst)
        argv = ["pack", f, "--method", "bip-lll", "--seed", str(rng.randrange(2**31))]
        jobs.append(Job(f"bip-lll-{i}", "c", argv, cli.EXIT_OK, packing_check(inst)))

    # C6 is bipartite, so sides {0} / {1} form a (2,1)-colouring
    fc = write_json(
        os.path.join(workdir, "c6-fc.json"),
        {"a": 2, "b": 1, "assignment": [[v % 2] for v in range(6)]},
    )
    for i in range(5 if tiny else 200):
        lists = [sorted(rng.sample(range(1, 9), 5)) for _ in range(6)]
        inst = {"n": 6, "edges": [list(e) for e in cycle(6)], "lists": lists}
        f = write_json(os.path.join(workdir, f"frac-{i}.json"), inst)
        argv = ["pack", f, "--method", "fractional", "--fc", fc]
        argv += ["--seed", str(rng.randrange(2**31))]
        jobs.append(Job(f"fractional-{i}", "c", argv, cli.EXIT_OK, packing_check(inst)))
    return jobs


WORKLOADS = {
    "exact": setup_exact,
    "montecarlo": setup_montecarlo,
    "construct": setup_construct,
}


def answer(record: dict) -> dict:
    return {key: record[key] for key in ANSWER_KEYS if key in record}
