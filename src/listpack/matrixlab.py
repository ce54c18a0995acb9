"""Permanents, transversals, and Monte Carlo estimators for random
binary matrices and sums of random permutation matrices.

Conventions.  A *1-transversal* of a square binary matrix is a
permutation sigma with A[i][sigma[i]] = 1 for all i; it exists iff the
permanent is positive.  A *0-transversal* of a count matrix hits only
zero cells.  When a binary matrix has permanent zero, Frobenius–König
gives rows S and columns T with |S| + |T| = k + 1 whose submatrix is
all-zero; `frobenius_konig_witness` extracts one from the Hall violator
of the failed row-column matching.

Monte Carlo.  Both estimators run one trial loop,
`_no_transversal_rate`: trial t samples a boolean k x k matrix of
allowed cells, bit-packs its rows into masks in one numpy call, and
counts a hit when the matcher finds no perfect matching.  Trial t draws
from its own Philox substream (key = seed, counter offset = t * 2^64),
so trials can be computed in any order or in parallel and still merge
to the exact sequential estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from .matching import hall_violator, perfect_matching

#: two-sided z value for a 99% normal confidence interval
Z_99 = 2.5758293035489004

#: substream spacing; one trial never consumes 2^64 Philox outputs
_COUNTER_STRIDE = 1 << 64

MAX_PERMANENT_K = 24
MAX_EXACT_PROB_K = 4


@dataclass(frozen=True)
class BinaryMatrix:
    k: int
    bits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.bits) != self.k or any(
            len(row) != self.k for row in self.bits
        ):
            raise ValueError(f"bits must be {self.k}x{self.k}")
        if any(b not in (0, 1) for row in self.bits for b in row):
            raise ValueError("entries must be 0 or 1")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BinaryMatrix":
        return cls(len(rows), tuple(tuple(int(b) for b in row) for row in rows))

    def row_masks(self) -> list[int]:
        """Row bitmasks of the 1-entries (bit j set iff A[i][j] = 1)."""
        return [
            sum(1 << j for j in range(self.k) if row[j]) for row in self.bits
        ]


@dataclass(frozen=True)
class CountMatrix:
    k: int
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.counts) != self.k or any(
            len(row) != self.k for row in self.counts
        ):
            raise ValueError(f"counts must be {self.k}x{self.k}")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("entries must be non-negative")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "CountMatrix":
        return cls(len(rows), tuple(tuple(int(c) for c in row) for row in rows))


def permanent(a: BinaryMatrix) -> int:
    """Exact permanent by Ryser's inclusion–exclusion over column
    subsets, visited in Gray-code order so each step updates one column's
    contribution.  Python integers keep the arithmetic exact at any k;
    the k bound only caps the 2^k running time.
    """
    k = a.k
    if k > MAX_PERMANENT_K:
        raise ValueError(f"permanent supports k <= {MAX_PERMANENT_K}, got {k}")
    if k == 0:
        return 1
    row_sums = [0] * k
    total = 0
    gray = 0
    sign = -1 if k % 2 else 1
    for step in range(1, 1 << k):
        j = (step & -step).bit_length() - 1
        if gray >> j & 1:
            gray ^= 1 << j
            for i in range(k):
                row_sums[i] -= a.bits[i][j]
        else:
            gray ^= 1 << j
            for i in range(k):
                row_sums[i] += a.bits[i][j]
        prod = 1
        for s in row_sums:
            if s == 0:
                prod = 0
                break
            prod *= s
        parity = -1 if bin(gray).count("1") % 2 else 1
        total += parity * prod
    return sign * total


def one_transversal(a: BinaryMatrix) -> Optional[tuple[int, ...]]:
    """Permutation sigma with A[i][sigma[i]] = 1 for all i, or None."""
    m = perfect_matching(a.row_masks(), a.k)
    return None if m is None else tuple(m)


def zero_transversal(m: CountMatrix) -> Optional[tuple[int, ...]]:
    """Permutation hitting only zero cells of the count matrix, or None."""
    zeros = np.array(m.counts).reshape(m.k, m.k) == 0
    sigma = perfect_matching(_row_masks(zeros), m.k)
    return None if sigma is None else tuple(sigma)


def frobenius_konig_witness(
    a: BinaryMatrix,
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Row set S and column set T with |S| + |T| = k + 1 and A[S x T]
    all-zero; None iff the matrix has a 1-transversal."""
    k = a.k
    violator = hall_violator(a.row_masks(), k)
    if violator is None:
        return None
    reach_rows, reach_cols = violator
    t_cols = frozenset(range(k)) - reach_cols
    # Rows in the violator have 1-entries only inside reach_cols, so any
    # |reach_cols| + 1 of them already give the tight witness.
    s_rows = frozenset(sorted(reach_rows)[: len(reach_cols) + 1])
    return s_rows, t_cols


@lru_cache(maxsize=None)
def _zero_permanent_tally(k: int) -> tuple[int, ...]:
    """tally[z] = number of k x k binary matrices with exactly z zero
    entries and permanent zero."""
    tally = [0] * (k * k + 1)
    for masks in product(range(1 << k), repeat=k):
        if perfect_matching(masks, k) is None:
            tally[k * k - sum(m.bit_count() for m in masks)] += 1
    return tuple(tally)


def zero_permanent_prob_exact(k: int, p):
    """Exact Pr[Per(A) = 0] for a k x k matrix whose entries are
    independently 0 with probability p.  Exact in the arithmetic of p:
    pass a Fraction to get a Fraction back."""
    if not 1 <= k <= MAX_EXACT_PROB_K:
        raise ValueError(
            f"exact enumeration supports 1 <= k <= {MAX_EXACT_PROB_K}, got {k}"
        )
    tally = _zero_permanent_tally(k)
    one = p / p if p else 1  # unit in p's arithmetic
    q = one - p
    return sum(tally[z] * p**z * q ** (k * k - z) for z in range(k * k + 1))


def binomial_ci(hits: int, trials: int) -> tuple[float, float]:
    """(estimate, ci) for a binomial proportion: half-width of the 99%
    normal interval, except at estimates of exactly 0 or 1 where the
    one-sided 99% Clopper–Pearson distance to the boundary is reported
    instead (the normal half-width would collapse to zero there)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    est = hits / trials
    if hits == 0 or hits == trials:
        return est, 1.0 - 0.01 ** (1.0 / trials)
    return est, Z_99 * sqrt(est * (1.0 - est) / trials)


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(key=seed, counter=trial * _COUNTER_STRIDE)
    )


def _row_masks(allowed: np.ndarray) -> list[int]:
    """Row bitmasks (bit j of mask i set iff allowed[i, j]) of a boolean
    k x k array; exact at any k, where int64 arithmetic overflows past 62."""
    packed = np.packbits(allowed, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _no_transversal_rate(
    k: int,
    trials: int,
    seed: int,
    allowed: Callable[[np.random.Generator], np.ndarray],
) -> tuple[float, float]:
    """(estimate, 99% ci) of the fraction of trials whose k x k matrix
    allowed(rng of trial t) has no perfect matching through its True
    cells: the one Monte Carlo loop behind both estimators."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hits = 0
    for t in range(trials):
        masks = _row_masks(allowed(_trial_rng(seed, t)))
        if perfect_matching(masks, k) is None:
            hits += 1
    return binomial_ci(hits, trials)


def zero_permanent_prob_mc(
    k: int, p: float, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo Pr[Per(A) = 0], entries 0 with probability p: fraction
    of sampled matrices with no 1-transversal.  Returns (estimate, 99% ci)."""
    return _no_transversal_rate(k, trials, seed, lambda rng: rng.random((k, k)) >= p)


def _sample_permutation_counts(
    rng: np.random.Generator, n: int, k: int
) -> np.ndarray:
    perms = rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)
    cells = (np.arange(k) * k + perms).ravel()
    return np.bincount(cells, minlength=k * k).reshape(k, k)


def sample_sum_of_permutations(n: int, k: int, seed: int) -> CountMatrix:
    """Entrywise sum of n independent uniform k x k permutation
    matrices; every row and column sum equals n."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    counts = _sample_permutation_counts(_trial_rng(seed, 0), n, k)
    return CountMatrix.from_rows(counts.tolist())


def no_zero_transversal_prob_mc(
    n: int, k: int, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo probability that the sum of n random k x k
    permutation matrices admits no 0-transversal."""
    return _no_transversal_rate(
        k, trials, seed, lambda rng: _sample_permutation_counts(rng, n, k) == 0
    )
