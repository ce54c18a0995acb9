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
`_no_transversal_rate`.  Trial t draws its sample from its own Philox
substream: key = seed, counter offset = t * 2^64, exactly as a fresh
`Philox(key=seed, counter=t << 64)` would.  The loop keeps that
contract with one generator per call, whose counter, buffer and cached
32-bit half are reset before each trial (`_substreams`), so trials can
still be computed in any order or in parallel and merge to the exact
sequential estimate.  Only the draw and the matcher run per trial: each
block of `_BLOCK_TRIALS` samples is turned into boolean k x k matrices
of allowed cells, bit-packed into Python-int row masks (`_row_masks`)
in a few numpy calls, and then each trial counts a hit when the matcher
finds no perfect matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import sqrt
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .matching import hall_violator, perfect_matching

#: two-sided z value for a 99% normal confidence interval
Z_99 = 2.5758293035489004

#: trials sampled, tested and bit-packed together; small, because a
#: block's samples are held at once: 1,024-trial blocks cost the
#: montecarlo benchmark about 11 MB of peak RSS for no more speed
_BLOCK_TRIALS = 32

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
    sigma = perfect_matching(_row_masks(zeros[None])[0], m.k)
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


def _substreams(seed: int) -> Iterator[np.random.Generator]:
    """The generators of trials 0, 1, 2, ...: one Philox whose state is
    set, before trial t, to exactly that of a fresh
    Philox(key=seed, counter=t * 2^64) (counter words (0, t, 0, 0), an
    empty buffer, no cached 32-bit half), so trial t draws the same
    numbers as from its own generator.  Each yield reuses the previous
    generator: finish drawing before taking the next."""
    bitgen = np.random.Philox(key=seed)
    state = bitgen.state
    counter = state["state"]["counter"]
    rng = np.random.Generator(bitgen)
    for t in count():
        counter[1] = t
        bitgen.state = state
        yield rng


def _row_masks(allowed: np.ndarray) -> list:
    """Row bitmasks (bit j of mask i set iff allowed[..., i, j]) of a
    stack of boolean k x k arrays, nested as the stack; exact at any k,
    where int64 arithmetic overflows past 62: each row is packed into
    little-endian 64-bit words that Python integers join."""
    packed = np.packbits(allowed, axis=-1, bitorder="little")
    width = max(1, -(-packed.shape[-1] // 8))
    padded = np.zeros(packed.shape[:-1] + (8 * width,), np.uint8)
    padded[..., : packed.shape[-1]] = packed
    words = padded.view("<u8")
    masks = words[..., -1].astype(object)
    for i in reversed(range(width - 1)):
        masks = masks << 64 | words[..., i].astype(object)
    return masks.tolist()


def _no_transversal_rate(
    k: int,
    trials: int,
    seed: int,
    draw: Callable[[np.random.Generator], np.ndarray],
    allowed: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, float]:
    """(estimate, 99% ci) of the fraction of trials whose k x k matrix of
    allowed cells has no perfect matching through its True cells: the one
    Monte Carlo loop behind both estimators.

    Trial t's sample is draw(rng) with rng in the state of a fresh
    Philox(key=seed, counter=t * 2^64): one generator serves the whole
    call and `_substreams` resets its counter before each trial.  Samples
    are stacked in blocks of up to _BLOCK_TRIALS trials, and
    allowed(stack) returns the stack of boolean matrices, so the test of
    the sample, the bit-pack and the conversion to Python-int masks run
    once per block; only the draw and the matcher run per trial."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hits = 0
    rngs = _substreams(seed)
    for start in range(0, trials, _BLOCK_TRIALS):
        size = min(_BLOCK_TRIALS, trials - start)
        block = np.stack([draw(next(rngs)) for _ in range(size)])
        for masks in _row_masks(allowed(block)):
            if perfect_matching(masks, k) is None:
                hits += 1
    return binomial_ci(hits, trials)


def zero_permanent_prob_mc(
    k: int, p: float, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo Pr[Per(A) = 0], entries 0 with probability p: fraction
    of sampled matrices with no 1-transversal.  Returns (estimate, 99% ci)."""
    return _no_transversal_rate(
        k, trials, seed, lambda rng: rng.random((k, k)), lambda u: u >= p
    )


def _permutation_counts(perms: np.ndarray, k: int) -> np.ndarray:
    """Entrywise sums of stacked permutation matrices: perms has shape
    (blocks, n, k), row r of perms[b] puts a 1 at cells (i, perms[b, r, i]),
    and entry (b, i, j) counts the rows r with perms[b, r, i] = j; one
    bincount over the cells offset by b * k^2."""
    blocks = len(perms)
    cells = np.arange(blocks)[:, None, None] * (k * k) + np.arange(k) * k + perms
    return np.bincount(cells.ravel(), minlength=blocks * k * k).reshape(blocks, k, k)


def sample_sum_of_permutations(n: int, k: int, seed: int) -> CountMatrix:
    """Entrywise sum of n independent uniform k x k permutation
    matrices; every row and column sum equals n."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    perms = next(_substreams(seed)).permuted(np.tile(np.arange(k), (n, 1)), axis=1)
    return CountMatrix.from_rows(_permutation_counts(perms[None], k)[0].tolist())


def no_zero_transversal_prob_mc(
    n: int, k: int, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo probability that the sum of n random k x k
    permutation matrices admits no 0-transversal."""
    rows = np.tile(np.arange(k), (n, 1))
    return _no_transversal_rate(
        k,
        trials,
        seed,
        lambda rng: rng.permuted(rows, axis=1),
        lambda perms: _permutation_counts(perms, k) == 0,
    )
