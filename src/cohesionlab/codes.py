"""Linear codes over finite fields, Reed-Solomon construction, and the
code -> distribution conversion.

Reed-Solomon generators are built in the classical q = n case by
evaluating the monomial basis 1, z, ..., z^(k-1) at the point list
(0, 1, alpha, ..., alpha^(q-2)), giving a Vandermonde matrix. Codeword
enumeration runs messages in lexicographic order so table reproduction
is bit-exact. Ranks and codewords come from the batched log-domain
kernels in `gf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .dist import JointDistribution
from .errors import CodeError
from .gf import BATCH_LABELS, FieldSpec, batch_rank, column_subset_ranks, matmul

ENUM_LIMIT = 1 << 20
COLUMN_SUBSET_LIMIT = 10**6


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    q: int
    d: int

    @property
    def is_mds(self) -> bool:
        return self.d == self.n - self.k + 1

    def __post_init__(self):
        if self.d > self.n - self.k + 1:
            raise CodeError(
                f"distance d={self.d} violates the Singleton bound "
                f"n-k+1={self.n - self.k + 1}"
            )


@dataclass(frozen=True)
class LinearCode:
    """k x n generator matrix over a field; rows are label tuples."""

    field: FieldSpec
    k: int
    n: int
    generator: tuple  # k rows, each a length-n tuple of labels

    def __post_init__(self):
        if len(self.generator) != self.k or any(
            len(row) != self.n for row in self.generator
        ):
            raise CodeError("generator shape does not match (k, n)")
        if batch_rank(self.field, [self.generator])[0] != self.k:
            raise CodeError("generator rows are linearly dependent")

    @classmethod
    def from_rows(cls, field: FieldSpec, rows) -> "LinearCode":
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        return cls(field, len(rows), len(rows[0]), rows)

    @property
    def q(self) -> int:
        return self.field.order


def rs_generator(field: FieldSpec, k: int) -> LinearCode:
    """Classical Reed-Solomon generator with n = q evaluation points."""
    q = field.order
    if not 1 <= k <= q:
        raise CodeError(f"message length k={k} outside 1..{q}")
    points = [0, 1]
    x = 1
    for _ in range(q - 2):
        x = field.mul(x, field.primitive)
        points.append(x)
    points = points[:q]
    rows = tuple(
        tuple(field.pow(b, i) for b in points) for i in range(k)
    )
    return LinearCode(field, k, q, rows)


def _codeword_chunks(c: LinearCode):
    """Codeword arrays of at most BATCH_LABELS labels, messages in
    lexicographic order (first symbol slowest)."""
    total = c.q**c.k
    if total > ENUM_LIMIT:
        raise CodeError(
            f"codeword count {c.q}^{c.k} exceeds the enumeration limit {ENUM_LIMIT}"
        )
    step = max(1, BATCH_LABELS // c.n)  # k <= n for a code of rank k
    place = c.q ** np.arange(c.k - 1, -1, -1)
    for start in range(0, total, step):
        index = np.arange(start, min(start + step, total))
        yield matmul(c.field, index[:, None] // place % c.q, c.generator)


def enumerate_codewords(c: LinearCode) -> list[tuple]:
    """All q^k codewords, messages in lexicographic order."""
    words = []
    for chunk in _codeword_chunks(c):
        words.extend(map(tuple, chunk.tolist()))
    return words


def min_distance(c: LinearCode) -> CodeParams:
    """Exact minimum distance by exhaustive nonzero-weight scan (the code
    is linear, so min distance equals min nonzero weight)."""
    best = c.n
    for chunk in _codeword_chunks(c):
        weights = np.count_nonzero(chunk, axis=1)
        best = min(best, int(weights[weights > 0].min(initial=c.n)))
    return CodeParams(c.n, c.k, c.q, best)


def k_column_independence(c: LinearCode) -> bool:
    """True iff every k-subset of generator columns has full rank."""
    if comb(c.n, c.k) > COLUMN_SUBSET_LIMIT:
        raise CodeError(
            f"C({c.n},{c.k}) column subsets exceed the limit {COLUMN_SUBSET_LIMIT}"
        )
    return bool((column_subset_ranks(c.field, c.generator, c.k) == c.k).all())


def column_subset_rank(c: LinearCode, cols) -> int:
    cols = list(cols)
    for j in cols:
        if not 0 <= j < c.n:
            raise CodeError(f"column {j} outside 0..{c.n - 1}")
    return int(batch_rank(c.field, [[[row[j] for j in cols] for row in c.generator]])[0])


def code_to_distribution(c: LinearCode) -> JointDistribution:
    """Uniform distribution with mass q^-k on each codeword."""
    words = enumerate_codewords(c)
    mass = 1.0 / len(words)
    return JointDistribution(c.n, c.q, {w: mass for w in words})


def generator_json(c: LinearCode) -> dict:
    params = None
    if c.q**c.k <= ENUM_LIMIT:
        cp = min_distance(c)
        params = {"n": cp.n, "k": cp.k, "q": cp.q, "d": cp.d, "is_mds": cp.is_mds}
    return {
        "q": c.q,
        "k": c.k,
        "n": c.n,
        "generator": [list(row) for row in c.generator],
        "params": params,
    }
