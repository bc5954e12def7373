"""Matroids from entropy functions, matrices, and uniform-matroid probes.

A distribution whose subset entropies (base q) are integers bounded by
cardinality defines a matroid whose independent sets are the subsets S
with H(S) = |S|. The same independence structure can come from matrix
columns over a finite field. The uniform matroid U_{k,n} is
represented over GF(q) in closed form by a shortened or doubly extended
Reed-Solomon code whenever n <= q+1. Beyond that, classical theorems on
MDS codes decide it: they give the parity code or the hyperoval and its
dual where one exists, prove non-existence elsewhere, and the few cases
outside them are reported "undecided". No search runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .codes import rs_generator
from .dist import JointDistribution, entropy_table
from .errors import MatroidError, SearchBudgetExceeded
from .gf import FieldSpec, column_subset_ranks

INTEGER_TOL = 1e-6
NEAR_MATROID_TOL = 1e-3
AXIOM_CHECK_LIMIT = 12


@dataclass(frozen=True)
class RankReport:
    """Subset entropies in base q, viewed as a candidate rank function."""

    n: int
    ranks: tuple  # indexed by subset mask
    integer_valued: bool
    max_deviation: float
    near_matroidal: bool  # deviation in (INTEGER_TOL, NEAR_MATROID_TOL]


@dataclass(frozen=True)
class MatroidView:
    ground_size: int
    independents: frozenset  # subset masks
    origin: str  # "entropy" | "vector" | "uniform"


def _rank_report_from_values(n: int, values) -> RankReport:
    max_dev = 0.0
    bounded = True
    for mask, h in enumerate(values):
        max_dev = max(max_dev, abs(h - round(h)))
        if h > mask.bit_count() + INTEGER_TOL:
            bounded = False
    integer_valued = bounded and max_dev <= INTEGER_TOL
    near = bounded and not integer_valued and max_dev <= NEAR_MATROID_TOL
    return RankReport(n, tuple(values), integer_valued, max_dev, near)


def entropy_rank_report(p: JointDistribution) -> RankReport:
    """Rank candidate from all 2^n subset entropies of p, base q."""
    if p.n > 20:
        raise MatroidError("rank report limited to n <= 20")
    return _rank_report_from_values(p.n, entropy_table(p, p.q))


def _ranks_by_mask(field: FieldSpec, matrix, n: int, max_size: int) -> np.ndarray:
    """Column-submatrix rank indexed by subset mask, one batch per subset
    size up to max_size; larger subsets are left at 0."""
    ranks = np.zeros(1 << n, dtype=np.int64)
    for size in range(1, max_size + 1):
        masks = [sum(1 << j for j in s) for s in combinations(range(n), size)]
        ranks[masks] = column_subset_ranks(field, matrix, size)
    return ranks


def code_rank_report(code) -> RankReport:
    """Rank candidate for a code's uniform distribution without enumerating
    codewords: each marginal is uniform over the image of a linear map, so
    its base-q entropy equals the column-submatrix rank."""
    ranks = _ranks_by_mask(code.field, code.generator, code.n, code.n)
    return _rank_report_from_values(code.n, ranks.astype(float).tolist())


def matroid_from_ranks(r: RankReport, verify: bool = True) -> MatroidView:
    """Independent sets are the masks with rank equal to cardinality."""
    if not r.integer_valued:
        raise MatroidError("not a matroid rank function: entropies are not "
                           f"integer-valued (max deviation {r.max_deviation:.3g})")
    independents = frozenset(
        mask
        for mask, h in enumerate(r.ranks)
        if abs(h - mask.bit_count()) <= INTEGER_TOL
    )
    view = MatroidView(r.n, independents, "entropy")
    if verify and r.n <= AXIOM_CHECK_LIMIT and not check_axioms(view):
        raise MatroidError("internal consistency failure: derived independence "
                           "family violates the matroid axioms")
    return view


def check_axioms(view: MatroidView) -> bool:
    """Exhaustive verification of the three matroid axioms.

    Augmentation is checked for cardinality gaps of exactly one, which
    implies the general exchange property by iteration.
    """
    ind = view.independents
    if 0 not in ind:
        return False
    for s in ind:
        rest = s
        while rest:
            bit = rest & -rest
            if (s ^ bit) not in ind:
                return False
            rest ^= bit
    by_size: dict = {}
    for s in ind:
        by_size.setdefault(s.bit_count(), []).append(s)
    full = (1 << view.ground_size) - 1
    for size, smaller in sorted(by_size.items()):
        larger = by_size.get(size + 1, [])
        for s1 in smaller:
            for s2 in larger:
                extra = s2 & ~s1 & full
                ok = False
                rest = extra
                while rest:
                    bit = rest & -rest
                    if (s1 | bit) in ind:
                        ok = True
                        break
                    rest ^= bit
                if not ok:
                    return False
    return True


def vector_matroid(field: FieldSpec, matrix) -> MatroidView:
    """Matroid of linearly independent column subsets of a matrix."""
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    if ncols > 20:
        raise MatroidError("vector matroid limited to 20 columns")
    ranks = _ranks_by_mask(field, rows, ncols, min(len(rows), ncols)).tolist()
    independents = frozenset(m for m, r in enumerate(ranks) if r == m.bit_count())
    return MatroidView(ncols, independents, "vector")


def uniform_matroid(k: int, n: int) -> MatroidView:
    independents = frozenset(
        mask for mask in range(1 << n) if mask.bit_count() <= k
    )
    return MatroidView(n, independents, "uniform")


def is_isomorphic_uniform(m: MatroidView, k: int) -> bool:
    """U_{k,n} is fully symmetric, so set equality decides isomorphism."""
    return m.independents == uniform_matroid(k, m.ground_size).independents


# ---------------------------------------------------------------------------
# Uniform-matroid representability
# ---------------------------------------------------------------------------

def _dual(field: FieldSpec, rows) -> list[list]:
    """[-A^T | I] for a systematic [I | A]: the parity-check matrix.

    The dual of an MDS code is MDS, so if `rows` represents U_{k,n} the
    result represents U_{n-k,n}.
    """
    tail = [row[len(rows):] for row in rows]
    width = len(tail[0])
    return [
        [field.neg(a[i]) for a in tail] + [int(i == j) for j in range(width)]
        for i in range(width)
    ]


def find_uniform_representation(k: int, n: int, field: FieldSpec):
    """k x n matrix over the field with every k-subset of columns
    independent, or None when no such matrix exists.

    Such a matrix generates an [n, k] MDS code over GF(q), so the answer
    comes from coding theory, never from a search. For n <= q the matrix
    is the first n columns of the Reed-Solomon generator, a shortened RS
    code; for n = q+1 the point at infinity (0, ..., 0, 1) is appended,
    the doubly extended RS code. For n >= q+2, with k' = min(k, n-k):

    - k = n-1: the parity code [-1 | I_{n-1}];
    - max(k, n-k) >= q: None, since an MDS code with 2 <= k <= n-2 has
      minimum distance at most q (its weight distribution gives
      A_{d+1} = C(n, d+1)(q-1)(q-d) >= 0; MacWilliams & Sloane ch. 11),
      applied to the code and its dual (Bush 1952);
    - k' = 3: only for q even, where n = q+2 and the columns form a
      hyperoval (Bose 1947; Segre 1955); k = q-1 takes its dual;
    - k' <= p for q = p^h (Ball 2012), or k' <= 2p-2 for non-prime q
      (Ball & De Beule 2012): None.

    Any other case is an open instance of the MDS conjecture and raises
    SearchBudgetExceeded ("undecided").
    """
    if k < 1 or n < 1:
        raise MatroidError("k and n must be positive")
    if k >= n:
        # identity-style columns: all subsets of size <= n are independent
        cols = [tuple(1 if i == j else 0 for i in range(k)) for j in range(n)]
        return [[col[i] for col in cols] for i in range(k)]
    if k == 1:
        # any nonzero columns; parallel ones are allowed at rank 1
        return [[1] * n]
    q = field.order
    if n <= q + 1:
        rows = [list(row[:n]) for row in rs_generator(field, k).generator]
        if n == q + 1:
            for i, row in enumerate(rows):
                row.append(int(i == k - 1))
        return rows
    if k == n - 1:
        return _dual(field, [[1] * n])
    if max(k, n - k) >= q:
        return None
    k_min = min(k, n - k)
    if k_min == 3 and q % 2 == 0:
        # n - 3 <= q - 1 here, so n = q + 2; odd q falls to Ball's k' <= p
        hyperoval = [
            [1, 0, 0] + [1] * (q - 1),
            [0, 1, 0] + list(range(1, q)),
            [0, 0, 1] + [field.mul(t, t) for t in range(1, q)],
        ]
        return hyperoval if k == 3 else _dual(field, hyperoval)
    if k_min <= field.p or (field.m > 1 and k_min <= 2 * field.p - 2):
        return None
    raise SearchBudgetExceeded(
        f"undecided: U_{{{k},{n}}} over GF({q}) is outside the MDS results "
        "implemented here"
    )


def uniform_representable_over(k: int, n: int, field: FieldSpec) -> bool:
    """Whether U_{k,n} is representable over the given field."""
    return find_uniform_representation(k, n, field) is not None


def matroid_json(m: MatroidView) -> dict:
    independents = sorted(
        [i for i in range(m.ground_size) if mask >> i & 1]
        for mask in m.independents
    )
    return {
        "ground_size": m.ground_size,
        "origin": m.origin,
        "independents": independents,
    }
