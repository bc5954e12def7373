"""Matroids from entropy functions, matrices, and uniform-matroid probes.

Set functions are arrays by mask: a matroid is carried as its rank
function, handed out as a read-only array. A distribution whose subset
entropies (base q) are integers bounded by cardinality gives one, with
r(S) = H(S); so do the column ranks of a matrix over a finite field, and
U_{k,n} is r(S) = min(|S|, k).
The independent sets are the S with r(S) = |S|. The uniform matroid is
represented over GF(q) in closed form by a shortened or doubly extended
Reed-Solomon code whenever n <= q+1. Beyond that, classical theorems on
MDS codes decide it: they give the parity code or the hyperoval and its
dual where one exists, prove non-existence elsewhere, and the few cases
outside them are reported "undecided". No search runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .codes import rs_generator
from .dist import JointDistribution, _check_table, entropy_table, mask_bits
from .errors import MatroidError, SearchBudgetExceeded
from .gf import FieldSpec, batch_rank, column_subset_ranks

INTEGER_TOL = 1e-6
NEAR_MATROID_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class RankReport:
    """Subset entropies in base q, viewed as a candidate rank function."""

    n: int
    ranks: np.ndarray  # float64 indexed by subset mask
    integer_valued: bool
    max_deviation: float
    near_matroidal: bool  # deviation in (INTEGER_TOL, NEAR_MATROID_TOL]


@dataclass(frozen=True, eq=False)
class MatroidView:
    ground_size: int
    ranks: np.ndarray  # int64 rank indexed by subset mask
    origin: str  # "entropy" | "vector" | "uniform"

    @cached_property
    def independents(self) -> frozenset:
        """Subset masks whose rank equals their cardinality."""
        return frozenset(np.flatnonzero(_sizes(self.ground_size) == self.ranks).tolist())


def _sizes(n: int) -> np.ndarray:
    """|S| indexed by subset mask S."""
    sizes = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        sizes.reshape(-1, 2, 1 << j)[:, 1] += 1  # [.., 1, ..] holds column j
    return sizes


def _read_only(table: np.ndarray) -> np.ndarray:
    """A table built here, which no caller holds, made read-only."""
    table.flags.writeable = False
    return table


def _rank_report_from_values(n: int, values) -> RankReport:
    values = np.asarray(values, dtype=float)
    max_dev = float(np.abs(values - np.round(values)).max())
    bounded = bool((values <= _sizes(n) + INTEGER_TOL).all())
    integer_valued = bounded and max_dev <= INTEGER_TOL
    near = bounded and not integer_valued and max_dev <= NEAR_MATROID_TOL
    return RankReport(n, _read_only(values), integer_valued, max_dev, near)


def entropy_rank_report(p: JointDistribution) -> RankReport:
    """Rank candidate from all 2^n subset entropies of p, base q."""
    return _rank_report_from_values(p.n, entropy_table(p, p.q))


def _matrix_ranks(field: FieldSpec, matrix, n: int) -> np.ndarray:
    """Column-submatrix rank indexed by subset mask, from the bases.

    Only the subsets of size r = rank of the matrix are ranked, in one
    kernel call. One pass per column j then applies r(S-j) >= r(S) - 1, which
    gives every subset of a basis its size, and r(S+j) >= r(S), which
    gives every other subset the rank of its largest independent subset.
    """
    _check_table(1 << n, f"rank table: 2^{n}", MatroidError)
    ranks = np.zeros(1 << n, dtype=np.int64)
    r = int(batch_rank(field, [matrix])[0]) if n else 0
    if r:
        masks = [sum(1 << j for j in s) for s in combinations(range(n), r)]
        ranks[masks] = column_subset_ranks(field, matrix, r)
    for j in range(n):
        pairs = ranks.reshape(-1, 2, 1 << j)  # [.., 0, ..] lacks column j
        np.maximum(pairs[:, 0], pairs[:, 1] - 1, out=pairs[:, 0])
        np.maximum(pairs[:, 1], pairs[:, 0], out=pairs[:, 1])
    return ranks


def code_rank_report(code) -> RankReport:
    """Rank candidate for a code's uniform distribution without enumerating
    codewords: each marginal is uniform over the image of a linear map, so
    its base-q entropy equals the column-submatrix rank."""
    return _rank_report_from_values(code.n, _matrix_ranks(code.field, code.generator, code.n))


def matroid_from_ranks(r: RankReport, verify: bool = True) -> MatroidView:
    """The matroid whose rank function is r rounded to integers."""
    if not r.integer_valued:
        raise MatroidError("not a matroid rank function: entropies are not "
                           f"integer-valued (max deviation {r.max_deviation:.3g})")
    view = MatroidView(r.n, _read_only(np.round(r.ranks).astype(np.int64)), "entropy")
    if verify and not check_axioms(view):
        raise MatroidError("internal consistency failure: derived rank function "
                           "violates the matroid rank axioms")
    return view


def check_axioms(view: MatroidView) -> bool:
    """Exhaustive check of the rank axioms (Oxley, Matroid Theory, 1.3).

    r(empty) = 0, 0 <= r(S+e) - r(S) <= 1, and the local submodular
    inequality r(S+e) + r(S+f) >= r(S+e+f) + r(S) for every S, e, f;
    the local forms imply the global ones.
    """
    n = view.ground_size
    if len(view.ranks) != 1 << n or view.ranks[0] != 0:
        return False
    # axis n-1-e of the cube indexes element e of the mask
    cube = np.asarray(view.ranks, dtype=np.int64).reshape((2,) * n)
    for a in range(n):
        step = np.diff(cube, axis=a)  # r(S+e) - r(S)
        if step.min() < 0 or step.max() > 1:
            return False
        if any(np.diff(step, axis=b).max() > 0 for b in range(a + 1, n)):
            return False
    return True


def vector_matroid(field: FieldSpec, matrix) -> MatroidView:
    """Matroid of linearly independent column subsets of a matrix."""
    rows = [list(r) for r in matrix]
    ncols = len(rows[0]) if rows else 0
    return MatroidView(ncols, _read_only(_matrix_ranks(field, rows, ncols)), "vector")


def uniform_matroid(k: int, n: int) -> MatroidView:
    return MatroidView(n, _read_only(np.minimum(_sizes(n), k)), "uniform")


def is_isomorphic_uniform(m: MatroidView, k: int) -> bool:
    """U_{k,n} is fully symmetric, so equal rank functions decide isomorphism."""
    return np.array_equal(m.ranks, np.minimum(_sizes(m.ground_size), k))


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
    independents = sorted(mask_bits(mask) for mask in m.independents)
    return {
        "ground_size": m.ground_size,
        "origin": m.origin,
        "independents": independents,
    }
