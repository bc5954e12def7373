"""Matroids from entropy functions, matrices, and uniform-matroid probes.

A distribution whose subset entropies (base q) are integers bounded by
cardinality defines a matroid whose independent sets are the subsets S
with H(S) = |S|. The same independence structure can come from matrix
columns over a finite field. The uniform matroid U_{k,n} is
represented over GF(q) in closed form by a shortened or doubly extended
Reed-Solomon code whenever n <= q+1; beyond that, a depth-first search
within a budget of rank checks decides it or reports "undecided".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .codes import rs_generator, subset_rank_entropy
from .dist import JointDistribution, entropy_table
from .errors import MatroidError, SearchBudgetExceeded
from .gf import FieldSpec, matrix_rank

INTEGER_TOL = 1e-6
NEAR_MATROID_TOL = 1e-3
AXIOM_CHECK_LIMIT = 12
SEARCH_CANDIDATE_LIMIT = 10**5
# U_{3,5} over GF(3), the largest search the tests decide, takes 2,963.
SEARCH_RANK_CHECK_LIMIT = 50_000


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


def code_rank_report(code) -> RankReport:
    """Rank candidate for a code's uniform distribution without enumerating
    codewords: each marginal is uniform over the image of a linear map, so
    its base-q entropy equals the column-submatrix rank."""
    values = [
        float(subset_rank_entropy(code, mask)) for mask in range(1 << code.n)
    ]
    return _rank_report_from_values(code.n, values)


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
    independents = set()
    for mask in range(1 << ncols):
        size = mask.bit_count()
        if size > len(rows):
            continue
        cols = [j for j in range(ncols) if mask >> j & 1]
        sub = [[row[j] for j in cols] for row in rows]
        if mask == 0 or matrix_rank(field, sub) == size:
            independents.add(mask)
    return MatroidView(ncols, frozenset(independents), "vector")


def uniform_matroid(k: int, n: int) -> MatroidView:
    independents = frozenset(
        mask for mask in range(1 << n) if mask.bit_count() <= k
    )
    return MatroidView(n, independents, "uniform")


def is_isomorphic_uniform(m: MatroidView, k: int) -> bool:
    """U_{k,n} is fully symmetric, so set equality decides isomorphism."""
    return m.independents == uniform_matroid(k, m.ground_size).independents


# ---------------------------------------------------------------------------
# Uniform-matroid representability search
# ---------------------------------------------------------------------------

def _projective_columns(field: FieldSpec, k: int) -> list[tuple]:
    """One representative per projective point: first nonzero coord = 1.

    Scaling a column never changes independence, so restricting to these
    representatives loses nothing.
    """
    q = field.order
    reps = []
    for lead in range(k):
        for tail_value in range(q ** (k - lead - 1)):
            col = [0] * lead + [1]
            v = tail_value
            for _ in range(k - lead - 1):
                v, d = divmod(v, q)
                col.append(d)
            reps.append(tuple(col))
    return reps


def find_uniform_representation(
    k: int, n: int, field: FieldSpec, max_candidates: int = SEARCH_CANDIDATE_LIMIT
):
    """k x n matrix over the field with every k-subset of columns
    independent, or None when no such matrix exists.

    For n <= q the matrix is the first n columns of the Reed-Solomon
    generator, a shortened RS code; for n = q+1 the point at infinity
    (0, ..., 0, 1) is appended, the doubly extended RS code. Only for
    n >= q+2 does a depth-first search run, which raises
    SearchBudgetExceeded ("undecided") when the candidate-column pool
    exceeds `max_candidates` or the search exceeds
    SEARCH_RANK_CHECK_LIMIT rank checks.
    """
    if k < 1 or n < 1:
        raise MatroidError("k and n must be positive")
    if k >= n:
        # identity-style columns: all subsets of size <= n are independent
        cols = [tuple(1 if i == j else 0 for i in range(k)) for j in range(n)]
        return [[col[i] for col in cols] for i in range(k)]
    if k == 1:
        # any nonzero columns; the projective search below excludes parallel ones
        return [[1] * n]
    if n <= field.order + 1:
        rows = [list(row[:n]) for row in rs_generator(field, k).generator]
        if n == field.order + 1:
            for i, row in enumerate(rows):
                row.append(int(i == k - 1))
        return rows
    pool = (field.order**k - 1) // (field.order - 1)  # projective points
    if pool > max_candidates:
        raise SearchBudgetExceeded(
            f"undecided at this budget: {pool} candidate columns "
            f"exceed {max_candidates}"
        )
    candidates = _projective_columns(field, k)
    chosen: list[tuple] = []
    checks = 0

    def compatible(col) -> bool:
        nonlocal checks
        for subset in combinations(chosen, k - 1):
            checks += 1
            if checks > SEARCH_RANK_CHECK_LIMIT:
                raise SearchBudgetExceeded(
                    f"undecided at this budget: U_{{{k},{n}}} over GF({field.order}) "
                    f"unsettled after {SEARCH_RANK_CHECK_LIMIT} rank checks"
                )
            sub_cols = subset + (col,)
            rows = [[c[i] for c in sub_cols] for i in range(k)]
            if matrix_rank(field, rows) != k:
                return False
        return True

    def extend(start: int) -> bool:
        if len(chosen) == n:
            return True
        for i in range(start, len(candidates)):
            if compatible(candidates[i]):
                chosen.append(candidates[i])
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if extend(0):
        return [[col[i] for col in chosen] for i in range(k)]
    return None


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
