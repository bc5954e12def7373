"""Exact finite-field arithmetic GF(p^m).

Elements carry canonical integer labels in 0..q-1: the base-p positional
encoding of their polynomial coefficients (constant term is the least
significant digit). For GF(4) with modulus z^2+z+1 this maps z -> 2 and
z+1 -> 3. Multiplication and inversion go through log/antilog tables
built from the smallest primitive element at construction time.

The scalar `FieldSpec` operations and `matrix_rank` are the reference
path. Batched linear algebra (`batch_rank`, `column_subset_ranks`,
`matmul`) works on whole numpy label arrays in the log domain: a
product is a sum of logs, and a sum goes through the Zech logarithm
Z(t) = log(1 + alpha^t), since alpha^x + alpha^y = alpha^(x + Z(y - x))
(Lidl & Niederreiter, Finite Fields, ch. 10). The tables are O(q) and
built once per field, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from math import isqrt
from typing import NamedTuple

import numpy as np

from .errors import FieldError

MAX_ORDER = 1 << 16
PRINT_LIMIT = 64
# Most labels one step of a batched kernel holds in a working array.
BATCH_LABELS = 1 << 18


# ---------------------------------------------------------------------------
# Polynomials over GF(p): coefficient tuples, ascending powers
# ---------------------------------------------------------------------------

def poly_trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mod(a, mod, p: int) -> tuple:
    """Remainder of a divided by a monic polynomial mod, coefficients mod p."""
    a = list(a)
    d = len(mod) - 1
    while len(a) > d:
        lead = a[-1] % p
        if lead:
            for i in range(d + 1):
                a[len(a) - 1 - d + i] = (a[len(a) - 1 - d + i] - lead * mod[i]) % p
        a.pop()
    return poly_trim(a)


def _monic(p: int, d: int):
    """Monic polynomials of degree d over GF(p), in base-p order of their
    lower coefficients."""
    for v in range(p**d):
        yield _coeffs_from_value(v, p, d) + (1,)


def is_irreducible(poly, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(poly) - 1
    return deg >= 1 and all(
        poly_mod(poly, div, p) for d in range(1, deg // 2 + 1) for div in _monic(p, d)
    )


def _coeffs_from_value(value: int, p: int, length: int) -> tuple:
    digits = []
    for _ in range(length):
        value, r = divmod(value, p)
        digits.append(r)
    return tuple(digits)


def smallest_irreducible(p: int, m: int) -> tuple:
    """Lexicographically smallest monic irreducible of degree m over GF(p),
    ordering candidates by the base-p value of their lower coefficients.
    One exists for every m >= 1 (Lidl & Niederreiter, Finite Fields, ch. 3)."""
    return next(c for c in _monic(p, m) if is_irreducible(c, p))


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^m) with its arithmetic tables; immutable once constructed."""

    p: int
    m: int
    modulus: tuple  # monic, length m+1, ascending powers
    order: int
    primitive: int
    exp: tuple = field(repr=False)  # exp[i] = label of alpha^i, i in 0..q-2
    log: tuple = field(repr=False)  # log[label] for nonzero labels

    @cached_property
    def _tables(self) -> "_LogTables":
        return _log_tables(self)

    def _check(self, *labels):
        for a in labels:
            if not 0 <= a < self.order:
                raise FieldError(f"label {a} outside field of order {self.order}")

    # -- arithmetic --------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        p = self.p
        if p == 2:
            return a ^ b
        out = 0
        mult = 1
        for _ in range(self.m):
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + db) % p) * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        self._check(a)
        p = self.p
        if p == 2:
            return a
        out = 0
        mult = 1
        for _ in range(self.m):
            a, da = divmod(a, p)
            out += ((-da) % p) * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise FieldError("zero has no inverse")
        return self.exp[(-self.log[a]) % (self.order - 1)]

    def pow(self, a: int, e: int) -> int:
        """a^e with the convention 0^0 = 1."""
        self._check(a)
        if e == 0:
            return 1
        if a == 0:
            return 0
        return self.exp[(self.log[a] * e) % (self.order - 1)]


def make_field(p: int, m: int, modulus=None) -> FieldSpec:
    """Construct GF(p^m) with a deterministic modulus and primitive element.

    The modulus defaults to the lexicographically smallest monic
    irreducible of degree m; an explicit override is validated the same
    way. Order is capped at 2^16, and a larger one is refused before p is
    tested for primality or p^m is written out.
    """
    if p <= MAX_ORDER and is_prime_power(p) != (p, 1):
        raise FieldError(f"{p} is not prime")
    if m < 1:
        raise FieldError("extension degree must be >= 1")
    # p^m > MAX_ORDER for every p > MAX_ORDER, and for every m past its bit
    # length since p >= 2; such p is not trial-divided up to sqrt(p)
    if p > MAX_ORDER or m > MAX_ORDER.bit_length():
        raise FieldError(f"field order {p if m == 1 else f'{p}^{m}'} exceeds {MAX_ORDER}")
    q = p**m
    if q > MAX_ORDER:
        raise FieldError(f"field order {q} exceeds {MAX_ORDER}")
    if modulus is None:
        modulus = smallest_irreducible(p, m)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise FieldError(f"modulus must be monic of degree {m}")
        if not is_irreducible(modulus, p):
            raise FieldError(f"modulus {modulus} is reducible over GF({p})")

    # Smallest-labeled element whose powers reach every nonzero element. The
    # multiplicative group of GF(q) is cyclic (Lidl & Niederreiter, ch. 2),
    # so one exists and the loop always ends on its break. A constant's
    # order divides p - 1 < q - 1, so for m > 1 the search starts at z.
    place = p ** np.arange(m, dtype=np.int64)
    digits = np.arange(q, dtype=np.int64)[:, None] // place % p
    for primitive in range(1 if m == 1 else p, q):
        # Multiplication by the candidate g is GF(p)-linear (Lidl &
        # Niederreiter, ch. 2-3): row j of its matrix holds g * z^j, each row
        # z times the last, with z^m = -(c_0 + ... + c_{m-1} z^{m-1}).
        # Entries of digits @ rows stay below m (p-1)^2 <= 4.3e9: int64.
        rows = [_coeffs_from_value(primitive, p, m)]
        while len(rows) < m:
            shifted, top = (0,) + rows[-1][:-1], rows[-1][-1]
            rows.append(tuple((lo - top * c) % p for lo, c in zip(shifted, modulus)))
        times = (digits @ np.array(rows, dtype=np.int64) % p @ place).tolist()
        powers = [1]
        x = primitive
        while x != 1:
            powers.append(x)
            x = times[x]
        if len(powers) == q - 1:
            break

    log = [0] * q
    for i, lab in enumerate(powers):
        log[lab] = i
    return FieldSpec(p, m, modulus, q, primitive, tuple(powers), tuple(log))


def primitive_element(f: FieldSpec) -> int:
    return f.primitive


def modulus_str(f: FieldSpec) -> str:
    terms = []
    for i in reversed(range(len(f.modulus))):
        c = f.modulus[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(f"{head}z^{i}" if i > 1 else f"{head}z")
    return "+".join(terms)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def add_table(f: FieldSpec) -> list[list[int]]:
    return [[f.add(a, b) for b in range(f.order)] for a in range(f.order)]


def mul_table(f: FieldSpec) -> list[list[int]]:
    return [[f.mul(a, b) for b in range(f.order)] for a in range(f.order)]


def emit_tables(f: FieldSpec) -> str:
    """Human-readable addition and multiplication tables, labels 0..q-1."""
    if f.order > PRINT_LIMIT:
        raise FieldError(f"table printing limited to order <= {PRINT_LIMIT}")
    width = len(str(f.order - 1))
    header = " ".join(f"{b:>{width}}" for b in range(f.order))
    lines = [f"GF({f.order})  p={f.p} m={f.m}  modulus {modulus_str(f)}"]
    for name, table in (("addition", add_table(f)), ("multiplication", mul_table(f))):
        lines.append(f"{name}:")
        lines.append(f"{'':>{width}} | {header}")
        lines.append("-" * (width + 3 + len(header)))
        for a, row in enumerate(table):
            lines.append(
                f"{a:>{width}} | " + " ".join(f"{v:>{width}}" for v in row)
            )
    return "\n".join(lines)


def field_json(f: FieldSpec) -> dict:
    return {"p": f.p, "m": f.m, "modulus": list(f.modulus), "primitive": f.primitive}


# ---------------------------------------------------------------------------
# Linear algebra over a field
# ---------------------------------------------------------------------------

def matrix_rank(f: FieldSpec, rows) -> int:
    """Rank of a matrix of labels via exact Gauss-Jordan elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = f.inv(rows[rank][col])
        prow = [f.mul(inv, v) for v in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [f.sub(v, f.mul(c, pv)) for v, pv in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# Batched linear algebra in the log domain
# ---------------------------------------------------------------------------

class _LogTables(NamedTuple):
    exp: np.ndarray  # exp[i] = label of alpha^i, i in 0..q-2
    log: np.ndarray  # log[label], with -1 standing for the zero element
    zech: np.ndarray  # zech[t] = log(1 + alpha^t), -1 where that sum is zero
    log_neg_one: int  # log(-1)


def _log_tables(f: FieldSpec) -> _LogTables:
    exp = np.array(f.exp, dtype=np.int64)
    log = np.array(f.log, dtype=np.int64)
    log[0] = -1
    # Adding 1 changes only the constant coefficient, the lowest digit.
    one_plus = exp + np.where(exp % f.p == f.p - 1, 1 - f.p, 1)
    return _LogTables(exp, log, log[one_plus], int(log[f.p - 1]))


def _labels(f: FieldSpec, x) -> np.ndarray:
    """Label array of x, checked once against 0 <= a < q."""
    a = np.asarray(x)
    if a.size and a.dtype.kind not in "iu":
        raise FieldError(f"labels must be integers, not {a.dtype}")
    a = a.astype(np.int64, copy=False)
    bad = (a < 0) | (a >= f.order)
    if bad.any():
        raise FieldError(f"label {a[bad][0]} outside field of order {f.order}")
    return a


def _zech_add(t: _LogTables, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Logs of alpha^x + alpha^y, elementwise; -1 is zero throughout."""
    n1 = len(t.exp)
    s = t.zech[(y - x) % n1]
    out = np.where(s < 0, -1, (x + s) % n1)
    out = np.where(x < 0, y, out)
    return np.where(y < 0, x, out)


def _rank_logs(t: _LogTables, a: np.ndarray) -> np.ndarray:
    """Ranks of a (B, r, c) batch of log matrices; overwrites `a`.

    Each column's pivot row eliminates that column from every row,
    itself included, so a used pivot row becomes zero and is never
    picked again: no row swaps and no per-matrix row bookkeeping.
    """
    n1 = len(t.exp)
    rank = np.zeros(a.shape[0], dtype=np.int64)
    batch = np.arange(a.shape[0])
    for col in range(a.shape[2]):
        if (rank == a.shape[1]).all():  # every row has pivoted and is zero: no rank left
            break
        head = a[:, :, col]
        nonzero = head >= 0
        has = nonzero.any(axis=1)
        if not has.any():
            continue
        rank += has
        rest = a[:, :, col:]
        prow = rest[batch, nonzero.argmax(axis=1)]
        # -(head_i / pivot) * prow_j; garbage where head_i or prow_j is zero
        term = ((head - prow[:, :1])[:, :, None] + prow[:, None, :] + t.log_neg_one) % n1
        term[~(nonzero[:, :, None] & (prow[:, None, :] >= 0))] = -1
        rest[...] = _zech_add(t, rest, term)
    return rank


def batch_rank(f: FieldSpec, mats) -> np.ndarray:
    """Ranks of a (B, r, c) batch of label matrices, agreeing with
    `matrix_rank` on each; at most BATCH_LABELS labels per step."""
    a = _labels(f, mats)
    if a.ndim != 3:
        raise FieldError("batch_rank expects a (B, r, c) array of labels")
    t = f._tables
    step = max(1, BATCH_LABELS // max(1, a.shape[1] * a.shape[2]))
    return np.concatenate(
        [_rank_logs(t, t.log[a[s:s + step]]) for s in range(0, len(a), step)]
        or [np.zeros(0, dtype=np.int64)]
    )


def column_subset_ranks(f: FieldSpec, matrix, size: int) -> np.ndarray:
    """Rank of every `size`-column submatrix, subsets in
    `itertools.combinations` order, gathered BATCH_LABELS at a time."""
    logs = f._tables.log[_labels(f, matrix)].T  # columns as rows
    r = logs.shape[1]
    subsets = combinations(range(len(logs)), size)
    step = max(1, BATCH_LABELS // max(1, r * size))
    ranks = []
    while chunk := list(islice(subsets, step)):
        cols = np.array(chunk, dtype=np.intp).reshape(len(chunk), size)
        # rank(G_S) = rank(G_S^T), and the (B, size, r) gather is contiguous
        ranks.append(_rank_logs(f._tables, logs[cols]))
    return np.concatenate(ranks) if ranks else np.zeros(0, dtype=np.int64)


def matmul(f: FieldSpec, a, b) -> np.ndarray:
    """Product of an (N, k) and a (k, n) label array over the field."""
    t = f._tables
    la, lb = t.log[_labels(f, a)], t.log[_labels(f, b)]
    n1 = len(t.exp)
    acc = np.full((la.shape[0], lb.shape[1]), -1, dtype=np.int64)
    for i in range(la.shape[1]):
        x, y = la[:, i, None], lb[i]
        acc = _zech_add(t, acc, np.where((x >= 0) & (y >= 0), (x + y) % n1, -1))
    return np.where(acc < 0, 0, t.exp[acc])


def is_prime_power(x: int):
    """Return (p, m) when x = p^m for a prime p, else None."""
    if x < 2:
        return None
    p = next((d for d in range(2, isqrt(x) + 1) if x % d == 0), x)
    m = 0
    while x % p == 0:
        x //= p
        m += 1
    return (p, m) if x == 1 else None
