"""Discrete joint distributions over a common finite alphabet.

Outcomes are length-n tuples of symbols in 0..q-1, stored sparsely as an
atom -> mass map. Variable subsets are plain n-bit integer masks (bit i
selects variable i). Entropies default to base q, the convention used
throughout the toolkit; pass an explicit base to convert.

Subset entropies H(X_S) come from two reductions here, picked by input
type (JointDistribution atoms or a dense batch of tables); `marginalize`
and `entropy` are the simple reference path.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np

from .errors import DistributionError

MASS_TOL = 1e-12
TABLE_LIMIT = 1 << 20  # entries of any table built whole: cells, subsets, codewords
INCIDENCE_LIMIT = 1 << 16  # entries of the cached marginal matrix


def _check_table(entries: int, what: str, error=DistributionError) -> None:
    """Refuse a table of more than TABLE_LIMIT entries; `what` names it and
    its size, e.g. "codeword table: 13^6"."""
    if entries > TABLE_LIMIT:
        raise error(f"{what} = {entries} entries, above the table limit {TABLE_LIMIT}")


def mask_bits(mask: int) -> list[int]:
    """Variable indices selected by an integer subset mask, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def indices_to_mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over n discrete variables with common alphabet size q.

    Atoms with zero mass are dropped on construction. Instances are
    treated as immutable values; nothing mutates `atoms` after init.
    """

    n: int
    q: int
    atoms: dict

    def __post_init__(self):
        if self.n < 1:
            raise DistributionError("need at least one variable")
        if self.q < 2:
            raise DistributionError("alphabet size must be >= 2")
        clean = {}
        top = 1.0 + MASS_TOL  # a larger mass fails the sum check; also keeps fsum finite
        for outcome, mass in self.atoms.items():
            try:
                outcome = tuple(map(operator.index, outcome))
            except TypeError:
                raise DistributionError(f"outcome {outcome} has a non-integer symbol") from None
            if len(outcome) != self.n:
                raise DistributionError(
                    f"outcome {outcome} has length {len(outcome)}, expected {self.n}"
                )
            for s in outcome:
                if s < 0 or s >= self.q:
                    raise DistributionError(
                        f"symbol {s} in outcome {outcome} outside 0..{self.q - 1}"
                    )
            mass = float(mass)
            if not 0.0 <= mass <= top:
                raise DistributionError(f"mass {mass} at {outcome} is negative, above 1 or NaN")
            if mass > 0.0:
                clean[outcome] = clean.get(outcome, 0.0) + mass
        total = math.fsum(clean.values())  # exact: a running sum drifts past MASS_TOL
        if abs(total - 1.0) > MASS_TOL:
            raise DistributionError(f"masses sum to {total!r}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "atoms", clean)

    @classmethod
    def uniform(cls, n: int, q: int) -> "JointDistribution":
        mass = 1.0 / q**n
        return cls(n, q, {x: mass for x in product(range(q), repeat=n)})

    @classmethod
    def point_mass(cls, outcome, q: int) -> "JointDistribution":
        outcome = tuple(outcome)
        return cls(len(outcome), q, {outcome: 1.0})

    @classmethod
    def normalized(cls, n: int, q: int, atoms: dict) -> "JointDistribution":
        """Explicitly renormalize raw nonnegative weights to total mass 1."""
        total = math.fsum(atoms.values())
        if total <= 0:
            raise DistributionError("cannot normalize: total weight is not positive")
        return cls(n, q, {x: m / total for x, m in atoms.items() if m > 0})

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def mass(self, outcome) -> float:
        return self.atoms.get(tuple(outcome), 0.0)


def marginalize(p: JointDistribution, mask: int) -> JointDistribution:
    """Marginal distribution over the variables selected by `mask`.

    The returned distribution keeps the selected variables in increasing
    index order.
    """
    if mask == 0:
        raise DistributionError("empty subset")
    if mask >> p.n:
        raise DistributionError(f"mask {mask:#b} does not fit in {p.n} bits")
    idx = mask_bits(mask)
    out: dict = {}
    for outcome, m in p.atoms.items():
        key = tuple(outcome[i] for i in idx)
        out[key] = out.get(key, 0.0) + m
    return JointDistribution(len(idx), p.q, out)


def _base(q: int, base: float | None) -> float:
    """The log base, q by default; refused unless finite and > 1."""
    b = float(q if base is None else base)
    if not 1 < b < math.inf:  # NaN fails here too
        raise DistributionError(f"log base must be {'finite' if b == math.inf else '> 1'}")
    return b


def _xlogx(m: np.ndarray) -> np.ndarray:
    """Elementwise m log m with 0 log 0 = 0."""
    return m * np.log(np.where(m > 0.0, m, 1.0))


def entropy(p: JointDistribution, base: float | None = None) -> float:
    """Shannon entropy; zero-mass atoms contribute nothing (0 log 0 = 0)."""
    logb = math.log(_base(p.q, base))
    return -sum(m * math.log(m) for m in p.atoms.values()) / logb


def subset_entropy(p: JointDistribution, mask: int, base: float | None = None) -> float:
    """Entropy of the marginal on `mask`; H of the empty subset is 0."""
    if mask == 0:
        return 0.0
    return entropy(marginalize(p, mask), base)


def _sparse_entropies(p: JointDistribution, max_order: int) -> dict:
    """H in nats of every subset of 1..max_order variables, by mask.

    Depth-first over the subset lattice, holding only the current path: a
    child's atom keys are its parent's labels in mixed radix with one more
    variable, relabelled densely by np.unique so they never overflow.
    """
    outcomes = np.array(list(p.atoms), dtype=np.int64)
    masses = np.fromiter(p.atoms.values(), float, len(p.atoms))
    table = {}

    def walk(mask, labels, start):
        for i in range(start, p.n):
            _, child_labels = np.unique(labels * p.q + outcomes[:, i], return_inverse=True)
            child = mask | 1 << i
            table[child] = -_xlogx(np.bincount(child_labels, weights=masses)).sum()
            if child.bit_count() < max_order:
                walk(child, child_labels, i + 1)

    walk(0, np.zeros(len(masses), dtype=np.int64), 0)
    return table


def entropy_table(p: JointDistribution, base: float | None = None) -> list[float]:
    """All 2^n subset entropies, indexed by subset mask (index 0 -> 0.0)."""
    _check_table(1 << p.n, f"entropy table: 2^{p.n}")
    logb = math.log(_base(p.q, base))
    table = _sparse_entropies(p, p.n)
    return [0.0] + [float(table[mask]) / logb for mask in range(1, 1 << p.n)]


@lru_cache(maxsize=16)
def _incidence(n: int, q: int, orders: tuple):
    """0/1 matrix taking a flat q^n table to its marginals on every subset
    of each size in `orders`, concatenated by order; and where each order's
    columns start."""
    cells = np.indices((q,) * n).reshape(n, -1)
    blocks = [np.equal.outer(np.ravel_multi_index(cells[list(idx)], (q,) * k), np.arange(q**k))
              for k in orders for idx in combinations(range(n), k)]
    starts = np.cumsum([0] + [comb(n, k) * q**k for k in orders[:-1]])
    return np.hstack(blocks).astype(float), starts


def _sparse_sums(p: JointDistribution, orders: tuple) -> np.ndarray:
    """Entropy sums (nats) over the subsets of each size in `orders`."""
    out = dict.fromkeys(range(1, p.n + 1), 0.0)
    out[p.n] = -_xlogx(np.fromiter(p.atoms.values(), float, len(p.atoms))).sum()
    lower = [k for k in orders if k < p.n]
    for mask, h in _sparse_entropies(p, max(lower)).items() if lower else ():
        out[mask.bit_count()] += h
    return np.array([out[k] for k in orders])


def _dense_sums(cube: np.ndarray, orders: tuple) -> np.ndarray:
    """Per-row entropy sums (nats) over the subsets of each size in
    `orders`, for a batch of shape (N, q, ..., q).

    A small incidence matrix gives every marginal in one product. Past
    INCIDENCE_LIMIT the subset lattice is walked depth-first, each marginal
    one axis-sum of a parent with one more variable; only the current path
    is held, under twice the table.
    """
    rows, n, q = cube.shape[0], cube.ndim - 1, cube.shape[1]
    flat = cube.reshape(rows, -1)
    if q**n * sum(comb(n, k) * q**k for k in orders) <= INCIDENCE_LIMIT:
        matrix, starts = _incidence(n, q, orders)
        return -np.add.reduceat(_xlogx(flat @ matrix), starts, axis=1)
    out = {k: np.zeros(rows) for k in orders}
    out[n] = -_xlogx(flat).sum(axis=1)
    lowest = min(orders)

    def walk(table, start):
        size = table.ndim - 2  # variables left in each child
        for j in range(start, size + 1):
            child = table.sum(axis=j + 1)
            if size in out:
                out[size] -= _xlogx(child).reshape(rows, -1).sum(axis=1)
            if size > lowest:
                walk(child, j)

    walk(cube, 0)
    return np.stack([out[k] for k in orders], axis=1)


def order_entropies(x, orders, base: float | None = None) -> np.ndarray:
    """Sum of H(X_S) over all subsets S of each size k in `orders`
    (distinct sizes in 1..n, in any order).

    The input picks the reduction. A JointDistribution is reduced over its
    atoms and gives shape (len(orders),); a dense batch of shape
    (N, q, ..., q) with n trailing axes gives shape (N, len(orders)).
    """
    orders = tuple(orders)
    sparse = isinstance(x, JointDistribution)
    n, q = (x.n, x.q) if sparse else (x.ndim - 1, x.shape[1])
    if not orders or len(set(orders)) < len(orders) or not all(1 <= k <= n for k in orders):
        raise DistributionError(f"subset sizes {orders} are not distinct sizes in 1..{n}")
    return (_sparse_sums if sparse else _dense_sums)(x, orders) / math.log(_base(q, base))


def kl_divergence(
    p: JointDistribution, r: JointDistribution, base: float | None = None
) -> float:
    """D(p || r). Returns +inf when p has mass outside r's support."""
    if (p.n, p.q) != (r.n, r.q):
        raise DistributionError(
            f"shape mismatch: ({p.n},{p.q}) vs ({r.n},{r.q})"
        )
    logb = math.log(_base(p.q, base))
    total = 0.0
    for outcome, pm in p.atoms.items():
        rm = r.atoms.get(outcome, 0.0)
        if rm <= 0.0:
            return math.inf
        total += pm * math.log(pm / rm)
    return max(total, 0.0) / logb


def product_of_marginals(p: JointDistribution) -> JointDistribution:
    """Independent product distribution with p's single-variable marginals."""
    margs = [marginalize(p, 1 << i) for i in range(p.n)]
    atoms: dict = {}
    for outcome in product(range(p.q), repeat=p.n):
        m = 1.0
        for i, s in enumerate(outcome):
            m *= margs[i].atoms.get((s,), 0.0)
            if m == 0.0:
                break
        if m > 0.0:
            atoms[outcome] = m
    return JointDistribution(p.n, p.q, atoms)


# ---------------------------------------------------------------------------
# Dense view (small index spaces only)
# ---------------------------------------------------------------------------

def _dense_vector(p: JointDistribution) -> np.ndarray:
    """Flat float64 array of length q^n, row-major outcome order."""
    _check_table(p.q**p.n, f"dense table: {p.q}^{p.n}")
    cells = np.ravel_multi_index(np.array(list(p.atoms)).T, (p.q,) * p.n)
    vec = np.zeros(p.q**p.n)
    vec[cells] = list(p.atoms.values())
    return vec


def to_dense(p: JointDistribution) -> list[float]:
    """Flat probability vector of length q^n, row-major outcome order."""
    return _dense_vector(p).tolist()


def from_dense(vec, n: int, q: int) -> JointDistribution:
    """Distribution on the positive cells of a row-major vector, in
    ascending cell order."""
    if len(vec) != q**n:
        raise DistributionError(f"dense vector length {len(vec)} != {q}^{n}")
    vec = np.asarray(vec, dtype=float)
    cells = np.flatnonzero(vec > 0.0)
    outcomes = np.stack(np.unravel_index(cells, (q,) * n), axis=1).tolist()
    return JointDistribution(n, q, dict(zip(map(tuple, outcomes), vec[cells].tolist())))


# ---------------------------------------------------------------------------
# File formats: CSV with header x0,...,x{n-1},p and a JSON mirror
# ---------------------------------------------------------------------------

def to_csv(p: JointDistribution, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(f"# q={p.q}\n")
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(p.n)] + ["p"])
        for outcome in sorted(p.atoms):
            writer.writerow(list(outcome) + [repr(p.atoms[outcome])])


def from_csv(path, q: int | None = None) -> JointDistribution:
    path = Path(path)
    header = None
    rows = []
    meta_q = None
    with path.open(errors="replace") as fh:  # a bad byte fails its cell's parse
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("q="):
                    try:
                        meta_q = int(body[2:])
                    except ValueError as exc:
                        raise DistributionError(f"{path}:{lineno}: {exc}") from exc
                continue
            cells = [c.strip() for c in line.split(",")]
            if header is None:
                header = cells
                if len(header) < 2 or header[-1] != "p":
                    raise DistributionError(
                        f"{path}:{lineno}: header must be x0,...,x{{n-1}},p"
                    )
                continue
            if len(cells) != len(header):
                raise DistributionError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
                )
            try:
                outcome = tuple(int(c) for c in cells[:-1])
                mass = float(cells[-1])
            except ValueError as exc:
                raise DistributionError(f"{path}:{lineno}: {exc}") from exc
            rows.append((outcome, mass))
    if header is None or not rows:
        raise DistributionError(f"{path}: no distribution rows found")
    n = len(header) - 1
    if q is None:
        q = meta_q if meta_q is not None else max(2, max(max(o) for o, _ in rows) + 1)
    atoms: dict = {}
    for outcome, mass in rows:
        atoms[outcome] = atoms.get(outcome, 0.0) + mass
    try:
        return JointDistribution(n, q, atoms)
    except DistributionError as exc:
        raise DistributionError(f"{path}: {exc}") from exc


def to_json_dict(p: JointDistribution) -> dict:
    return {
        "n": p.n,
        "q": p.q,
        "atoms": [{"x": list(o), "p": m} for o, m in sorted(p.atoms.items())],
    }


def to_json(p: JointDistribution, path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(p), indent=2) + "\n")


def from_json(path) -> JointDistribution:
    try:
        data = json.loads(Path(path).read_text())
        atoms = {tuple(a["x"]): float(a["p"]) for a in data["atoms"]}
        for field in ("n", "q"):  # as operator.index on JSON values: 1.9, 2.0 and "2" fail
            if not isinstance(data[field], int):
                raise DistributionError(f"field {field!r} = {data[field]!r} is not an integer")
        return JointDistribution(data["n"], data["q"], atoms)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers DistributionError
        raise DistributionError(f"{path}: malformed JSON distribution: {exc}") from exc


def load(path) -> JointDistribution:
    """Load a distribution from .csv or .json, dispatching on suffix."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return from_json(path)
    return from_csv(path)
