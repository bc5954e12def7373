"""Reference computations the benchmark checks the library's outputs against.

They are written independently of `cohesionlab` so that a change to the
library's kernels cannot silently change the expected values: subset
entropies come from grouping atoms by key (sparse) or summing axes of a
dense cube, projections from a plain single-row IPF loop, and the
Reed-Solomon values from the closed form H(S) = min(|S|, k).
"""

from __future__ import annotations

import math
from itertools import combinations
from math import comb

import numpy as np


def _entropy_rows(marg: np.ndarray, base: float) -> np.ndarray:
    """Row-wise Shannon entropy of a (N, cells) array of masses."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(marg > 0.0, marg * np.log(np.where(marg > 0.0, marg, 1.0)), 0.0)
    return -terms.sum(axis=1) / math.log(base)


def mask_entropy(outcomes: np.ndarray, masses: np.ndarray, q: int, mask: int,
                 base: float) -> float:
    """Entropy of the marginal on `mask` of a sparse distribution given as
    an (atoms, n) integer array of outcomes and their masses; atoms are
    grouped by the mixed-radix key of the selected columns."""
    cols = [i for i in range(outcomes.shape[1]) if mask >> i & 1]
    keys = outcomes[:, cols] @ (q ** np.arange(len(cols), dtype=np.int64))
    _, inverse = np.unique(keys, return_inverse=True)
    marg = np.bincount(inverse.ravel(), weights=masses)
    return float(_entropy_rows(marg[np.newaxis], base)[0])


def subset_entropies_sparse(outcomes: np.ndarray, masses: np.ndarray, q: int,
                            base: float) -> np.ndarray:
    """All 2^n subset entropies of a sparse distribution, indexed by mask."""
    table = np.zeros(1 << outcomes.shape[1])
    for mask in range(1, len(table)):
        table[mask] = mask_entropy(outcomes, masses, q, mask, base)
    return table


def cohesion_k_sparse(outcomes: np.ndarray, masses: np.ndarray, q: int, k: int,
                      base: float) -> float:
    """Cohesion-k of a sparse distribution from its k-subsets alone."""
    n = outcomes.shape[1]
    total = sum(mask_entropy(outcomes, masses, q, sum(1 << i for i in idx), base)
                for idx in combinations(range(n), k))
    return total - comb(n - 1, k - 1) * mask_entropy(outcomes, masses, q, (1 << n) - 1, base)


def cohesion_from_table(table: np.ndarray, n: int) -> list[float]:
    """C^(k) for k = 1..n-1 from a subset-entropy table."""
    sums = [0.0] * (n + 1)
    for mask in range(1, 1 << n):
        sums[mask.bit_count()] += float(table[mask])
    joint = float(table[(1 << n) - 1])
    return [sums[k] - comb(n - 1, k - 1) * joint for k in range(1, n)]


def cohesion_dense(P: np.ndarray, n: int, q: int, orders, base: float) -> np.ndarray:
    """(N, len(orders)) Cohesion values of each row of a dense (N, q^n) batch."""
    cube = P.reshape((P.shape[0],) + (q,) * n)
    joint = _entropy_rows(P, base)
    cols = []
    for k in orders:
        total = np.zeros(P.shape[0])
        for idx in combinations(range(n), k):
            axes = tuple(ax + 1 for ax in range(n) if ax not in idx)
            total += _entropy_rows(cube.sum(axis=axes).reshape(P.shape[0], -1), base)
        cols.append(total - comb(n - 1, k - 1) * joint)
    return np.stack(cols, axis=1)


def rs_cohesion(n: int, k: int, order: int) -> float:
    """Cohesion-`order` of the uniform distribution on an [n, k] MDS code,
    base q: every subset S has entropy min(|S|, k)."""
    return comb(n, order) * min(order, k) - comb(n - 1, order - 1) * k


def ipf_single(cube: np.ndarray, k: int, tol: float = 1e-12,
               max_sweeps: int = 200_000) -> np.ndarray:
    """Max-entropy projection of one dense table onto its k-th order
    marginals, fitting one marginal at a time from the uniform table."""
    n = cube.ndim
    subsets = [tuple(ax for ax in range(n) if ax not in idx)
               for idx in combinations(range(n), k)]
    targets = [cube.sum(axis=axes, keepdims=True) for axes in subsets]
    cur = np.full(cube.shape, 1.0 / cube.size)
    for _ in range(max_sweeps):
        for axes, target in zip(subsets, targets):
            cm = cur.sum(axis=axes, keepdims=True)
            cur = cur * np.divide(target, cm, out=np.zeros_like(cm), where=cm > 0.0)
        worst = max(float(np.abs(cur.sum(axis=axes, keepdims=True) - target).max())
                    for axes, target in zip(subsets, targets))
        if worst < tol:
            return cur
    raise ArithmeticError(f"reference IPF did not converge in {max_sweeps} sweeps")


def divergence(p: np.ndarray, r: np.ndarray, base: float) -> float:
    """D(p || r) for dense tables of one shape."""
    p = p.ravel()
    r = r.ravel()
    nz = p > 0.0
    return max(float((p[nz] * np.log(p[nz] / r[nz])).sum()), 0.0) / math.log(base)


def atoms_arrays(atoms) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, masses) arrays from an outcome -> mass mapping or from
    a list of {"x": [...], "p": m} records as in the JSON format."""
    if isinstance(atoms, dict):
        items = list(atoms.items())
    else:
        items = [(a["x"], a["p"]) for a in atoms]
    outcomes = np.array([o for o, _ in items], dtype=np.int64)
    masses = np.array([m for _, m in items], dtype=float)
    return outcomes, masses
