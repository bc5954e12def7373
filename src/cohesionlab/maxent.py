"""Maximum-entropy projections preserving k-th order marginals.

The projection p^(k) is computed by iterative proportional fitting:
starting from the uniform table, cycle over all C(n, k) marginal
constraints, multiplying by target/current ratios until the largest
marginal discrepancy falls below tolerance. The divergence D(p || p^(k))
is then compared against its Cohesion ceiling C^(k) / C(n-1, k-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .cohesion import cohesion_k
from .dist import JointDistribution, from_dense, to_dense
from .errors import DistributionError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 10_000
DENSE_LIMIT = 1 << 20


@dataclass(frozen=True)
class ProjectionResult:
    projection: JointDistribution
    divergence: float
    iterations: int
    residual: float
    converged: bool
    base: float


def dense_table(p: JointDistribution) -> np.ndarray:
    if p.q**p.n > DENSE_LIMIT:
        raise DistributionError(
            f"outcome space {p.q}^{p.n} exceeds the dense limit {DENSE_LIMIT}"
        )
    return np.asarray(to_dense(p), dtype=float).reshape((p.q,) * p.n)


def ipf_project_batch(
    targets: np.ndarray,
    k: int,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
):
    """IPF on a batch of distributions sharing one shape.

    targets has shape (N, q, ..., q) with n trailing axes. Returns
    (projections, sweeps, residual) where residual is the worst L-inf
    marginal discrepancy across the whole batch at termination.
    """
    targets = np.asarray(targets, dtype=float)
    n = targets.ndim - 1
    if not 1 <= k <= n - 1:
        raise DistributionError(f"interaction order k={k} outside 1..{n - 1}")
    subsets = list(combinations(range(n), k))
    complements = {
        A: tuple(ax + 1 for ax in range(n) if ax not in A) for A in subsets
    }
    target_margs = {
        A: targets.sum(axis=complements[A], keepdims=True) for A in subsets
    }
    size = float(np.prod(targets.shape[1:]))
    cur = np.full_like(targets, 1.0 / size)
    residual = math.inf
    sweeps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweeps in range(1, max_sweeps + 1):
            for A in subsets:
                cm = cur.sum(axis=complements[A], keepdims=True)
                ratio = np.where(cm > 0.0, target_margs[A] / np.where(cm > 0.0, cm, 1.0), 0.0)
                cur *= ratio
            residual = 0.0
            for A in subsets:
                cm = cur.sum(axis=complements[A], keepdims=True)
                residual = max(residual, float(np.abs(cm - target_margs[A]).max()))
            if residual < tol:
                break
    return cur, sweeps, residual


def batch_divergence(targets: np.ndarray, others: np.ndarray, base: float) -> np.ndarray:
    """Rowwise D(target || other) over matching dense tables."""
    t = targets.reshape(targets.shape[0], -1)
    o = others.reshape(others.shape[0], -1)
    mask = t > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mask, t * np.log(np.where(mask, t, 1.0) / np.where(o > 0.0, o, 1.0)), 0.0)
    out = terms.sum(axis=1) / math.log(base)
    out[np.where((t > 0) & (o <= 0))[0]] = math.inf
    return np.maximum(out, 0.0)


def maxent_projection(
    p: JointDistribution,
    k: int,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    base: float | None = None,
) -> ProjectionResult:
    """Maximum-entropy projection of p onto the family with p's k-th
    order marginals, with its divergence in the requested base."""
    b = float(p.q if base is None else base)
    target = dense_table(p)[np.newaxis]
    proj, sweeps, residual = ipf_project_batch(target, k, tol, max_sweeps)
    div = float(batch_divergence(target, proj, b)[0])
    flat = proj[0].ravel()  # fitted only to tol, so its total drifts from 1
    projection = from_dense((flat / math.fsum(flat)).tolist(), p.n, p.q)
    return ProjectionResult(projection, div, sweeps, residual, residual < tol, b)


@dataclass(frozen=True)
class Eq4Report:
    k: int
    divergence: float
    bound: float
    slack: float
    satisfied: bool
    converged: bool


def check_eq4_bound(
    p: JointDistribution,
    k: int,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    base: float | None = None,
) -> Eq4Report:
    """Compare D(p || p^(k)) against C^(k) / C(n-1, k-1).

    A violation beyond tol + 1e-6 indicates a bug, not a counterexample.
    """
    res = maxent_projection(p, k, tol, max_sweeps, base)
    bound = cohesion_k(p, k, res.base) / comb(p.n - 1, k - 1)
    slack = bound - res.divergence
    return Eq4Report(k, res.divergence, bound, slack, slack >= -(tol + 1e-6), res.converged)


def projection_json(p: JointDistribution, k: int, tol: float, max_sweeps: int) -> dict:
    res = maxent_projection(p, k, tol, max_sweeps)
    bound = cohesion_k(p, k, res.base) / comb(p.n - 1, k - 1)
    bits = math.log(p.q) / math.log(2.0)
    return {
        "k": k,
        "base": res.base,
        "divergence": res.divergence,
        "divergence_bits": res.divergence * bits,
        "iterations": res.iterations,
        "residual": res.residual,
        "converged": res.converged,
        "eq4_lhs": res.divergence,
        "eq4_rhs": bound,
    }
