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
from .dist import JointDistribution, _dense_vector, from_dense
from .errors import DistributionError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 10_000


@dataclass(frozen=True)
class ProjectionResult:
    projection: JointDistribution
    divergence: float
    iterations: int
    residual: float
    converged: bool
    base: float


def dense_table(p: JointDistribution) -> np.ndarray:
    return _dense_vector(p).reshape((p.q,) * p.n)


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
    axes = [tuple(ax + 1 for ax in range(n) if ax not in A) for A in combinations(range(n), k)]
    margs = [targets.sum(axis=c, keepdims=True) for c in axes]
    size = float(np.prod(targets.shape[1:]))
    cur = np.full_like(targets, 1.0 / size)
    residual = math.inf
    sweeps = 0
    with np.errstate(invalid="ignore"):  # an overflowed ratio meets a zero cell: inf * 0
        for sweeps in range(1, max_sweeps + 1):
            for c, t in zip(axes, margs):
                cm = cur.sum(axis=c, keepdims=True)
                cur *= np.divide(t, cm, out=np.zeros_like(cm), where=cm > 0.0)
            residual = max(0.0, *(float(np.abs(cur.sum(axis=c, keepdims=True) - t).max())
                                  for c, t in zip(axes, margs)))
            if residual < tol:
                break
    return cur, sweeps, residual


def batch_divergence(targets: np.ndarray, others: np.ndarray, base: float) -> np.ndarray:
    """Rowwise D(target || other) over matching dense tables."""
    t = targets.reshape(targets.shape[0], -1)
    o = others.reshape(others.shape[0], -1)
    pos = t > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # underflowed ratio: log(0)
        terms = t * np.log(np.divide(t, o, out=np.ones_like(t), where=pos & (o > 0.0)))
    out = terms.sum(axis=1) / math.log(base)
    out[(pos & (o <= 0.0)).any(axis=1)] = math.inf
    return np.maximum(out, 0.0)


def _fit(p: JointDistribution, k: int, tol: float, max_sweeps: int, base: float | None):
    """IPF of p's dense table at order k, without building p^(k) as a
    distribution: (fitted table, D(p || p^(k)), sweeps, residual, base)."""
    if max_sweeps < 1 or not tol > 0.0:
        raise DistributionError(f"IPF needs max_sweeps >= 1 and tol > 0, got {max_sweeps}, {tol}")
    b = float(p.q if base is None else base)
    target = dense_table(p)[np.newaxis]
    proj, sweeps, residual = ipf_project_batch(target, k, tol, max_sweeps)
    return proj[0], float(batch_divergence(target, proj, b)[0]), sweeps, residual, b


def maxent_projection(
    p: JointDistribution,
    k: int,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    base: float | None = None,
) -> ProjectionResult:
    """Maximum-entropy projection of p onto the family with p's k-th
    order marginals, with its divergence in the requested base."""
    proj, div, sweeps, residual, b = _fit(p, k, tol, max_sweeps, base)
    flat = proj.ravel()  # fitted only to tol, so its total drifts from 1
    projection = from_dense(flat / math.fsum(flat), p.n, p.q)
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
    _, div, _, residual, b = _fit(p, k, tol, max_sweeps, base)
    bound = cohesion_k(p, k, b) / comb(p.n - 1, k - 1)
    slack = bound - div
    return Eq4Report(k, div, bound, slack, slack >= -(tol + 1e-6), residual < tol)


def projection_json(p: JointDistribution, k: int, tol: float, max_sweeps: int) -> dict:
    _, div, sweeps, residual, b = _fit(p, k, tol, max_sweeps, None)
    bound = cohesion_k(p, k, b) / comb(p.n - 1, k - 1)
    bits = math.log(p.q) / math.log(2.0)
    return {
        "k": k,
        "base": b,
        "divergence": div,
        "divergence_bits": div * bits,
        "iterations": sweeps,
        "residual": residual,
        "converged": residual < tol,
        "eq4_lhs": div,
        "eq4_rhs": bound,
    }
