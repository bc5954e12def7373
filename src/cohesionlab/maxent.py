"""Maximum-entropy projections preserving k-th order marginals.

The projection p^(k) is computed by iterative proportional fitting:
starting from the uniform table, cycle over all C(n, k) marginal
constraints, multiplying by target/current ratios until the largest
marginal discrepancy falls below tolerance. In a batch each row stops at
its own first such sweep, so its result does not depend on the rows next
to it. The divergence D(p || p^(k)) is then compared against its
Cohesion ceiling C^(k) / C(n-1, k-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import dist
from .cohesion import _check_order, cohesion_k
from .dist import JointDistribution, _base, _dense_vector, from_dense
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


@lru_cache(maxsize=16)
def _ipf_plan(n: int, q: int, k: int):
    """Gathers for IPF on cell-major rows: x has shape (q^n, rows) and holds
    its cells in the layout of the k-subset it last scaled. Layout i lists
    the cells with subset i's marginal cell fastest, so a marginal is a sum
    over the leading axis of x.reshape(q^(n-k), q^k, rows), which numpy adds
    in one fixed order whatever the row count. `steps[i]` moves x from
    layout i - 1 (the last one, for i = 0) to layout i; `gather` reads every
    layout, concatenated, out of the last one; `back[c]` is cell c's place
    in the last layout."""
    cells = np.arange(q**n).reshape((q,) * n)
    orders = np.stack([cells.transpose([ax for ax in range(n) if ax not in A] + list(A)).ravel()
                       for A in combinations(range(n), k)])
    pos = np.argsort(orders, axis=1)
    steps = pos[np.arange(-1, len(orders) - 1)[:, None], orders]
    return steps, pos[-1][orders.ravel()], pos[-1]


def _ratio(t: np.ndarray, cm: np.ndarray) -> np.ndarray:
    return np.divide(t, cm, out=np.zeros(cm.shape), where=cm > 0.0)


def ipf_project_batch(
    targets: np.ndarray,
    k: int,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
):
    """IPF on a batch of distributions sharing one shape, each row stopping
    at its first sweep with L-inf marginal residual < tol, or at max_sweeps
    (at least 1).

    targets has shape (N, q, ..., q) with n trailing axes. Returns
    (projections, sweeps, residual): sweeps is the most any row took and
    residual the worst row's residual when it stopped. A stopped row leaves
    the working arrays, so each row's result is the one it gets alone.
    While C(n, k) q^n <= dist.INCIDENCE_LIMIT, the rows are kept cell-major
    and each subset step is one row gather from a cached plan (_ipf_plan);
    the residual gathers a block of rows at a time so that no gather passes
    dist.TABLE_LIMIT cells. Above it, marginals come from axis sums of the
    table.
    """
    if max_sweeps < 1:  # no sweep leaves residual 0.0, which reads as converged
        raise DistributionError(f"IPF needs max_sweeps >= 1, got {max_sweeps}")
    targets = np.asarray(targets, dtype=float)
    n = targets.ndim - 1
    _check_order(k, n)
    rows, q = targets.shape[:2]
    cells, rest = q**k, q**(n - k)  # cells of a k-marginal; table cells summed into each
    flat = targets.reshape(rows, q**n)
    out = np.full(flat.shape, 1.0 / q**n)  # C order: the axis route scales views of it
    if comb(n, k) * q**n <= dist.INCIDENCE_LIMIT:
        steps, gather, back = _ipf_plan(n, q, k)
        block = max(1, dist.TABLE_LIMIT // gather.size)  # rows gathered at once: a table's cells

        def marginals(x):  # (C(n, k), q^k, rows) of x in the last layout
            if x.shape[1] > block:
                return np.concatenate([marginals(x[:, r:r + block])
                                       for r in range(0, x.shape[1], block)], axis=2)
            picked = x.take(gather, axis=0).reshape(len(steps), rest, cells, x.shape[1])
            return np.add.reduce(picked, axis=1)

        def sweep(x, margs):
            for step, t in zip(steps, margs):
                x = x.take(step, axis=0)
                x3 = x.reshape(rest, cells, -1)
                x3 *= _ratio(t, np.add.reduce(x3, axis=0))
            return x

        def rows_of(x):
            return x.take(back, axis=0).T

        x = np.empty((q**n, rows))
        x[back] = flat.T  # the targets, in the last layout
        margs = marginals(x)
        x.fill(1.0 / q**n)  # the uniform start is the same in every layout
        ax, spread = -1, (0, 1)
    else:
        subsets = list(combinations(range(n), k))
        axes = [tuple(ax + 1 for ax in range(n) if ax not in A) for A in subsets]
        shapes = [(-1,) + tuple(q if ax in A else 1 for ax in range(n)) for A in subsets]

        def marginals(x):  # (rows, C(n, k), q^k)
            cube = x.reshape((len(x),) + (q,) * n)
            return np.stack([cube.sum(axis=c).reshape(len(x), cells) for c in axes], axis=1)

        def sweep(cur, margs):
            cube = cur.reshape((len(cur),) + (q,) * n)
            for i, (c, shape) in enumerate(zip(axes, shapes)):
                cube *= _ratio(margs[:, i], cube.sum(axis=c).reshape(len(cur), cells)).reshape(shape)
            return cur

        def rows_of(x):
            return x

        x, margs = out, marginals(flat)
        ax, spread = 0, (1, 2)

    live, sweeps, residual = np.arange(rows), 0, 0.0
    with np.errstate(invalid="ignore"):  # an overflowed ratio meets a zero cell: inf * 0
        while live.size and sweeps < max_sweeps:
            sweeps += 1
            x = sweep(x, margs)
            gaps = np.abs(marginals(x) - margs).max(axis=spread)
            done = (gaps < tol) | (sweeps == max_sweeps)
            if done.any():
                residual = float(gaps[done].max(initial=residual))  # NaN stays NaN
                if x is not out:
                    out[live[done]] = rows_of(x.compress(done, axis=ax))
                keep = ~done
                live, x = live[keep], x.compress(keep, axis=ax)
                margs = margs.compress(keep, axis=ax)
    return out.reshape(targets.shape), sweeps, residual


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
    b = _base(p.q, base)
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
