"""The Cohesion family of multivariate dependence measures.

Cohesion-k sums the entropies of all k-variable marginals and subtracts
C(n-1, k-1) times the joint entropy. Order k=1 is the total correlation,
order k=n-1 the dual total correlation. Two families of bounds are
checked here: the linear inequalities relating adjacent orders
((n-k) C^(k) >= k C^(k+1)) and the constant ceiling k*C(n-1,k) in
base-q units, plus the three extra inequalities specific to n=4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from .dist import JointDistribution, _log_base, order_entropies
from .errors import DistributionError

BOUND_TOL = 1e-9


def constant_bound(n: int, k: int) -> float:
    """Ceiling k * C(n-1, k) on Cohesion-k, in base-q units."""
    if not 1 <= k <= n - 1:
        raise DistributionError(f"interaction order k={k} outside 1..{n - 1}")
    return float(k * comb(n - 1, k))


def cohesion_orders(x, orders, base: float | None = None) -> np.ndarray:
    """Cohesion-k for each k in `orders`: the sum of k-subset entropies
    minus C(n-1,k-1) H(X), from one `order_entropies` pass.

    Like that kernel, a JointDistribution gives shape (len(orders),) and a
    dense batch of shape (N, q, ..., q) gives shape (N, len(orders)).
    """
    orders = tuple(orders)
    n = x.n if isinstance(x, JointDistribution) else x.ndim - 1
    for k in orders:
        if not 1 <= k <= n - 1:
            raise DistributionError(f"interaction order k={k} outside 1..{n - 1}")
    h = order_entropies(x, orders + (n,), base)
    weights = np.array([comb(n - 1, k - 1) for k in orders], dtype=float)
    return h[..., :-1] - weights * h[..., -1:]


def cohesion_k(p: JointDistribution, k: int, base: float | None = None) -> float:
    """Cohesion-k of p: sum of k-subset entropies minus C(n-1,k-1) H(X)."""
    return float(cohesion_orders(p, (k,), base)[0])


@dataclass(frozen=True)
class CohesionProfile:
    """All Cohesion orders for one distribution, with bound diagnostics.

    values[k-1] holds C^(k) in the profile's base; constant_bounds and
    slack are in the same base.
    """

    n: int
    q: int
    base: float
    values: tuple
    constant_bounds: tuple
    slack: tuple

    def value(self, k: int) -> float:
        return self.values[k - 1]

    def rebase(self, base: float | None = None) -> "CohesionProfile":
        """The same profile in another log base (default q); bases <= 1
        raise DistributionError."""
        b = float(self.q if base is None else base)
        f = math.log(self.base) / _log_base(self.q, b)
        return replace(self, base=b, values=tuple(v * f for v in self.values),
                       constant_bounds=tuple(v * f for v in self.constant_bounds),
                       slack=tuple(v * f for v in self.slack))


def cohesion_profile(p: JointDistribution, base: float | None = None) -> CohesionProfile:
    """Evaluate every Cohesion order from a single subset-entropy pass."""
    if p.n < 2:
        raise DistributionError("cohesion profile needs at least two variables")
    values = tuple(cohesion_orders(p, range(1, p.n)).tolist())
    bounds = tuple(constant_bound(p.n, k) for k in range(1, p.n))
    slack = tuple(bd - v for bd, v in zip(bounds, values))
    return CohesionProfile(p.n, p.q, float(p.q), values, bounds, slack).rebase(base)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool


def check_polymatroid_bounds(
    profile: CohesionProfile, tol: float = BOUND_TOL
) -> list[BoundCheck]:
    """Check (n-k) C^(k) >= k C^(k+1) for each adjacent pair of orders.

    A violation beyond `tol` indicates an implementation bug; the
    inequality is a theorem.
    """
    checks = []
    n = profile.n
    for k in range(1, n - 1):
        lhs = (n - k) * profile.value(k)
        rhs = k * profile.value(k + 1)
        slack = lhs - rhs
        checks.append(
            BoundCheck(f"({n - k})*C{k} >= {k}*C{k + 1}", lhs, rhs, slack, slack >= -tol)
        )
    return checks


def check_constant_bounds(
    profile: CohesionProfile, tol: float = BOUND_TOL
) -> list[BoundCheck]:
    checks = []
    for k in range(1, profile.n):
        v = profile.value(k)
        bd = profile.constant_bounds[k - 1]
        checks.append(BoundCheck(f"C{k} <= {bd:g}", v, bd, bd - v, bd - v >= -tol))
    return checks


def check_quad_inequalities(p, tol: float = BOUND_TOL) -> list[BoundCheck]:
    """The three extra inequalities for exactly four variables, in base-q
    units: C1 + C3 <= 4, C2 + 3 C1 <= 12, C2 + 3 C3 <= 12. `p` is a
    distribution or its CohesionProfile."""
    if p.n != 4:
        raise DistributionError(f"quad inequalities require n=4, got n={p.n}")
    prof = p if isinstance(p, CohesionProfile) else cohesion_profile(p)
    c1, c2, c3 = prof.rebase().values
    rows = [
        ("C1 + C3 <= 4", c1 + c3, 4.0),
        ("C2 + 3*C1 <= 12", c2 + 3.0 * c1, 12.0),
        ("C2 + 3*C3 <= 12", c2 + 3.0 * c3, 12.0),
    ]
    return [
        BoundCheck(name, lhs, bound, bound - lhs, bound - lhs >= -tol)
        for name, lhs, bound in rows
    ]


def profile_report(p, base: float | None = None) -> dict:
    """JSON-ready report: values, constant bounds, adjacent-order slack,
    and (for n=4) the quad-inequality slacks. `p` is a distribution or
    its CohesionProfile, which is converted rather than recomputed."""
    prof = p.rebase(base) if isinstance(p, CohesionProfile) else cohesion_profile(p, base)
    eq1 = check_polymatroid_bounds(prof)
    report = {
        "n": prof.n,
        "q": prof.q,
        "base": prof.base,
        "values": list(prof.values),
        "constant_bounds": list(prof.constant_bounds),
        "eq1_slack": [c.slack for c in eq1],
    }
    if p.n == 4:
        report["quad_slack"] = [c.slack for c in check_quad_inequalities(prof)]
    return report
