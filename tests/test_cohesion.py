import math
from itertools import combinations
from math import comb

import numpy as np
import pytest

from cohesionlab.cohesion import (
    check_constant_bounds,
    check_polymatroid_bounds,
    check_quad_inequalities,
    cohesion_k,
    cohesion_orders,
    cohesion_profile,
    constant_bound,
    profile_report,
)
from cohesionlab.dist import (
    JointDistribution,
    entropy,
    indices_to_mask,
    kl_divergence,
    marginalize,
    product_of_marginals,
    subset_entropy,
    to_dense,
)
from cohesionlab.errors import DistributionError
from conftest import random_distribution


def cohesion_k_conditional_form(p, k, base=None):
    """Independent oracle for `cohesion_k` on the reference path:
    C(n-1,k) H(X) - sum over (n-k)-subsets B of H(X_B | X_A), with A the
    complement of B."""
    full = (1 << p.n) - 1
    h_joint = subset_entropy(p, full, base)
    total = comb(p.n - 1, k) * h_joint
    for idx in combinations(range(p.n), p.n - k):
        a_mask = full ^ indices_to_mask(idx)
        total -= h_joint - subset_entropy(p, a_mask, base)
    return total


class TestCohesionK:
    def test_binary_peak_five_bits(self, redundant_synergy4):
        assert cohesion_k(redundant_synergy4, 2, 2) == pytest.approx(5.0)

    def test_rs_maximizer_six_quaternary(self, rs_maximizer4):
        assert cohesion_k(rs_maximizer4, 2, 4) == pytest.approx(6.0)
        assert cohesion_k(rs_maximizer4, 2, 2) == pytest.approx(12.0)

    def test_independent_uniform_all_zero(self):
        p = JointDistribution.uniform(4, 2)
        for k in range(1, 4):
            assert cohesion_k(p, k) == pytest.approx(0.0, abs=1e-12)

    def test_order_out_of_range(self, parity3):
        with pytest.raises(DistributionError):
            cohesion_k(parity3, 3)
        with pytest.raises(DistributionError):
            cohesion_k(parity3, 0)

    def test_order1_is_total_correlation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_distribution(rng, 4, 2)
            tc = sum(entropy(marginalize(p, 1 << i)) for i in range(4)) - entropy(p)
            assert cohesion_k(p, 1) == pytest.approx(tc, abs=1e-9)
            assert cohesion_k(p, 1) == pytest.approx(
                kl_divergence(p, product_of_marginals(p)), abs=1e-9
            )

    def test_top_order_is_dual_total_correlation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = random_distribution(rng, 4, 2)
            full = 0b1111
            dtc = sum(
                entropy(marginalize(p, full ^ (1 << i))) for i in range(4)
            ) - 3 * entropy(p)
            assert cohesion_k(p, 3) == pytest.approx(dtc, abs=1e-9)

    def test_conditional_form_agrees(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            p = random_distribution(rng, n, 2)
            for k in range(1, n):
                assert cohesion_k(p, k) == pytest.approx(
                    cohesion_k_conditional_form(p, k), abs=1e-9
                )

    def test_symmetry_under_variable_permutation(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = random_distribution(rng, 4, 2)
            perm = rng.permutation(4)
            atoms = {
                tuple(o[perm[i]] for i in range(4)): m for o, m in p.atoms.items()
            }
            shuffled = JointDistribution(4, 2, atoms)
            for k in range(1, 4):
                assert cohesion_k(p, k) == pytest.approx(
                    cohesion_k(shuffled, k), abs=1e-9
                )

    def test_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = random_distribution(rng, 3, 2)
            for k in range(1, 3):
                assert cohesion_k(p, k) >= -1e-9


class TestProfile:
    def test_redundant3_bits(self, redundant3):
        prof = cohesion_profile(redundant3, 2)
        assert prof.values == pytest.approx((2.0, 1.0))

    def test_parity3_bits(self, parity3):
        # order 1 equals KL to the product of marginals: uniform-8 vs
        # uniform-4 support gives exactly one bit; order 2 is the dual
        # total correlation 3*2 - 2*2 = 2.
        prof = cohesion_profile(parity3, 2)
        assert prof.values == pytest.approx((1.0, 2.0))

    def test_point_mass_all_zero(self):
        prof = cohesion_profile(JointDistribution.point_mass((0, 0, 0), 2))
        assert prof.values == pytest.approx((0.0, 0.0))

    def test_profile_matches_direct(self, redundant_synergy4):
        prof = cohesion_profile(redundant_synergy4, 2)
        for k in range(1, 4):
            assert prof.value(k) == pytest.approx(
                cohesion_k(redundant_synergy4, k, 2), abs=1e-12
            )

    def test_bounds_converted_to_base(self, rs_maximizer4):
        prof = cohesion_profile(rs_maximizer4, 2)
        assert prof.constant_bounds[1] == pytest.approx(12.0)  # 6 base-4 units

    @pytest.mark.parametrize("base", [1, 0.5])
    def test_rebase_rejects_base_at_most_one(self, rs_maximizer4, base):
        with pytest.raises(DistributionError, match="log base must be > 1"):
            cohesion_profile(rs_maximizer4).rebase(base)
        with pytest.raises(DistributionError, match="log base must be > 1"):
            cohesion_profile(rs_maximizer4, base)


def sparse_distribution(rng, n, q):
    """Dirichlet masses on a random subset of the q^n outcomes."""
    support = int(rng.integers(1, q**n + 1))
    outcomes = rng.choice(q**n, size=support, replace=False)
    masses = rng.dirichlet(np.ones(support))
    return JointDistribution(n, q, {tuple(int(s) for s in np.unravel_index(o, (q,) * n)): float(m)
                                    for o, m in zip(outcomes, masses)})


class TestCohesionOrders:
    """The one Cohesion formula against sums of `subset_entropy`, on both
    the sparse and the dense reduction."""

    SHAPES = [(n, q) for n in range(2, 6) for q in (2, 3)]

    @pytest.mark.parametrize("n,q", SHAPES)
    @pytest.mark.parametrize("base", [None, 2.0])
    def test_matches_reference_path(self, n, q, base):
        rng = np.random.default_rng(1000 * n + q)
        orders = tuple(rng.permutation(range(1, n)).tolist())
        dists = [sparse_distribution(rng, n, q) for _ in range(4)]
        cube = np.array([to_dense(p) for p in dists], dtype=float).reshape((4,) + (q,) * n)
        dense = cohesion_orders(cube, orders, base)
        assert dense.shape == (4, len(orders))
        for p, row in zip(dists, dense):
            got = cohesion_orders(p, orders, base)
            assert got.shape == (len(orders),)
            h = entropy(p, base)
            for k, value in zip(orders, got):
                subsets = sum(subset_entropy(p, indices_to_mask(idx), base)
                              for idx in combinations(range(n), k))
                assert value == pytest.approx(subsets - comb(n - 1, k - 1) * h, abs=1e-12)
            assert np.abs(row - got).max() <= 1e-12

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_order_out_of_range(self, parity3, k):
        with pytest.raises(DistributionError, match="outside 1..2"):
            cohesion_orders(parity3, (1, k))
        with pytest.raises(DistributionError, match="outside 1..2"):
            cohesion_orders(np.full((2, 2, 2, 2), 0.125), (k,))

    def test_no_orders(self, parity3):
        assert cohesion_orders(parity3, ()).shape == (0,)
        assert cohesion_orders(np.full((5, 2, 2, 2), 0.125), ()).shape == (5, 0)


class TestConstantBound:
    def test_paper_values(self):
        assert constant_bound(4, 2) == 6
        assert constant_bound(4, 1) == 3
        assert constant_bound(4, 3) == 3
        assert constant_bound(2, 1) == 1

    def test_out_of_range(self):
        with pytest.raises(DistributionError):
            constant_bound(4, 4)


class TestBoundChecks:
    def test_rs_maximizer_bounds_hold(self, rs_maximizer4):
        prof = cohesion_profile(rs_maximizer4)
        checks = check_polymatroid_bounds(prof)
        assert all(c.satisfied for c in checks)
        # at k=2 the adjacent-order inequality: 2*6 >= 2*2
        assert checks[1].slack == pytest.approx(8.0)

    def test_zero_profile_tight(self):
        prof = cohesion_profile(JointDistribution.uniform(4, 2))
        for c in check_polymatroid_bounds(prof):
            assert c.satisfied and c.slack == pytest.approx(0.0, abs=1e-12)

    def test_random_never_violates(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            p = random_distribution(rng, 4, 2)
            prof = cohesion_profile(p)
            assert all(c.satisfied for c in check_polymatroid_bounds(prof))
            assert all(c.satisfied for c in check_constant_bounds(prof))


class TestQuadInequalities:
    def test_rs_maximizer_tight(self, rs_maximizer4):
        checks = check_quad_inequalities(rs_maximizer4)
        by_name = {c.name: c for c in checks}
        assert by_name["C2 + 3*C1 <= 12"].slack == pytest.approx(0.0, abs=1e-9)
        assert all(c.satisfied for c in checks)

    def test_independent_maximal_slack(self):
        checks = check_quad_inequalities(JointDistribution.uniform(4, 2))
        assert [c.lhs for c in checks] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)

    def test_redundant4_first_inequality_tight(self):
        p = JointDistribution(4, 2, {(0, 0, 0, 0): 0.5, (1, 1, 1, 1): 0.5})
        checks = check_quad_inequalities(p)
        c1c3 = checks[0]
        assert c1c3.lhs == pytest.approx(4.0)
        assert c1c3.satisfied

    def test_requires_four_variables(self, parity3):
        with pytest.raises(DistributionError, match="n=4"):
            check_quad_inequalities(parity3)


def test_profile_report_schema(rs_maximizer4):
    report = profile_report(rs_maximizer4)
    assert set(report) == {
        "n", "q", "base", "values", "constant_bounds", "eq1_slack", "quad_slack"
    }
    assert report["values"] == pytest.approx([2.0, 6.0, 2.0])
    assert len(report["eq1_slack"]) == 2
