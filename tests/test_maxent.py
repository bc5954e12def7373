import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesionlab.codes import LinearCode, code_to_distribution
from cohesionlab.cohesion import cohesion_k, cohesion_orders
from cohesionlab.dist import (
    JointDistribution,
    kl_divergence,
    marginalize,
    product_of_marginals,
    indices_to_mask,
    subset_entropy,
    to_dense,
)
from cohesionlab.errors import DistributionError
from cohesionlab.gf import is_prime_power, make_field
from cohesionlab.matroid import find_uniform_representation
from cohesionlab.maxent import (
    batch_divergence,
    check_eq4_bound,
    dense_table,
    ipf_project_batch,
    maxent_projection,
    projection_json,
)
from conftest import random_distribution


class TestIPF:
    def test_preserves_target_marginals(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_distribution(rng, 3, 2)
            res = maxent_projection(p, 2)
            assert res.converged
            for i in range(3):
                for j in range(i + 1, 3):
                    mask = (1 << i) | (1 << j)
                    a = marginalize(p, mask)
                    b = marginalize(res.projection, mask)
                    for outcome, mass in a.atoms.items():
                        assert b.mass(outcome) == pytest.approx(mass, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_every_k_marginal_preserved(self, shape, seed, data):
        # full-support targets, so IPF converges geometrically; the
        # marginals are checked through `marginalize`, not IPF's residual
        n, q = shape
        k = data.draw(st.integers(1, n - 1))
        p = random_distribution(np.random.default_rng(seed), n, q)
        res = maxent_projection(p, k)
        assert res.converged
        for subset in combinations(range(n), k):
            mask = indices_to_mask(subset)
            want = marginalize(p, mask)
            got = marginalize(res.projection, mask)
            assert set(got.atoms) == set(want.atoms)
            for outcome, mass in want.atoms.items():
                assert got.mass(outcome) == pytest.approx(mass, abs=1e-9)

    def test_parity_projects_to_uniform(self, parity3):
        # pair marginals of the parity table are uniform, so the order-2
        # projection is the full uniform cube
        res = maxent_projection(parity3, 2)
        for outcome in np.ndindex(2, 2, 2):
            assert res.projection.mass(tuple(int(s) for s in outcome)) == pytest.approx(
                0.125, abs=1e-9
            )
        assert res.divergence == pytest.approx(1.0, abs=1e-8)  # base 2

    def test_order1_is_product_of_marginals(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            p = random_distribution(rng, 3, 3)
            res = maxent_projection(p, 1)
            prod = product_of_marginals(p)
            got = np.asarray(to_dense(res.projection))
            want = np.asarray(to_dense(prod))
            assert np.abs(got - want).max() < 1e-9
            assert res.divergence == pytest.approx(
                kl_divergence(p, prod, 3), abs=1e-8
            )

    def test_idempotent_when_already_maxent(self):
        p = JointDistribution.uniform(3, 2)
        res = maxent_projection(p, 2)
        assert res.iterations == 1
        assert res.divergence == pytest.approx(0.0, abs=1e-12)

    def test_entropy_never_decreases(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = random_distribution(rng, 3, 2)
            for k in (1, 2):
                res = maxent_projection(p, k)
                hp = subset_entropy(p, 0b111, 2)
                hq = subset_entropy(res.projection, 0b111, 2)
                assert hq >= hp - 1e-8

    def test_k_out_of_range(self, parity3):
        with pytest.raises(DistributionError, match="outside"):
            maxent_projection(parity3, 3)

    def test_sweep_budget_reported(self, parity3):
        target = dense_table(parity3)[np.newaxis]
        _, sweeps, residual = ipf_project_batch(target, 2, tol=0.0, max_sweeps=3)
        assert sweeps == 3
        assert residual >= 0.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(43)
        dists = [random_distribution(rng, 3, 2) for _ in range(8)]
        targets = np.stack([dense_table(p) for p in dists])
        proj, _, residual = ipf_project_batch(targets, 2)
        assert residual < 1e-10
        divs = batch_divergence(targets, proj, 2.0)
        for i, p in enumerate(dists):
            res = maxent_projection(p, 2, base=2.0)
            assert divs[i] == pytest.approx(res.divergence, abs=1e-8)


class TestEq4:
    def test_parity_tight_at_order2(self, parity3):
        rep = check_eq4_bound(parity3, 2, base=2.0)
        # divergence exactly one bit; ceiling C2 / C(2,1) = 2/2 = 1 bit
        assert rep.divergence == pytest.approx(1.0, abs=1e-8)
        assert rep.bound == pytest.approx(1.0, abs=1e-9)
        assert rep.satisfied

    def test_rs_maximizer_tight(self, rs_maximizer4):
        rep = check_eq4_bound(rs_maximizer4, 2)
        assert rep.bound == pytest.approx(2.0, abs=1e-9)  # 6/3 base-4
        assert rep.divergence == pytest.approx(2.0, abs=1e-6)
        assert rep.satisfied

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_mds_codes_tight_at_every_order(self, q):
        # an [n, k0] MDS code has uniform j-marginals for j <= k0, so p^(j)
        # is uniform and D = n - k0 = C^(j) / C(n-1, j-1); for j > k0 the
        # j-marginals pin p down and D = 0
        field = make_field(*is_prime_power(q))
        n = min(q + 1, max(m for m in range(2, 17) if q**m <= 1 << 16))
        codes = [LinearCode.from_rows(field, find_uniform_representation(k0, n, field))
                 for k0 in range(1, n)]
        batch = np.stack([dense_table(code_to_distribution(c)) for c in codes])
        cohesion = cohesion_orders(batch, range(1, n))
        for j in range(1, n):
            proj, _, residual = ipf_project_batch(batch, j)
            assert residual < 1e-10
            divs = batch_divergence(batch, proj, float(q))
            for k0, d in enumerate(divs, 1):
                assert d == pytest.approx(n - k0 if j <= k0 else 0.0, abs=1e-9), (k0, j)
                if j <= k0:
                    assert cohesion[k0 - 1, j - 1] / math.comb(n - 1, j - 1) == pytest.approx(
                        n - k0, abs=1e-9)

    def test_projection_of_large_code_has_unit_mass(self):
        # IPF fits the 5^8 product table only to tol; the projection is
        # renormalized so it still passes the mass check
        p = code_to_distribution(LinearCode.from_rows(make_field(5, 1), [[1] * 8]))
        res = maxent_projection(p, 1)
        assert res.projection.support_size == 5**8
        assert res.divergence == pytest.approx(7.0, abs=1e-9)

    def test_local_divergence_benchmark(self, local_div_max4):
        rep = check_eq4_bound(local_div_max4, 2, base=2.0)
        assert rep.satisfied
        assert 0.0 < rep.divergence < rep.bound + 1e-9

    def test_random_never_violates(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            p = random_distribution(rng, 3, 2)
            for k in (1, 2):
                assert check_eq4_bound(p, k).satisfied

    def test_order1_bound_is_equality(self):
        # at k=1 the projection is the product of marginals, where the
        # divergence equals Cohesion-1 exactly and the denominator is 1
        rng = np.random.default_rng(53)
        for _ in range(20):
            p = random_distribution(rng, 3, 2)
            rep = check_eq4_bound(p, 1)
            assert rep.slack == pytest.approx(0.0, abs=1e-8)
            assert rep.bound == pytest.approx(cohesion_k(p, 1), abs=1e-12)


def test_projection_json_schema(parity3):
    payload = projection_json(parity3, 2, 1e-10, 10_000)
    assert payload["converged"]
    assert payload["divergence_bits"] == pytest.approx(1.0, abs=1e-8)
    assert payload["eq4_lhs"] <= payload["eq4_rhs"] + 1e-8
    assert set(payload) == {
        "k", "base", "divergence", "divergence_bits", "iterations",
        "residual", "converged", "eq4_lhs", "eq4_rhs",
    }


def test_dense_limit():
    big = JointDistribution(8, 8, {(0,) * 8: 1.0})
    with pytest.raises(DistributionError, match="dense"):
        dense_table(big)
