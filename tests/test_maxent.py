import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesionlab import dist, maxent
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


def reference_ipf(targets, k, tol, max_sweeps):
    """IPF with the double-np.where step and a second residual loop: the
    oracle the masked-division step must match bit for bit."""
    n = targets.ndim - 1
    subsets = list(combinations(range(n), k))
    complements = {A: tuple(ax + 1 for ax in range(n) if ax not in A) for A in subsets}
    target_margs = {A: targets.sum(axis=complements[A], keepdims=True) for A in subsets}
    cur = np.full_like(targets, 1.0 / float(np.prod(targets.shape[1:])))
    residual, sweeps = math.inf, 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweeps in range(1, max_sweeps + 1):
            for A in subsets:
                cm = cur.sum(axis=complements[A], keepdims=True)
                cur *= np.where(cm > 0.0, target_margs[A] / np.where(cm > 0.0, cm, 1.0), 0.0)
            residual = 0.0
            for A in subsets:
                cm = cur.sum(axis=complements[A], keepdims=True)
                residual = max(residual, float(np.abs(cm - target_margs[A]).max()))
            if residual < tol:
                break
    return cur, sweeps, residual


def reference_plan_ipf(targets, k, tol, max_sweeps):
    """The gather-plan IPF on flat (N, q^n) rows, two gathers per subset
    step (the cells in the subset's order, then the ratio per cell): the
    oracle the cell-major kernel must match bit for bit, sweeps and
    residual included."""
    n = targets.ndim - 1
    rows, q = targets.shape[:2]
    cells, rest = q**k, q**(n - k)
    table = np.arange(q**n).reshape((q,) * n)
    orders = np.stack([table.transpose([ax for ax in range(n) if ax not in A] + list(A)).ravel()
                       for A in combinations(range(n), k)])
    owners = np.argsort(orders, axis=1) % cells
    every = orders.ravel()
    block = max(1, dist.TABLE_LIMIT // every.size)

    def marginals(x):
        if len(x) > block:
            return np.concatenate([marginals(x[r:r + block]) for r in range(0, len(x), block)])
        return x[:, every].reshape(len(x), len(orders), rest, cells).sum(axis=2)

    flat = targets.reshape(rows, q**n)
    out = np.full(flat.shape, 1.0 / q**n)
    cur, margs, live = out, marginals(flat), np.arange(rows)
    sweeps, residual = 0, 0.0
    with np.errstate(invalid="ignore"):
        while live.size and sweeps < max_sweeps:
            sweeps += 1
            for i, (order, owner) in enumerate(zip(orders, owners)):
                cm = cur[:, order].reshape(len(cur), rest, cells).sum(axis=1)
                ratio = np.divide(margs[:, i], cm, out=np.zeros_like(cm), where=cm > 0.0)
                cur *= ratio[:, owner]
            gaps = np.abs(marginals(cur) - margs).max(axis=(1, 2))
            done = (gaps < tol) | (sweeps == max_sweeps)
            if done.any():
                residual = float(gaps[done].max(initial=residual))
                if cur is not out:
                    out[live[done]] = cur[done]
                live, cur, margs = live[~done], cur[~done], margs[~done]
    return out.reshape(targets.shape), sweeps, residual


def reference_divergence(targets, others, base):
    """Rowwise D(target || other) through three np.where: the oracle."""
    t = targets.reshape(targets.shape[0], -1)
    o = others.reshape(others.shape[0], -1)
    mask = t > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mask, t * np.log(np.where(mask, t, 1.0) / np.where(o > 0.0, o, 1.0)), 0.0)
    out = terms.sum(axis=1) / math.log(base)
    out[np.where((t > 0) & (o <= 0))[0]] = math.inf
    return np.maximum(out, 0.0)


def sparse_batch(rng, n, q, rows=48):
    """Dirichlet rows with a fifth of the cells zeroed, every seventh row
    with a zero marginal on axis 0 and every eleventh on the last axis."""
    cube = rng.dirichlet(np.ones(q**n), size=rows).reshape((rows,) + (q,) * n)
    cube[rng.random(cube.shape) < 0.2] = 0.0
    cube[::7, 0] = 0.0
    cube[3::11, ..., q - 1] = 0.0
    flat = cube.reshape(rows, -1)
    flat[flat.sum(axis=1) == 0.0, -1] = 1.0
    return cube / flat.sum(axis=1).reshape((rows,) + (1,) * n)


SHAPES = [(4, 2, 1), (4, 2, 2), (4, 2, 3), (3, 3, 1), (3, 3, 2)]


@pytest.mark.parametrize("n, q, k", SHAPES)
@pytest.mark.parametrize("tol, max_sweeps", [(1e-4, 2000), (1e-10, 300)])
def test_masked_division_matches_reference_bit_for_bit(n, q, k, tol, max_sweeps):
    # each row stops on its own residual, so the oracle is the reference
    # run on one row at a time; a marginal over one axis adds in the same
    # order as the reference, over several in another order, and q^(n-k)
    # terms of total at most 1 added in two orders differ by under q^(n-k)
    # ulps of 1
    rng = np.random.default_rng(1000 * n + 10 * q + k)
    targets = sparse_batch(rng, n, q)
    proj, sweeps, residual = ipf_project_batch(targets, k, tol, max_sweeps)
    refs = [reference_ipf(targets[i:i + 1], k, tol, max_sweeps) for i in range(len(targets))]
    alone = [ipf_project_batch(targets[i:i + 1], k, tol, max_sweeps) for i in range(len(targets))]
    slack = 0.0 if n - k == 1 else q**(n - k) * np.finfo(float).eps
    for row, (ref, ref_sweeps, ref_residual), (_, row_sweeps, row_residual) in zip(proj, refs, alone):
        if n - k == 1:
            assert np.array_equal(row, ref[0])
        else:
            assert np.abs(row - ref[0]).max() <= 1e-14
        assert row_sweeps == ref_sweeps and (row_residual < tol) == (ref_residual < tol)
        assert abs(row_residual - ref_residual) <= slack
    assert sweeps == max(s for _, s, _ in refs)
    ref_residual = max(r for _, _, r in refs)
    assert (residual < tol) == (ref_residual < tol) and abs(residual - ref_residual) <= slack
    # the projection keeps the target's support; a second sparse batch
    # also has +inf rows, where the target has mass and the other has none
    sparse = sparse_batch(rng, n, q)
    assert np.isinf(batch_divergence(targets, sparse, 2.0)).any()
    for others in (proj, sparse):
        divs = batch_divergence(targets, others, float(q))
        assert np.array_equal(divs, reference_divergence(targets, others, float(q)))


def assert_same_bits(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


@pytest.mark.parametrize("n, q, k", SHAPES + [(5, 2, 2), (5, 2, 4), (3, 4, 2)])
@pytest.mark.parametrize("tol, max_sweeps", [(1e-4, 2000), (1e-10, 300), (0.0, 5)],
                         ids=["loose", "tight", "cap"])
def test_cell_major_plan_matches_row_major_plan(monkeypatch, n, q, k, tol, max_sweeps):
    # a gather copies values, each marginal adds its q^(n-k) terms in the
    # same order and each product takes the same two floats, so the
    # projections, sweeps and residual are the same bits; at tol 0 no row
    # converges, so every row stops at max_sweeps
    targets = sparse_batch(np.random.default_rng(100 * n + 10 * q + k), n, q)
    got = ipf_project_batch(targets, k, tol, max_sweeps)
    assert_same_bits(got, reference_plan_ipf(targets, k, tol, max_sweeps))
    if tol == 0.0:
        assert got[1] == max_sweeps
    # one-row blocks in the residual gather, on both sides
    monkeypatch.setattr(dist, "TABLE_LIMIT", 1)
    assert_same_bits(ipf_project_batch(targets, k, tol, max_sweeps), got)
    assert_same_bits(reference_plan_ipf(targets, k, tol, max_sweeps), got)


@pytest.mark.parametrize("limit", [dist.INCIDENCE_LIMIT, 0], ids=["plan", "axes"])
@pytest.mark.parametrize("n, q, k", [(4, 2, 2), (3, 3, 1)])
def test_nan_row_keeps_the_batch_unconverged(monkeypatch, limit, n, q, k):
    # a NaN cell makes its row's residual NaN at every sweep: the row runs
    # to max_sweeps, the batch residual stays NaN (not < tol), and the
    # other rows leave the batch as they would alone
    monkeypatch.setattr(dist, "INCIDENCE_LIMIT", limit)
    targets = sparse_batch(np.random.default_rng(9), n, q, rows=12)
    targets[4].flat[1] = np.nan
    proj, sweeps, residual = ipf_project_batch(targets, k, 1e-10, 60)
    assert math.isnan(residual) and not residual < 1e-10 and sweeps == 60
    for i, row in enumerate(targets):
        if i != 4:
            assert np.array_equal(proj[i], ipf_project_batch(row[np.newaxis], k, 1e-10, 60)[0][0])


@pytest.mark.parametrize("limit", [dist.INCIDENCE_LIMIT, 0])  # gather plan, axis sums
@pytest.mark.parametrize("n, q, k", SHAPES)
def test_rows_do_not_depend_on_batch_mates(monkeypatch, limit, n, q, k):
    monkeypatch.setattr(dist, "INCIDENCE_LIMIT", limit)
    maxent._ipf_plan.cache_clear()
    targets = sparse_batch(np.random.default_rng(7 * n + q + k), n, q)
    proj, sweeps, residual = ipf_project_batch(targets, k, 1e-10, 300)
    alone = [ipf_project_batch(targets[i:i + 1], k, 1e-10, 300) for i in range(len(targets))]
    for row, (one, _, _) in zip(proj, alone):
        assert np.array_equal(row, one[0])
    assert (sweeps, residual) == (max(s for _, s, _ in alone), max(r for _, _, r in alone))
    assert maxent._ipf_plan.cache_info().currsize == (limit > 0)


def test_no_plan_above_the_incidence_limit(monkeypatch):
    # C(4, 2) 2^4 = 96 cells of gather plan: built at a limit of 96, not at 95
    targets = sparse_batch(np.random.default_rng(3), 4, 2, rows=5)
    want = ipf_project_batch(targets, 2)
    for limit, plans in ((95, 0), (96, 1)):
        maxent._ipf_plan.cache_clear()
        monkeypatch.setattr(dist, "INCIDENCE_LIMIT", limit)
        got = ipf_project_batch(targets, 2)
        assert maxent._ipf_plan.cache_info().currsize == plans
        assert got[1] == want[1]
        assert np.abs(got[0] - want[0]).max() <= 1e-14


@pytest.mark.parametrize("limit", [dist.INCIDENCE_LIMIT, 0])  # gather plan, axis sums
def test_batch_allocates_a_few_tables_at_most(monkeypatch, limit):
    # n6 q2 k2 over 512 rows: one gather over all 15 plan orders would be
    # 15 tables; the working set (result, live rows, marginals, one gather
    # and its ratios) is about 5
    monkeypatch.setattr(dist, "INCIDENCE_LIMIT", limit)
    targets = sparse_batch(np.random.default_rng(5), 6, 2, rows=512)
    want = ipf_project_batch(targets, 2, 1e-10, 300)  # also builds the plan outside the trace
    monkeypatch.setattr(dist, "TABLE_LIMIT", targets.size)
    tracemalloc.start()
    try:
        got = ipf_project_batch(targets, 2, 1e-10, 300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * targets.nbytes
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]


@pytest.mark.parametrize("limit", [dist.INCIDENCE_LIMIT, 0])
def test_empty_batch_takes_no_sweep(monkeypatch, limit):
    monkeypatch.setattr(dist, "INCIDENCE_LIMIT", limit)
    proj, sweeps, residual = ipf_project_batch(np.zeros((0, 3, 3)), 1)
    assert proj.shape == (0, 3, 3) and (sweeps, residual) == (0, 0.0)


@pytest.mark.parametrize("limit", [dist.INCIDENCE_LIMIT, 0], ids=["plan", "axes"])
@pytest.mark.parametrize("rows", [1, 0], ids=["one_row", "empty"])
@pytest.mark.parametrize("max_sweeps", [0, -5])
def test_kernel_refuses_a_budget_that_never_sweeps(monkeypatch, limit, rows, max_sweeps):
    # no sweep would return the uniform table with residual 0.0, < any tol
    monkeypatch.setattr(dist, "INCIDENCE_LIMIT", limit)
    targets = np.full((rows, 2, 2, 2), 1 / 8)
    message = f"IPF needs max_sweeps >= 1, got {max_sweeps}"
    with pytest.raises(DistributionError, match=f"^{message}$"):
        ipf_project_batch(targets, 2, max_sweeps=max_sweeps)


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

    @pytest.mark.parametrize("budget", [{"max_sweeps": 0}, {"tol": 0.0}, {"tol": -1e-9}])
    def test_budget_that_cannot_converge_rejected(self, parity3, budget):
        with pytest.raises(DistributionError, match="max_sweeps >= 1 and tol > 0"):
            maxent_projection(parity3, 2, **budget)

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


@pytest.mark.parametrize("k", [1, 2])
def test_reports_skip_the_projection_distribution(rs_maximizer4, local_div_max4, monkeypatch, k):
    for p in (rs_maximizer4, local_div_max4):
        res = maxent_projection(p, k)
        with monkeypatch.context() as m:
            m.setattr(maxent, "from_dense", lambda *a: pytest.fail("projection built"))
            payload = projection_json(p, k, maxent.DEFAULT_TOL, maxent.DEFAULT_MAX_SWEEPS)
            rep = check_eq4_bound(p, k)
        assert (payload["divergence"], payload["iterations"], payload["residual"],
                payload["converged"]) == (res.divergence, res.iterations, res.residual,
                                          res.converged)
        assert (rep.divergence, rep.converged) == (res.divergence, res.converged)


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
