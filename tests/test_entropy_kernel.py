"""The subset-entropy reductions in `dist` against the reference path
(`marginalize` + `entropy`), against each other on both sides of the
incidence/lattice switch, and under variable permutation."""

from contextlib import contextmanager
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesionlab import dist
from cohesionlab.codes import code_to_distribution, rs_generator
from cohesionlab.cohesion import cohesion_orders
from cohesionlab.dist import (
    JointDistribution,
    entropy_table,
    from_dense,
    order_entropies,
    subset_entropy,
)
from cohesionlab.errors import DistributionError
from cohesionlab.explore import make_objective
from cohesionlab.gf import make_field

TOL = 1e-9
# (n, q) whose all-orders incidence matrix fits INCIDENCE_LIMIT, and some
# whose does not; the dense tests run both groups through both paths.
SMALL = [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]
LARGE = [(7, 2), (5, 3)]
seeds = st.integers(0, 2**32 - 1)


def incidence_entries(n, q, orders):
    return q**n * sum(comb(n, k) * q**k for k in orders)


@contextmanager
def incidence_limit(value):
    saved = dist.INCIDENCE_LIMIT
    dist.INCIDENCE_LIMIT = value
    try:
        yield
    finally:
        dist.INCIDENCE_LIMIT = saved


def dense_batch(seed, n, q, rows):
    """Dirichlet rows with about a third of the cells zeroed."""
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(q**n), size=rows)
    P[rng.random(P.shape) < 0.33] = 0.0
    P[:, 0] += P.sum(axis=1) == 0.0
    return P / P.sum(axis=1, keepdims=True)


def sparse_distribution(seed, n, q):
    rng = np.random.default_rng(seed)
    support = int(rng.integers(1, min(q**n, 40) + 1))
    outcomes = rng.integers(0, q, size=(support, n))
    masses = rng.dirichlet(np.ones(support))
    atoms = {}
    for o, m in zip(map(tuple, outcomes), masses):
        atoms[o] = atoms.get(o, 0.0) + m
    return JointDistribution(n, q, atoms)


def reference_sums(p, orders, base=None):
    ref = [subset_entropy(p, m, base) for m in range(1 << p.n)]
    return np.array([sum(h for m, h in enumerate(ref) if m.bit_count() == k) for k in orders])


def test_switch_sides_are_covered():
    for n, q in SMALL:
        assert incidence_entries(n, q, range(1, n + 1)) <= dist.INCIDENCE_LIMIT
    for n, q in LARGE:
        assert incidence_entries(n, q, range(1, n + 1)) > dist.INCIDENCE_LIMIT


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(1, 5), q=st.integers(2, 4),
       base=st.sampled_from([None, 2.0, 10.0]))
def test_sparse_table_matches_reference(seed, n, q, base):
    p = sparse_distribution(seed, n, q)
    table = entropy_table(p, base)
    assert len(table) == 1 << n and table[0] == 0.0
    for mask in range(1, 1 << n):
        assert table[mask] == pytest.approx(subset_entropy(p, mask, base), abs=TOL)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, shape=st.sampled_from(SMALL + LARGE), data=st.data())
def test_dense_paths_agree(seed, shape, data):
    n, q = shape
    orders = data.draw(st.permutations(range(1, n + 1)).flatmap(
        lambda perm: st.integers(1, n).map(lambda size: tuple(perm[:size]))))
    P = dense_batch(seed, n, q, rows=3)
    cube = P.reshape((3,) + (q,) * n)
    default = order_entropies(cube, orders)
    with incidence_limit(0):
        lattice = order_entropies(cube, orders)
    with incidence_limit(10**7):
        incidence = order_entropies(cube, orders)
    assert default.shape == (3, len(orders))
    assert np.abs(lattice - incidence).max() <= TOL
    assert np.abs(default - lattice).max() <= TOL
    for row in range(3):
        p = from_dense(P[row].tolist(), n, q)
        assert np.abs(order_entropies(p, orders) - lattice[row]).max() <= TOL
        assert np.abs(reference_sums(p, orders) - lattice[row]).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(2, 5), q=st.integers(2, 3), data=st.data())
def test_permutation_invariance(seed, n, q, data):
    perm = data.draw(st.permutations(range(n)))
    p = sparse_distribution(seed, n, q)
    shuffled = JointDistribution(
        n, q, {tuple(o[perm[i]] for i in range(n)): m for o, m in p.atoms.items()})
    table, table_shuffled = entropy_table(p), entropy_table(shuffled)
    for mask in range(1 << n):
        old_mask = sum(1 << perm[i] for i in range(n) if mask >> i & 1)
        assert table_shuffled[mask] == pytest.approx(table[old_mask], abs=TOL)
    cube = dense_batch(seed, n, q, rows=2).reshape((2,) + (q,) * n)
    moved = np.transpose(cube, (0, *(1 + i for i in perm)))
    orders = range(1, n + 1)
    assert np.abs(order_entropies(moved, orders) - order_entropies(cube, orders)).max() <= TOL


@settings(max_examples=40, deadline=None)
@given(seed=seeds, shape=st.sampled_from([(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (7, 2)]),
       data=st.data(), base=st.sampled_from([None, 2.0]))
def test_objective_equals_batch_row(seed, shape, data, base):
    n, q = shape
    k = data.draw(st.integers(1, n - 1))
    vec = dense_batch(seed, n, q, rows=1)[0]
    value = make_objective(n, q, f"c{k}", base)(vec)
    sparse = cohesion_orders(from_dense(vec.tolist(), n, q), (k,), base)
    assert value == pytest.approx(sparse[0], abs=1e-12)


def test_rs_gf9_sparse_far_above_dense_limit():
    # q^n = 9^9 cells: only the sparse reduction applies. Each marginal of
    # the code distribution is uniform on q^rank points, so base-q
    # H(S) = min(|S|, k).
    p = code_to_distribution(rs_generator(make_field(3, 2), 3))
    table = entropy_table(p)
    for mask in range(1, 1 << 9):
        assert table[mask] == pytest.approx(min(mask.bit_count(), 3), abs=TOL)
        assert table[mask] == pytest.approx(subset_entropy(p, mask), abs=TOL)
    sums = order_entropies(p, range(1, 10))
    assert sums == pytest.approx([comb(9, k) * min(k, 3) for k in range(1, 10)], abs=TOL)


def test_rejects_bad_sizes():
    with pytest.raises(DistributionError):
        order_entropies(JointDistribution.uniform(3, 2), (0, 2))
    with pytest.raises(DistributionError):
        order_entropies(np.full((1, 2, 2), 0.25), (3,))
    with pytest.raises(DistributionError):
        order_entropies(np.full((1, 2, 2), 0.25), (1, 1))
    with pytest.raises(DistributionError):
        order_entropies(JointDistribution.uniform(3, 2), ())
