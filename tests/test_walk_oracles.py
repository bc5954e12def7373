"""The two subset-lattice walks in `dist` against the plain walks they
replace, kept here as oracles: the sparse walk relabelled each child
with np.unique and visited every subset, the dense walk took each
marginal as one numpy axis-sum."""

import math
from math import comb

import numpy as np
import pytest

from cohesionlab import dist
from cohesionlab.cli import run_maximizer
from cohesionlab.codes import code_to_distribution, rs_generator
from cohesionlab.dist import (
    JointDistribution,
    _xlogx,
    entropy_table,
    from_dense,
    order_entropies,
    subset_entropy,
)
from cohesionlab.gf import is_prime_power, make_field

RS_ATOM_CAP = 1 << 15  # q^k atoms the np.unique oracle walks in well under a second


def unique_walk(p, max_order):
    """Every subset of 1..max_order variables, each child relabelled by
    np.unique: the oracle for dist._sparse_entropies, value and order.
    Its keys are labels * q + symbol, so it is valid while labels·q < 2^63."""
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


def axis_sum_walk(cube, orders):
    """dist._dense_sums past INCIDENCE_LIMIT with one numpy axis-sum per
    marginal: the oracle for the slice-add walk."""
    rows, n = cube.shape[0], cube.ndim - 1
    out = {k: np.zeros(rows) for k in orders}
    out[n] = -_xlogx(cube.reshape(rows, -1)).sum(axis=1)
    lowest = min(orders)

    def walk(table, start):
        size = table.ndim - 2
        for j in range(start, size + 1):
            child = table.sum(axis=j + 1)
            if size in out:
                out[size] -= _xlogx(child).reshape(rows, -1).sum(axis=1)
            if size > lowest:
                walk(child, j)

    walk(cube, 0)
    return np.stack([out[k] for k in orders], axis=1)


def rs_distribution(q, k):
    return code_to_distribution(rs_generator(make_field(*is_prime_power(q)), k))


def expand_stops(nodes, n, max_order):
    """The walk's nodes as a dict by mask in depth-first order, each stop
    S with last variable i followed by every S | T, T above i, of at most
    max_order variables, all with the stop's H."""
    table = {}

    def fill(mask, start, h):
        for i in range(start, n):
            child = mask | 1 << i
            table[child] = h
            if child.bit_count() < max_order:
                fill(child, i + 1, h)

    for mask, i, h, stop in nodes:
        table[mask] = h
        if stop and mask.bit_count() < max_order:
            fill(mask, i + 1, h)
    return table


def assert_walks_equal(p):
    for max_order in sorted({1, max(1, p.n // 2), p.n - 1 or 1, p.n}):
        nodes = dist._sparse_entropies(p, max_order)
        got = expand_stops(nodes, p.n, max_order)
        want = unique_walk(p, max_order)
        assert list(got) == list(want), max_order  # the same masks in the same order
        for mask, h in want.items():
            assert got[mask] == h, (max_order, mask)
        # per-size sums in the oracle's order, which the parent's sums followed
        sums = np.zeros(max_order + 1)
        for mask, h in want.items():
            sums[mask.bit_count()] += h
        orders = range(1, max_order + 1)
        got_sums = order_entropies(p, orders, math.e)
        if max_order < p.n and not any(stop for *_, stop in nodes):
            assert np.array_equal(got_sums, sums[1:]), max_order
        else:  # a stop's H times C(n-1-i, s-|S|) against that many additions
            assert np.all(np.abs(got_sums - sums[1:]) <= 1e-12 * sums[1:]), max_order


RS_CASES = [(q, k) for q in (4, 5, 7, 8, 9) for k in range(1, q + 1) if q**k <= RS_ATOM_CAP]


@pytest.mark.parametrize("q, k", RS_CASES)
def test_sparse_walk_equals_unique_walk_on_rs_codes(q, k):
    assert_walks_equal(rs_distribution(q, k))


@pytest.mark.parametrize("n, k", [(4, 2), (5, 3), (6, 2), (6, 4), (7, 3), (9, 3)])
def test_sparse_walk_equals_unique_walk_on_maximizers(n, k):
    assert_walks_equal(run_maximizer(n, k)[0])


@pytest.mark.parametrize("seed", range(12))
def test_sparse_walk_equals_unique_walk_on_sparse_rows(seed):
    rng = np.random.default_rng(seed)
    n, q = int(rng.integers(1, 7)), int(rng.integers(2, 5))
    vec = rng.dirichlet(np.ones(q**n))
    vec[rng.random(q**n) < rng.uniform(0.2, 0.95)] = 0.0
    vec[int(rng.integers(q**n))] += 0.01
    assert_walks_equal(from_dense(vec / vec.sum(), n, q))


@pytest.mark.parametrize("q, k", [(4, 2), (5, 2), (7, 3)])
def test_sparse_walk_equals_unique_walk_on_shuffled_atoms(q, k):
    rng = np.random.default_rng(q)
    p = rs_distribution(q, k)
    atoms = list(p.atoms)
    order = rng.permutation(len(atoms))
    masses = rng.dirichlet(np.ones(len(atoms)))
    assert_walks_equal(JointDistribution(p.n, q, {atoms[i]: masses[i] for i in order}))


@pytest.mark.parametrize("n, q, atoms", [(2, 2**40, 2), (2, 2**40, 3), (3, 2**16, 3000)])
def test_sparse_walk_equals_unique_walk_on_large_alphabets(n, q, atoms):
    # the walk's memory follows the atoms, not the alphabet
    rng = np.random.default_rng(atoms)
    outcomes = [(0,) * n, (q - 1,) + (0,) * (n - 1)]
    while len(outcomes) < atoms:
        outcomes = list(dict.fromkeys(outcomes + [tuple(int(x) for x in rng.integers(q, size=n))]))
    masses = rng.dirichlet(np.ones(atoms))
    assert_walks_equal(JointDistribution(n, q, dict(zip(outcomes, masses))))


def test_sparse_walk_keys_do_not_wrap_at_huge_q():
    # labels * q keys wrapped once labels·q reached 2^63: at q = 2^61 label
    # 8's keys fell onto label 0's and H(X0X1) came out 2.736 nats, not ln 18
    p = JointDistribution(2, 2**61, {(i, j): 1 / 18 for i in range(9) for j in range(2)})
    table = entropy_table(p, base=math.e)
    assert table[3] == pytest.approx(math.log(18), rel=1e-12)
    for mask in range(4):
        assert table[mask] == pytest.approx(subset_entropy(p, mask, math.e), rel=1e-12)
    assert order_entropies(p, (1, 2), math.e) == pytest.approx(
        [subset_entropy(p, 1, math.e) + subset_entropy(p, 2, math.e), math.log(18)], rel=1e-12)


def test_sparse_walk_takes_symbols_past_int64():
    # symbols of 2^63 and more do not fit int64; relabelled as Python ints,
    # they give the nodes of the same atoms with small symbols
    rng = np.random.default_rng(17)
    cells = rng.choice(64, size=40, replace=False)
    atoms = [tuple(int(s) for s in row) for row in np.stack(np.unravel_index(cells, (4,) * 3), 1)]
    masses = rng.dirichlet(np.ones(40))
    huge = JointDistribution(3, 2**80, {tuple(2**70 * s + 3 for s in o): m
                                        for o, m in zip(atoms, masses)})
    assert dist._sparse_entropies(huge, 3) == dist._sparse_entropies(
        JointDistribution(3, 4, dict(zip(atoms, masses))), 3)


@pytest.mark.parametrize("q, k", [(4, 2), (5, 3), (7, 2), (8, 3), (9, 3), (9, 4)])
def test_sparse_walk_stops_where_x_s_determines_x(monkeypatch, q, k):
    # any k columns of an [n, k] MDS code fix the codeword, so only the
    # subsets of 1..k variables are computed; the unique walk did 2^n - 1
    p = rs_distribution(q, k)
    calls = []
    kernel = dist._xlogx
    monkeypatch.setattr(dist, "_xlogx", lambda m: calls.append(1) or kernel(m))
    table = entropy_table(p)
    assert len(calls) == sum(comb(p.n, s) for s in range(1, k + 1))
    assert table == pytest.approx([min(mask.bit_count(), k) for mask in range(1 << p.n)],
                                  abs=1e-9)


DENSE_EXACT = [(n, 2) for n in range(2, 10)] + [(3, 3), (5, 3), (6, 3), (2, 4), (4, 4),
                                                 (2, 5), (4, 5), (3, 6), (2, 7), (3, 7)]
DENSE_CLOSE = [(2, 8), (3, 8), (2, 9), (3, 9), (4, 9), (2, 16), (3, 16)]


def dense_cube(seed, n, q, rows=3):
    rng = np.random.default_rng(seed)
    P = rng.dirichlet(np.ones(q**n), size=rows)
    P[rng.random(P.shape) < 0.3] = 0.0
    P[:, 0] += P.sum(axis=1) == 0.0
    return (P / P.sum(axis=1, keepdims=True)).reshape((rows,) + (q,) * n)


@pytest.mark.parametrize("n, q", DENSE_EXACT + DENSE_CLOSE)
def test_dense_walk_against_axis_sums(monkeypatch, n, q):
    # slice adds repeat a middle-axis sum's order; numpy sums a last axis
    # of 8 or more pairwise, so there the last bits may differ
    cube = dense_cube(n * 100 + q, n, q)
    monkeypatch.setattr(dist, "INCIDENCE_LIMIT", 0)
    for orders in (tuple(range(1, n + 1)), (n, 1), (max(1, n - 1),)):
        orders = tuple(dict.fromkeys(orders))
        got = dist._dense_sums(cube, orders)
        want = axis_sum_walk(cube, orders)
        if q <= 7:
            assert np.array_equal(got, want), orders
        else:
            assert np.abs(got - want).max() <= 1e-12, orders
