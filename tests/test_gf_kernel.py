"""The batched log-domain kernels in `gf` (`batch_rank`,
`column_subset_ranks`, `matmul` behind codeword enumeration) against the
scalar reference path: `matrix_rank` and `FieldSpec` arithmetic."""

from contextlib import contextmanager
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesionlab import codes, gf
from cohesionlab.codes import (
    LinearCode,
    enumerate_codewords,
    min_distance,
    rs_generator,
)
from cohesionlab.errors import FieldError
from cohesionlab.gf import (
    batch_rank,
    column_subset_ranks,
    is_prime_power,
    make_field,
    matmul,
    matrix_rank,
)

ORDERS = [2, 3, 4, 8, 9, 16, 25, 27, 257]
FIELDS = {q: make_field(*is_prime_power(q)) for q in ORDERS}
SHAPES = {"wide": (3, 7), "tall": (7, 3), "square": (5, 5)}
seeds = st.integers(0, 2**32 - 1)


@contextmanager
def batch_labels(value):
    saved = gf.BATCH_LABELS
    gf.BATCH_LABELS = value
    try:
        yield
    finally:
        gf.BATCH_LABELS = saved


def scalar_product(f, a, b):
    """Reference (N, k) x (k, n) product, one FieldSpec call per term."""
    out = []
    for row in a:
        word = []
        for j in range(len(b[0])):
            acc = 0
            for a_i, b_row in zip(row, b):
                acc = f.add(acc, f.mul(a_i, b_row[j]))
            word.append(acc)
        out.append(word)
    return out


def scalar_codewords(c):
    """Reference enumeration: messages in lexicographic order."""
    messages = list(product(range(c.q), repeat=c.k))
    return [tuple(w) for w in scalar_product(c.field, messages, c.generator)]


def matrix_batch(seed, f, r, c):
    """Random, low-rank, zero-row, duplicated-row and all-zero matrices."""
    rng = np.random.default_rng(seed)
    q = f.order
    mats = [rng.integers(0, q, size=(r, c)).tolist() for _ in range(3)]
    for inner in (1, 2):
        left = rng.integers(0, q, size=(r, inner)).tolist()
        right = rng.integers(0, q, size=(inner, c)).tolist()
        mats.append(scalar_product(f, left, right))
    zero_row = rng.integers(0, q, size=(r, c))
    zero_row[rng.integers(r)] = 0
    dup_row = rng.integers(0, q, size=(r, c))
    dup_row[-1] = dup_row[0]
    sparse = rng.integers(0, q, size=(r, c)) * (rng.random((r, c)) < 0.3)
    mats += [zero_row.tolist(), dup_row.tolist(), sparse.tolist(), [[0] * c for _ in range(r)]]
    return mats


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("q", ORDERS)
@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_batch_rank_matches_matrix_rank(q, shape, seed):
    f = FIELDS[q]
    mats = matrix_batch(seed, f, *SHAPES[shape])
    expected = [matrix_rank(f, m) for m in mats]
    assert batch_rank(f, mats).tolist() == expected
    assert batch_rank(f, mats[:1]).tolist() == expected[:1]  # B = 1


@pytest.mark.parametrize("q", [2, 9, 257])
@pytest.mark.parametrize("r, c", [(1, 40), (2, 64), (4, 33)])
def test_batch_rank_on_wide_matrices(q, r, c):
    # the column loop stops once every matrix has full row rank, so the
    # batch mixes full-rank matrices with ones that reach their rank only
    # at the last column or never (a zero row, two equal rows)
    f = FIELDS[q]
    late = np.zeros((r, c), dtype=np.int64)
    late[np.arange(r), c - r + np.arange(r)] = 1  # full rank at the last column
    lone = np.zeros((r, c), dtype=np.int64)
    lone[0, -1] = 1
    mats = matrix_batch(q + r * c, f, r, c) + [late.tolist(), lone.tolist()]
    expected = [matrix_rank(f, m) for m in mats]
    assert expected[-2:] == [r, 1] and max(expected) == r
    assert batch_rank(f, mats).tolist() == expected
    assert [int(batch_rank(f, [m])[0]) for m in mats] == expected


@settings(max_examples=30, deadline=None)
@given(seed=seeds, q=st.sampled_from(ORDERS), r=st.integers(1, 6), c=st.integers(1, 6))
def test_batch_larger_than_one_chunk(seed, q, r, c):
    f = FIELDS[q]
    mats = matrix_batch(seed, f, r, c)
    with batch_labels(2 * r * c):  # two matrices per step
        got = batch_rank(f, mats).tolist()
    assert got == [matrix_rank(f, m) for m in mats]


@settings(max_examples=30, deadline=None)
@given(seed=seeds, q=st.sampled_from(ORDERS), r=st.integers(1, 5), n=st.integers(1, 7),
       size=st.integers(0, 7), limit=st.sampled_from([1, 10, gf.BATCH_LABELS]))
def test_column_subset_ranks_match_matrix_rank(seed, q, r, n, size, limit):
    f = FIELDS[q]
    matrix = matrix_batch(seed, f, r, n)[int(seed % 9)]
    with batch_labels(limit):
        got = column_subset_ranks(f, matrix, size).tolist()
    expected = [
        matrix_rank(f, [[row[j] for j in cols] for row in matrix])
        for cols in combinations(range(n), size)
    ]
    assert got == expected


@pytest.mark.parametrize("q", [4, 7, 8, 9])
@settings(max_examples=10, deadline=None)
@given(seed=seeds, k=st.integers(1, 4), extra=st.integers(0, 3),
       limit=st.sampled_from([40, gf.BATCH_LABELS]))
def test_enumeration_matches_scalar_loop(q, seed, k, extra, limit):
    f = make_field(*is_prime_power(q))
    rng = np.random.default_rng(seed)
    while True:
        rows = rng.integers(0, q, size=(k, k + extra)).tolist()
        if matrix_rank(f, rows) == k:
            break
    code = LinearCode.from_rows(f, rows)
    expected = scalar_codewords(code)
    with batch_labels(limit):
        words = enumerate_codewords(code)
        params = min_distance(code)
    assert words == expected  # order included
    assert all(type(v) is int for v in words[-1])
    assert params.d == min(sum(1 for v in w if v) for w in expected if any(w))


@pytest.mark.parametrize("q", [4, 7, 8, 9])
def test_rs_enumeration_matches_scalar_loop(q):
    f = make_field(*is_prime_power(q))
    for k in range(1, 4):
        code = rs_generator(f, k)
        assert enumerate_codewords(code) == scalar_codewords(code)


def test_matmul_matches_scalar_product():
    f = FIELDS[27]
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, 27, size=(20, 4)), rng.integers(0, 27, size=(4, 6))
    assert matmul(f, a, b).tolist() == scalar_product(f, a.tolist(), b.tolist())


class TestLabelCheck:
    @pytest.mark.parametrize("bad", [4, 9, -1])
    def test_out_of_range_label_raises_field_error(self, bad):
        f = FIELDS[4]
        message = f"label {bad} outside field of order 4"
        with pytest.raises(FieldError, match=message):
            f.add(bad, 0)  # the scalar path's message
        with pytest.raises(FieldError, match=message):
            batch_rank(f, [[[1, 0], [0, 1]], [[1, 2], [3, bad]]])
        with pytest.raises(FieldError, match=message):
            column_subset_ranks(f, [[1, bad, 2]], 1)
        with pytest.raises(FieldError, match=message):
            matmul(f, [[1, 1]], [[0, 1], [bad, 2]])

    def test_label_behind_a_full_rank_prefix_is_checked(self):
        # matrix_rank stops at full row rank before reaching the 9
        with pytest.raises(FieldError, match="label 9 outside"):
            LinearCode.from_rows(FIELDS[4], [(1, 9)])

    def test_non_integer_label_raises_field_error(self):
        with pytest.raises(FieldError, match="labels must be integers"):
            batch_rank(FIELDS[4], [[[1.5, 2]]])

    def test_batch_shape_checked(self):
        with pytest.raises(FieldError, match=r"\(B, r, c\)"):
            batch_rank(FIELDS[2], [[1, 0], [0, 1]])
