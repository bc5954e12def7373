import numpy as np
import pytest

from cohesionlab.codes import (
    CodeParams,
    LinearCode,
    code_to_distribution,
    column_subset_rank,
    enumerate_codewords,
    k_column_independence,
    min_distance,
    rs_generator,
)
from cohesionlab.cohesion import cohesion_k, constant_bound
from cohesionlab.dist import subset_entropy
from cohesionlab.errors import CodeError
from cohesionlab.gf import is_prime_power, make_field, matrix_rank
from cohesionlab.matroid import code_rank_report
from conftest import RS4_ATOMS

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)
GF5 = make_field(5, 1)

# Transcription of the 16-row span over GF(4), z -> 2, z+1 -> 3.
RS4_CODEWORDS = set(RS4_ATOMS)


class TestGenerator:
    def test_gf4_k2_rows(self):
        code = rs_generator(GF4, 2)
        assert code.generator == ((1, 1, 1, 1), (0, 1, 2, 3))

    def test_k1_is_repetition(self):
        code = rs_generator(GF5, 1)
        assert code.generator == ((1, 1, 1, 1, 1),)

    def test_gf5_k2_row(self):
        code = rs_generator(GF5, 2)
        assert code.generator[1] == (0, 1, 2, 4, 3)  # powers of alpha=2

    def test_k_out_of_range(self):
        with pytest.raises(CodeError):
            rs_generator(GF4, 5)

    def test_dependent_rows_rejected(self):
        with pytest.raises(CodeError, match="dependent"):
            LinearCode.from_rows(GF2, [(1, 0, 1), (1, 0, 1)])


class TestEnumeration:
    def test_gf4_matches_reference_rows(self):
        code = rs_generator(GF4, 2)
        words = enumerate_codewords(code)
        assert len(words) == 16
        assert set(words) == RS4_CODEWORDS
        # lexicographic message order reproduces the table ordering
        assert words == RS4_ATOMS

    def test_repetition_gf2(self):
        code = rs_generator(GF2, 1)
        assert enumerate_codewords(code) == [(0, 0), (1, 1)]

    def test_message_11_gives_row6(self):
        code = rs_generator(GF4, 2)
        assert enumerate_codewords(code)[5] == (1, 0, 3, 2)

    def test_enumeration_limit(self):
        f = make_field(2, 6)
        code = rs_generator(f, 4)
        with pytest.raises(CodeError, match="limit"):
            enumerate_codewords(code)


class TestMinDistance:
    def test_gf4_rs_is_mds(self):
        params = min_distance(rs_generator(GF4, 2))
        assert params.d == 3
        assert params.is_mds

    def test_binary_repetition(self):
        f = GF2
        code = LinearCode.from_rows(f, [(1, 1, 1, 1)])
        params = min_distance(code)
        assert params.d == 4 and params.is_mds

    def test_parity_check_code(self):
        # rows of the three-variable even-parity table
        code = LinearCode.from_rows(GF2, [(1, 0, 1), (0, 1, 1)])
        params = min_distance(code)
        assert params.d == 2 and params.is_mds

    def test_singleton_violation_rejected(self):
        with pytest.raises(CodeError, match="Singleton"):
            CodeParams(4, 2, 2, 4)


class TestColumnIndependence:
    def test_gf4_rs(self):
        assert k_column_independence(rs_generator(GF4, 2))

    def test_duplicated_column_fails(self):
        code = LinearCode.from_rows(GF2, [(1, 1, 0), (0, 0, 1)])
        assert not k_column_independence(code)

    def test_example_matrix(self):
        code = LinearCode.from_rows(GF2, [(1, 0, 1), (0, 1, 1)])
        assert k_column_independence(code)

    def test_agrees_with_min_distance(self):
        rng = np.random.default_rng(17)
        fields = [GF2, GF3, GF4]
        checked = 0
        while checked < 100:
            f = fields[int(rng.integers(len(fields)))]
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            if f.order**k > 1 << 16:
                continue
            rows = rng.integers(0, f.order, size=(k, n))
            if matrix_rank(f, rows.tolist()) != k:
                continue
            code = LinearCode.from_rows(f, rows.tolist())
            params = min_distance(code)
            assert k_column_independence(code) == params.is_mds
            checked += 1


class TestCodeDistribution:
    def test_gf4_rs_gives_quaternary_maximizer(self, rs_maximizer4):
        d = code_to_distribution(rs_generator(GF4, 2))
        assert d.atoms == rs_maximizer4.atoms

    def test_parity_code_gives_parity_distribution(self, parity3):
        code = LinearCode.from_rows(GF2, [(1, 0, 1), (0, 1, 1)])
        assert code_to_distribution(code).atoms == parity3.atoms

    def test_repetition_gives_redundant(self, redundant3):
        code = LinearCode.from_rows(GF2, [(1, 1, 1)])
        assert code_to_distribution(code).atoms == redundant3.atoms

    def test_rs_distribution_achieves_constant_bound(self):
        for q in (2, 3, 4, 5):
            f = make_field(*is_prime_power(q))
            for k in range(1, q):
                d = code_to_distribution(rs_generator(f, k))
                assert cohesion_k(d, k) == pytest.approx(
                    constant_bound(q, k), abs=1e-9
                )

    def test_subset_rank_entropy_matches_atoms(self):
        for q, k in [(2, 1), (3, 2), (4, 2), (5, 3)]:
            f = make_field(*is_prime_power(q))
            code = rs_generator(f, k)
            d = code_to_distribution(code)
            ranks = code_rank_report(code).ranks
            for mask in range(1 << q):
                assert subset_entropy(d, mask) == pytest.approx(ranks[mask], abs=1e-9)


def test_singleton_bound_all_constructed():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        rows = rng.integers(0, 2, size=(k, n))
        if matrix_rank(GF2, rows.tolist()) != k:
            continue
        code = LinearCode.from_rows(GF2, rows.tolist())
        params = min_distance(code)
        assert params.d <= n - k + 1


def test_column_subset_rank():
    code = rs_generator(GF4, 2)
    assert column_subset_rank(code, (0, 1)) == 2
    assert column_subset_rank(code, (2,)) == 1


class TestSubsetRange:
    """Column subsets are checked against the code length, as
    `dist.subset_entropy` checks masks against n."""

    def test_negative_columns_rejected(self):
        with pytest.raises(CodeError, match="column -1 outside 0..3"):
            column_subset_rank(rs_generator(GF4, 2), (-1, -2))

    def test_column_past_end_rejected(self):
        with pytest.raises(CodeError, match="column 7 outside 0..3"):
            column_subset_rank(rs_generator(GF4, 2), (7,))
