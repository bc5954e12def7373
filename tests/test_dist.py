import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesionlab.cohesion import cohesion_k
from cohesionlab.dist import (
    JointDistribution,
    entropy,
    entropy_table,
    from_csv,
    from_dense,
    from_json,
    indices_to_mask,
    kl_divergence,
    load,
    marginalize,
    product_of_marginals,
    subset_entropy,
    to_csv,
    to_dense,
    to_json,
)
from cohesionlab.errors import DistributionError
from conftest import random_distribution


class TestConstruction:
    def test_mass_sum_enforced(self):
        with pytest.raises(DistributionError, match="sum"):
            JointDistribution(2, 2, {(0, 0): 0.5, (1, 1): 0.4})

    def test_mass_sum_exact_for_many_atoms(self):
        # 5^7 equal masses: a running sum is off by about 1e-12
        atoms = JointDistribution.uniform(7, 5).atoms
        assert len(atoms) == 5**7
        weights = dict.fromkeys(atoms, 0.1)
        assert JointDistribution.normalized(7, 5, weights).support_size == 5**7

    def test_negative_mass_rejected(self):
        with pytest.raises(DistributionError, match="negative"):
            JointDistribution(1, 2, {(0,): 1.5, (1,): -0.5})

    @pytest.mark.parametrize("symbol", [1.7, 1.0, "1", None])
    def test_non_integer_symbol_rejected(self, symbol):
        with pytest.raises(DistributionError, match="non-integer symbol"):
            JointDistribution(2, 2, {(symbol, 0): 1.0})

    def test_numpy_integer_symbols_accepted(self):
        p = JointDistribution(2, 3, {(np.int64(2), np.uint8(1)): 1.0})
        assert list(p.atoms) == [(2, 1)]
        assert type(next(iter(p.atoms))[0]) is int

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf, 1e308])
    def test_mass_outside_unit_interval_rejected(self, mass):
        with pytest.raises(DistributionError, match="negative, above 1 or NaN"):
            JointDistribution(2, 2, {(0, 0): mass, (1, 1): 1.0})

    def test_symbol_range_enforced(self):
        with pytest.raises(DistributionError, match="outside"):
            JointDistribution(1, 2, {(2,): 1.0})

    def test_outcome_length_enforced(self):
        with pytest.raises(DistributionError, match="length"):
            JointDistribution(3, 2, {(0, 0): 1.0})

    def test_zero_atoms_dropped(self):
        p = JointDistribution(1, 2, {(0,): 1.0, (1,): 0.0})
        assert p.support_size == 1

    def test_normalized(self):
        p = JointDistribution.normalized(1, 3, {(0,): 2.0, (2,): 6.0})
        assert p.mass((2,)) == pytest.approx(0.75)


class TestMarginalize:
    def test_parity_pair_marginal_uniform(self, parity3):
        # summing the four parity atoms over X2 by hand gives the uniform pair
        m = marginalize(parity3, 0b011)
        assert m.n == 2
        for pair in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert m.mass(pair) == pytest.approx(0.25)

    def test_full_mask_is_identity(self, redundant_synergy4):
        m = marginalize(redundant_synergy4, 0b1111)
        assert m.atoms == redundant_synergy4.atoms

    def test_product_marginal(self):
        p = JointDistribution.uniform(2, 2)
        m = marginalize(p, 0b01)
        assert m.mass((0,)) == pytest.approx(0.5)

    def test_empty_mask_rejected(self, parity3):
        with pytest.raises(DistributionError, match="empty subset"):
            marginalize(parity3, 0)


class TestEntropy:
    def test_two_atom_bit(self, redundant3):
        assert entropy(redundant3, 2) == pytest.approx(1.0)

    def test_point_mass_zero(self):
        assert entropy(JointDistribution.point_mass((1, 1), 2)) == 0.0

    def test_rs_maximizer_base4(self, rs_maximizer4):
        # 16 equiprobable atoms: log_4(16) = 2
        assert entropy(rs_maximizer4, 4) == pytest.approx(2.0)

    def test_base_change(self):
        rng = np.random.default_rng(1)
        p = random_distribution(rng, 3, 3)
        assert entropy(p, 2) == pytest.approx(entropy(p, 3) * math.log2(3), abs=1e-9)

    def test_subset_entropy_empty_is_zero(self, parity3):
        assert subset_entropy(parity3, 0) == 0.0

    def test_parity_singletons(self, parity3):
        for i in range(3):
            assert subset_entropy(parity3, 1 << i, 2) == pytest.approx(1.0)

    def test_rs_maximizer_pairs(self, rs_maximizer4):
        # every pair marginal is uniform over 16 quaternary pairs
        for i in range(4):
            for j in range(i + 1, 4):
                mask = (1 << i) | (1 << j)
                assert subset_entropy(rs_maximizer4, mask, 4) == pytest.approx(2.0)

    def test_entropy_table_limit(self):
        with pytest.raises(DistributionError, match=r"entropy table: 2\^21 = 2097152 entries"):
            entropy_table(JointDistribution.point_mass((0,) * 21, 2))

    def test_entropy_table_matches_direct(self, redundant_synergy4):
        table = entropy_table(redundant_synergy4, 2)
        for mask in range(1, 16):
            assert table[mask] == pytest.approx(
                subset_entropy(redundant_synergy4, mask, 2), abs=1e-12
            )


class TestKL:
    def test_identical_is_zero(self, parity3):
        assert kl_divergence(parity3, parity3) == 0.0

    def test_redundant_vs_product_equals_tc(self, redundant3):
        prod = product_of_marginals(redundant3)
        assert kl_divergence(redundant3, prod, 2) == pytest.approx(2.0)

    def test_support_violation_is_inf(self, redundant3):
        r = JointDistribution(3, 2, {(0, 0, 0): 1.0})
        assert kl_divergence(redundant3, r) == math.inf

    def test_shape_mismatch(self, redundant3, redundant_synergy4):
        with pytest.raises(DistributionError, match="shape"):
            kl_divergence(redundant3, redundant_synergy4)

    def test_kl_to_product_equals_order1(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = random_distribution(rng, 3, 2)
            lhs = kl_divergence(p, product_of_marginals(p))
            assert lhs == pytest.approx(cohesion_k(p, 1), abs=1e-9)


class TestEntropyProperties:
    def test_monotone_and_submodular(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n, q = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            p = random_distribution(rng, n, q)
            table = entropy_table(p)
            full = (1 << n) - 1
            a = int(rng.integers(0, full + 1))
            b = int(rng.integers(0, full + 1))
            assert table[a & b] <= table[a | b] + 1e-9  # monotone via nesting
            assert table[a | b] + table[a & b] <= table[a] + table[b] + 1e-9

    def test_entropy_range(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_distribution(rng, 3, 3)
            h = entropy(p)
            assert -1e-12 <= h <= 3.0 + 1e-9


class TestIO:
    def test_csv_round_trip(self, tmp_path, rs_maximizer4):
        path = tmp_path / "d.csv"
        to_csv(rs_maximizer4, path)
        back = from_csv(path)
        assert back.q == 4 and back.atoms == rs_maximizer4.atoms

    def test_json_round_trip(self, tmp_path, parity3):
        path = tmp_path / "d.json"
        to_json(parity3, path)
        back = from_json(path)
        assert back.atoms == parity3.atoms

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), q=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           alpha=st.floats(0.01, 5.0))
    def test_random_round_trips(self, n, q, seed, alpha):
        # small alpha puts most of the mass on few atoms and leaves many
        # tiny ones, so the text formats must carry every float exactly
        rng = np.random.default_rng(seed)
        support = int(rng.integers(1, q**n + 1))
        cells = rng.choice(q**n, size=support, replace=False)
        masses = rng.dirichlet(np.full(support, alpha))
        vec = np.zeros(q**n)
        vec[cells] = masses
        p = from_dense(vec.tolist(), n, q)
        with tempfile.TemporaryDirectory() as tmp:
            to_csv(p, Path(tmp) / "d.csv")
            to_json(p, Path(tmp) / "d.json")
            for back in (from_csv(Path(tmp) / "d.csv"), from_json(Path(tmp) / "d.json")):
                assert (back.n, back.q) == (n, q)
                assert back.atoms == p.atoms

    def test_csv_comments_and_q_metadata(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# comment\n# q=4\nx0,x1,p\n0,0,0.5\n1,1,0.5\n")
        p = from_csv(path)
        assert (p.n, p.q) == (2, 4)

    @pytest.mark.parametrize("declared", ["1", "-3"])
    def test_declared_alphabet_used_as_written(self, tmp_path, declared):
        path = tmp_path / "d.csv"
        path.write_text(f"# q={declared}\nx0,x1,p\n0,0,0.5\n1,1,0.5\n")
        message = f"{path}: alphabet size must be >= 2"
        with pytest.raises(DistributionError, match=f"^{re.escape(message)}$"):
            from_csv(path)

    def test_inferred_alphabet_at_least_two(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1,p\n0,0,1.0\n")
        assert from_csv(path).q == 2

    @pytest.mark.parametrize("field, value", [("n", "1.9"), ("q", "2.0"), ("n", '"2"')])
    def test_json_header_fields_follow_the_symbol_rule(self, tmp_path, field, value):
        # as for symbols, integer-valued floats and strings are refused too
        header = {"n": "1", "q": "2", field: value}
        path = tmp_path / "d.json"
        path.write_text(f'{{"n": {header["n"]}, "q": {header["q"]}, '
                        '"atoms": [{"x": [0], "p": 1.0}]}')
        message = f"{path}: malformed JSON distribution: field '{field}' = {json.loads(value)!r}"
        with pytest.raises(DistributionError, match=f"^{re.escape(message)} is not an integer$"):
            from_json(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,x1,p\n0,0,0.5\n0,nope,0.5\n")
        with pytest.raises(DistributionError, match="bad.csv:3"):
            from_csv(path)

    def test_dense_round_trip(self, redundant_synergy4):
        vec = to_dense(redundant_synergy4)
        assert from_dense(vec, 4, 2).atoms == redundant_synergy4.atoms

    def test_dense_layout(self):
        # row-major, first variable most significant; atoms come back in
        # ascending cell order
        p = JointDistribution(2, 3, {(2, 0): 0.5, (0, 1): 0.25, (1, 2): 0.25})
        vec = to_dense(p)
        assert vec == [0.0, 0.25, 0.0, 0.0, 0.0, 0.25, 0.5, 0.0, 0.0]
        assert list(from_dense(vec, 2, 3).atoms) == [(0, 1), (1, 2), (2, 0)]

    def test_dense_limit(self):
        big = JointDistribution(9, 8, {(0,) * 9: 1.0})
        with pytest.raises(DistributionError, match="dense"):
            to_dense(big)


# CSV bodies with what from_csv gives for each: (n, q, atom items in file
# order) if it loads, else the exact DistributionError text, FILE standing
# for the path. Empty, blank, comment-only and header-only files, bad
# headers and rows, `# q=` anywhere, repeated rows, bad masses, CRLF, a
# 0xFF byte and a symbol of 2^64.
CSV_CORPUS = [
    ("empty", b"",
     "FILE: no distribution rows found"),
    ("blank", b"\n  \n\t\n",
     "FILE: no distribution rows found"),
    ("comment_only", b"# hello\n# q=3\n",
     "FILE: no distribution rows found"),
    ("header_only", b"# q=3\nx0,x1,p\n",
     "FILE: no distribution rows found"),
    ("bad_header", b"x0,x1,q\n0,0,1.0\n",
     "FILE:1: header must be x0,...,x{n-1},p"),
    ("short_header", b"p\n0,1.0\n",
     "FILE:1: header must be x0,...,x{n-1},p"),
    ("duplicated_header", b"x0,x1,p\nx0,x1,p\n0,0,1.0\n",
     "FILE:2: invalid literal for int() with base 10: 'x0'"),
    ("short_row", b"x0,x1,p\n0,0.5\n",
     "FILE:2: expected 3 cells, got 2"),
    ("long_row", b"x0,x1,p\n0,0,0,0.5\n",
     "FILE:2: expected 3 cells, got 4"),
    ("empty_cell", b"x0,x1,p\n0,,1.0\n",
     "FILE:2: invalid literal for int() with base 10: ''"),
    ("bad_int", b"x0,x1,p\n0,0,0.5\n0,nope,0.5\n",
     "FILE:3: invalid literal for int() with base 10: 'nope'"),
    ("bad_float", b"x0,x1,p\n0,0,half\n",
     "FILE:2: could not convert string to float: 'half'"),
    ("float_symbol", b"x0,x1,p\n1.0,0,1.0\n",
     "FILE:2: invalid literal for int() with base 10: '1.0'"),
    ("plus_symbol", b"x0,x1,p\n+1,0,1.0\n",
     (2, 2, [((1, 0), 1.0)])),
    ("padded_cells", b" x0 , x1 , p \n 1 , 0 , 1.0 \n",
     (2, 2, [((1, 0), 1.0)])),
    ("q_not_int", b"# q=x\nx0,x1,p\n0,0,1.0\n",
     "FILE:1: invalid literal for int() with base 10: 'x'"),
    ("q_one", b"# q=1\nx0,x1,p\n0,0,1.0\n",
     "FILE: alphabet size must be >= 2"),
    ("q_five", b"# q=5\nx0,x1,p\n0,0,0.5\n1,1,0.5\n",
     (2, 5, [((0, 0), 0.5), ((1, 1), 0.5)])),
    ("q_after_rows", b"x0,x1,p\n0,0,0.5\n1,1,0.5\n#q=4\n",
     (2, 4, [((0, 0), 0.5), ((1, 1), 0.5)])),
    ("q_twice", b"# q=3\n# q=6\nx0,x1,p\n0,0,1.0\n",
     (2, 6, [((0, 0), 1.0)])),
    ("negative_symbol", b"x0,x1,p\n-1,0,1.0\n",
     "FILE: symbol -1 in outcome (-1, 0) outside 0..1"),
    ("symbol_past_q", b"# q=2\nx0,x1,p\n0,2,1.0\n",
     "FILE: symbol 2 in outcome (0, 2) outside 0..1"),
    ("repeated_rows", b"x0,x1,p\n0,0,0.25\n1,1,0.5\n0,0,0.25\n",
     (2, 2, [((0, 0), 0.5), ((1, 1), 0.5)])),
    ("repeated_rows_over_one", b"x0,x1,p\n0,0,0.5\n0,0,0.5\n1,1,0.5\n",
     "FILE: masses sum to 1.5, not 1 within 1e-12"),
    ("nan_mass", b"x0,x1,p\n0,0,nan\n1,1,1.0\n",
     "FILE: mass nan at (0, 0) is negative, above 1 or NaN"),
    ("inf_mass", b"x0,x1,p\n0,0,inf\n",
     "FILE: mass inf at (0, 0) is negative, above 1 or NaN"),
    ("negative_mass", b"x0,x1,p\n0,0,-0.5\n1,1,1.5\n",
     "FILE: mass -0.5 at (0, 0) is negative, above 1 or NaN"),
    ("sum_short", b"x0,x1,p\n0,0,0.5\n1,1,0.25\n",
     "FILE: masses sum to 0.75, not 1 within 1e-12"),
    ("zero_mass_row", b"x0,x1,p\n0,0,0.0\n1,1,1.0\n",
     (2, 2, [((1, 1), 1.0)])),
    ("crlf", b"# q=3\r\nx0,x1,p\r\n0,0,0.5\r\n2,1,0.5\r\n",
     (2, 3, [((0, 0), 0.5), ((2, 1), 0.5)])),
    ("ff_byte", b"x0,x1,p\n0,\xff,1.0\n",
     "FILE:2: invalid literal for int() with base 10: '\ufffd'"),
    ("symbol_2_64", b"x0,p\n18446744073709551616,0.5\n0,0.5\n",
     (1, 18446744073709551617, [((18446744073709551616,), 0.5), ((0,), 0.5)])),
    ("atom_order", b"x0,x1,p\n1,1,0.5\n0,1,0.25\n0,0,0.25\n",
     (2, 2, [((1, 1), 0.5), ((0, 1), 0.25), ((0, 0), 0.25)])),
    ("inferred_q", b"x0,p\n0,0.5\n4,0.5\n",
     (1, 5, [((0,), 0.5), ((4,), 0.5)])),
    ("inferred_q_two", b"x0,x1,p\n0,0,1.0\n",
     (2, 2, [((0, 0), 1.0)])),
    ("blank_and_comment_between_rows", b"x0,x1,p\n0,0,0.5\n\n# note\n1,1,0.5\n",
     (2, 2, [((0, 0), 0.5), ((1, 1), 0.5)])),
    ("any_header_names", b"a,b,p\n0,1,1.0\n",
     (2, 2, [((0, 1), 1.0)])),
    ("repeated_sum_order", b"x0,p\n0,0.1\n1,0.7\n0,0.2\n",
     (1, 2, [((0,), 0.30000000000000004), ((1,), 0.7)])),
]


@pytest.mark.parametrize("body, expected", [pytest.param(b, e, id=i) for i, b, e in CSV_CORPUS])
def test_csv_reader_corpus(tmp_path, body, expected):
    path = tmp_path / "d.csv"
    path.write_bytes(body)
    if isinstance(expected, str):
        with pytest.raises(DistributionError) as info:
            from_csv(path)
        assert type(info.value) is DistributionError
        assert str(info.value) == expected.replace("FILE", str(path))
    else:
        p = from_csv(path)
        assert (p.n, p.q, list(p.atoms.items())) == expected


@pytest.mark.parametrize("rows, expected", [
    pytest.param([((0, 0), 0.25), ((0, 0), 0.25), ((1, 1), 0.5)],
                 [((0, 0), 0.5), ((1, 1), 0.5)], id="sum_to_one"),
    pytest.param([((0, 0), 0.5), ((0, 0), 0.5), ((1, 1), 0.5)],
                 "masses sum to 1.5, not 1 within 1e-12", id="sum_past_one"),
    pytest.param([((1, 1), 0.1), ((0, 0), 0.7), ((1, 1), 0.2)],
                 [((1, 1), 0.30000000000000004), ((0, 0), 0.7)], id="file_order"),
])
def test_repeated_outcomes_add_up_in_csv_and_json(tmp_path, rows, expected):
    csv_path, json_path = tmp_path / "d.csv", tmp_path / "d.json"
    csv_path.write_text("x0,x1,p\n" + "".join(f"{a},{b},{m!r}\n" for (a, b), m in rows))
    json_path.write_text(json.dumps({"n": 2, "q": 2, "atoms": [{"x": x, "p": m} for x, m in rows]}))
    if isinstance(expected, str):
        for path, prefix in ((csv_path, f"{csv_path}: "),
                             (json_path, f"{json_path}: malformed JSON distribution: ")):
            with pytest.raises(DistributionError) as info:
                load(path)
            assert str(info.value) == prefix + expected
    else:
        for path in (csv_path, json_path):
            assert list(load(path).atoms.items()) == expected


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: JointDistribution.normalized(2, 2, {(0, 0): 0.0, (1, 1): -0.5}),
                 "cannot normalize: total weight is not positive", id="normalized_nonpositive"),
    pytest.param(lambda: marginalize(JointDistribution.uniform(2, 2), 0b100),
                 "mask 0b100 does not fit in 2 bits", id="marginalize_wide_mask"),
    pytest.param(lambda: from_dense([0.5, 0.5], 2, 2),
                 "dense vector length 2 != 2^2", id="from_dense_wrong_length"),
])
def test_refusal_messages(call, message):
    with pytest.raises(DistributionError, match=f"^{re.escape(message)}$"):
        call()


def test_product_of_marginals_skips_a_zero_mass_symbol():
    # x0 is never 1, so every outcome starting with 1 stops at its first factor
    p = JointDistribution(2, 2, {(0, 0): 0.25, (0, 1): 0.75})
    assert product_of_marginals(p).atoms == {(0, 0): 0.25, (0, 1): 0.75}


def test_mask_helpers():
    assert indices_to_mask([0, 2]) == 0b101
