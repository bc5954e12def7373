from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohesionlab import matroid
from cohesionlab.codes import (
    LinearCode,
    code_to_distribution,
    k_column_independence,
    rs_generator,
)
from cohesionlab.cohesion import cohesion_k, constant_bound
from cohesionlab.dist import JointDistribution
from cohesionlab.errors import MatroidError, SearchBudgetExceeded
from cohesionlab.gf import is_prime_power, make_field, matrix_rank
from cohesionlab.matroid import (
    INTEGER_TOL,
    NEAR_MATROID_TOL,
    MatroidView,
    RankReport,
    check_axioms,
    code_rank_report,
    entropy_rank_report,
    find_uniform_representation,
    is_isomorphic_uniform,
    matroid_from_ranks,
    matroid_json,
    uniform_matroid,
    uniform_representable_over,
    vector_matroid,
)

GF2 = make_field(2, 1)
GF3 = make_field(3, 1)
GF4 = make_field(2, 2)

# Reference oracle for the representability table: a depth-first search
# over one representative column per projective point. It stops after
# ORACLE_RANK_CHECKS rank checks; the costliest case in ORACLE_DECIDED,
# U_{4,6} over GF(2), takes 5,889.
ORACLE_RANK_CHECKS = 50_000


def _projective_columns(field, k):
    """One representative per projective point: first nonzero coord = 1.

    Scaling a column never changes independence, so restricting to these
    representatives loses nothing.
    """
    q = field.order
    reps = []
    for lead in range(k):
        for tail_value in range(q ** (k - lead - 1)):
            col = [0] * lead + [1]
            v = tail_value
            for _ in range(k - lead - 1):
                v, d = divmod(v, q)
                col.append(d)
            reps.append(tuple(col))
    return reps


def search_uniform_representation(k, n, field):
    """Depth-first search for n columns in GF(q)^k, every k independent;
    None when none exists, SearchBudgetExceeded past the budget."""
    candidates = _projective_columns(field, k)
    chosen = []
    checks = 0

    def compatible(col):
        nonlocal checks
        for subset in combinations(chosen, k - 1):
            checks += 1
            if checks > ORACLE_RANK_CHECKS:
                raise SearchBudgetExceeded("undecided at this budget")
            sub_cols = subset + (col,)
            rows = [[c[i] for c in sub_cols] for i in range(k)]
            if matrix_rank(field, rows) != k:
                return False
        return True

    def extend(start):
        if len(chosen) == n:
            return True
        for i in range(start, len(candidates)):
            if compatible(candidates[i]):
                chosen.append(candidates[i])
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if extend(0):
        return [[col[i] for col in chosen] for i in range(k)]
    return None


GRID_ORDERS = (2, 3, 4, 5, 7, 8, 9)
GRID = [
    (q, n, k)
    for q in GRID_ORDERS
    for n in range(q + 2, q + 5)
    for k in range(2, n - 1)
]
# The grid cases the oracle decides within its budget (about 1 s in
# total); the other 85 exhaust it and together take about 190 s.
ORACLE_DECIDED = [
    (2, 4, 2), (2, 5, 2), (2, 5, 3), (2, 6, 2), (2, 6, 3), (2, 6, 4),
    (3, 5, 2), (3, 5, 3), (3, 6, 2), (3, 6, 3), (3, 7, 2), (3, 7, 3),
    (4, 6, 2), (4, 6, 3), (4, 7, 2), (4, 8, 2), (5, 7, 2), (5, 8, 2),
    (5, 9, 2), (7, 9, 2), (7, 10, 2), (7, 11, 2), (8, 10, 2), (8, 10, 3),
    (8, 11, 2), (8, 12, 2), (9, 11, 2), (9, 12, 2), (9, 13, 2),
]


def _field(q):
    return make_field(*is_prime_power(q))


def independents_by_mask(ranks):
    """The S with r(S) = |S|, one mask at a time."""
    return frozenset(m for m, r in enumerate(ranks) if r == m.bit_count())


def report_by_mask(n, values):
    """RankReport of a table by mask, each flag from its per-mask definition."""
    max_dev, bounded = 0.0, True
    for mask, h in enumerate(values):
        max_dev = max(max_dev, abs(h - round(h)))
        bounded = bounded and h <= mask.bit_count() + INTEGER_TOL
    integer_valued = bounded and max_dev <= INTEGER_TOL
    near = bounded and not integer_valued and max_dev <= NEAR_MATROID_TOL
    return RankReport(n, tuple(values), integer_valued, max_dev, near)


class TestRankReport:
    def test_rs_maximizer_ranks(self, rs_maximizer4):
        rep = entropy_rank_report(rs_maximizer4)
        assert rep.integer_valued
        for mask in range(16):
            expected = min(mask.bit_count(), 2)
            assert rep.ranks[mask] == pytest.approx(expected, abs=1e-9)

    def test_parity_ranks(self, parity3):
        rep = entropy_rank_report(parity3)
        by_size = sorted(
            (mask.bit_count(), round(r)) for mask, r in enumerate(rep.ranks)
        )
        assert [r for _, r in by_size] == [0, 1, 1, 1, 2, 2, 2, 2]

    def test_half_bit_not_integer_valued(self):
        p = JointDistribution(1, 2, {(0,): 0.9, (1,): 0.1})
        rep = entropy_rank_report(p)
        assert not rep.integer_valued
        assert rep.max_deviation > 1e-3

    def test_near_matroidal_flag(self):
        # small perturbation of a fair bit: the entropy deviation is
        # quadratic in eps, landing between the two tolerances
        eps = 0.01
        p = JointDistribution(1, 2, {(0,): 0.5 + eps, (1,): 0.5 - eps})
        rep = entropy_rank_report(p)
        assert not rep.integer_valued
        assert rep.near_matroidal

    @pytest.mark.parametrize("n", range(9))
    def test_flags_match_per_mask_definitions(self, n):
        rng = np.random.default_rng(n)
        ranks = np.array(uniform_matroid(2, n).ranks, dtype=float)
        above = ranks.copy()
        above[-1] += 1.0  # integer, but r(E) > |E| when n <= 2
        flags = set()
        noisy = [ranks - rng.uniform(0.0, eps, ranks.shape) for eps in (1e-8, 1e-4, 0.3)]
        for values in [ranks, above, ranks + rng.uniform(-1e-4, 1e-4, ranks.shape)] + noisy:
            values = values.tolist()
            rep = matroid._rank_report_from_values(n, values)
            assert rep == report_by_mask(n, values)
            flags.add((rep.integer_valued, rep.near_matroidal))
        assert {(True, False), (False, True), (False, False)} <= flags


class TestMatroidFromRanks:
    def test_rs_maximizer_gives_uniform(self, rs_maximizer4):
        view = matroid_from_ranks(entropy_rank_report(rs_maximizer4))
        assert view.independents == uniform_matroid(2, 4).independents

    def test_redundant_gives_rank_one(self, redundant3):
        view = matroid_from_ranks(entropy_rank_report(redundant3))
        assert view.independents == frozenset({0, 1, 2, 4})

    def test_point_mass_trivial(self):
        p = JointDistribution.point_mass((0, 0, 0), 2)
        view = matroid_from_ranks(entropy_rank_report(p))
        assert view.independents == frozenset({0})

    def test_non_integer_rejected(self):
        p = JointDistribution(2, 2, {(0, 0): 0.7, (1, 1): 0.3})
        with pytest.raises(MatroidError, match="not a matroid rank function"):
            matroid_from_ranks(entropy_rank_report(p))

    def test_binary_peak_not_uniform(self, redundant_synergy4):
        # one pair has entropy 1 < 2, so the independence family is not U_{2,4}
        view = matroid_from_ranks(entropy_rank_report(redundant_synergy4))
        for k in range(5):
            assert not is_isomorphic_uniform(view, k)


def augmentation_oracle(n, family):
    """Reference check of the independent-set axioms on a family of
    subset masks: the empty set is in it, it is closed under subsets, and
    any member can be augmented from a member one larger. Augmentation
    for size gaps of exactly one implies the general exchange property by
    iteration."""
    if 0 not in family:
        return False
    for s in family:
        rest = s
        while rest:
            bit = rest & -rest
            if (s ^ bit) not in family:
                return False
            rest ^= bit
    by_size = {}
    for s in family:
        by_size.setdefault(s.bit_count(), []).append(s)
    full = (1 << n) - 1
    for size, smaller in sorted(by_size.items()):
        larger = by_size.get(size + 1, [])
        for s1 in smaller:
            for s2 in larger:
                extra = s2 & ~s1 & full
                ok = False
                rest = extra
                while rest:
                    bit = rest & -rest
                    if (s1 | bit) in family:
                        ok = True
                        break
                    rest ^= bit
                if not ok:
                    return False
    return True


def family_ranks(n, family):
    """r_F(S) = max{|I| : I subset of S, I in F}, 0 when no member fits."""
    return tuple(
        max((i.bit_count() for i in family if i & ~s == 0), default=0)
        for s in range(1 << n)
    )


@st.composite
def small_families(draw):
    """A family of subset masks on n <= 5 elements: an arbitrary set of
    masks, or the subsets of a few masks (often a matroid), optionally
    with one mask toggled."""
    n = draw(st.integers(0, 5))
    masks = st.integers(0, (1 << n) - 1)
    if draw(st.booleans()):
        family = draw(st.sets(masks))
    else:
        tops = draw(st.lists(masks, min_size=1, max_size=3))
        family = {s for s in range(1 << n) if any(s & ~t == 0 for t in tops)}
    if draw(st.booleans()):
        family ^= {draw(masks)}
    return n, frozenset(family)


class TestAxioms:
    def test_uniform_passes(self):
        for n in range(9):
            for k in range(n + 1):
                view = uniform_matroid(k, n)
                assert view.ranks == tuple(min(m.bit_count(), k) for m in range(1 << n))
                assert view.independents == independents_by_mask(view.ranks)
                assert check_axioms(view)

    def test_missing_empty_set_fails(self):
        # r(empty) = 1: the empty set is not independent
        assert not check_axioms(MatroidView(2, (1, 1, 1, 1), "vector"))

    def test_not_downward_closed_fails(self):
        # the family {{}, {0, 1}}: adding one element raises the rank by 2
        assert not check_axioms(MatroidView(2, (0, 0, 0, 2), "vector"))

    def test_rank_above_cardinality_fails(self):
        # no family gives this: r_F(S) <= |S|
        assert not check_axioms(MatroidView(1, (0, 2), "vector"))

    def test_exchange_failure_detected(self):
        # the family {{}, {0}, {1}, {2}, {0,1}}: {0,1} cannot augment {2},
        # so r({0,2}) + r({1,2}) = 2 < r({0,1,2}) + r({2}) = 3
        ranks = (0, 1, 1, 2, 1, 1, 1, 2)
        assert not check_axioms(MatroidView(3, ranks, "vector"))

    @settings(max_examples=300, deadline=None)
    @given(case=small_families())
    def test_rank_axioms_agree_with_family_oracle(self, case):
        n, family = case
        view = MatroidView(n, family_ranks(n, family), "vector")
        assert augmentation_oracle(n, family) == (
            check_axioms(view) and view.independents == family
        )

    def test_verify_covers_ground_sets_above_twelve(self):
        n = 13
        ranks = list(uniform_matroid(2, n).ranks)
        ranks[0b111] = 3  # r({0,1,2}) = 3 > r({0,1,2,3}) = 2
        report = RankReport(n, tuple(map(float, ranks)), True, 0.0, False)
        with pytest.raises(MatroidError, match="rank axioms"):
            matroid_from_ranks(report)

    def test_entropy_matroids_pass_axioms(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            # uniform distributions over random binary linear codes
            k, n = 2, 4
            rows = rng.integers(0, 2, size=(k, n))
            if matrix_rank(GF2, rows.tolist()) != k:
                continue
            d = code_to_distribution(LinearCode.from_rows(GF2, rows.tolist()))
            view = matroid_from_ranks(entropy_rank_report(d))
            assert check_axioms(view)


class TestVectorMatroid:
    def test_example_matrix(self):
        view = vector_matroid(GF2, [[1, 0, 1], [0, 1, 1]])
        assert view.independents == frozenset({0, 1, 2, 4, 3, 5, 6})
        assert is_isomorphic_uniform(view, 2)

    def test_rs_generator_uniform(self):
        code = rs_generator(GF4, 2)
        view = vector_matroid(GF4, code.generator)
        assert is_isomorphic_uniform(view, 2)

    def test_zero_matrix(self):
        view = vector_matroid(GF2, [[0, 0], [0, 0]])
        assert view.independents == frozenset({0})

    def test_no_columns(self):
        assert vector_matroid(GF2, []).ranks == (0,)
        assert vector_matroid(GF2, [[]]).ranks == (0,)
        assert vector_matroid(GF2, []).independents == frozenset({0})

    def test_one_subset_rank_pass_per_table(self, monkeypatch):
        # only the r-column subsets are ranked, r the rank of the matrix
        calls = []
        kernel = matroid.column_subset_ranks
        monkeypatch.setattr(matroid, "column_subset_ranks",
                            lambda *args: calls.append(args[2]) or kernel(*args))
        assert is_isomorphic_uniform(vector_matroid(GF4, rs_generator(GF4, 3).generator), 3)
        assert code_rank_report(rs_generator(GF4, 2)).ranks[-1] == 2
        assert vector_matroid(GF3, [[1, 2, 0], [2, 1, 0], [0, 0, 0]]).ranks[-1] == 1
        assert calls == [3, 2, 1]

    @settings(max_examples=80, deadline=None)
    @given(q=st.sampled_from((2, 3, 4, 5)), rows=st.integers(1, 3), data=st.data())
    def test_rank_table_matches_reference_rank(self, q, rows, data):
        # zero and repeated columns make subsets above `rows` columns
        # whose rank the subset-max fill has to find below rows
        cols = []
        for _ in range(data.draw(st.integers(1, 6))):
            kind = data.draw(st.sampled_from(("random", "zero", "repeat")))
            if kind == "zero":
                cols.append([0] * rows)
            elif kind == "repeat" and cols:
                cols.append(data.draw(st.sampled_from(cols)))
            else:
                cols.append(data.draw(st.lists(st.integers(0, q - 1),
                                               min_size=rows, max_size=rows)))
        matrix = [[c[i] for c in cols] for i in range(rows)]
        f = _field(q)
        view = vector_matroid(f, matrix)
        ranks = view.ranks
        assert view.independents == independents_by_mask(ranks)
        for mask in range(1 << len(cols)):
            sub = [[c[i] for j, c in enumerate(cols) if mask >> j & 1] for i in range(rows)]
            assert ranks[mask] == matrix_rank(f, sub), (mask, matrix)

    def test_rank_tables_capped_at_twenty_elements(self):
        # an RS code over GF(32) has 32 columns: 2^32 table entries
        with pytest.raises(MatroidError, match=r"rank table: 2\^32 = 4294967296 entries"):
            code_rank_report(rs_generator(make_field(2, 5), 2))
        with pytest.raises(MatroidError, match=r"rank table: 2\^21 = 2097152 entries"):
            vector_matroid(GF2, [[1] * 21])


class TestRepresentability:
    def test_u24_not_over_gf2(self):
        assert not uniform_representable_over(2, 4, GF2)

    def test_u24_over_gf3(self):
        assert uniform_representable_over(2, 4, GF3)

    def test_k_equals_n_identity(self):
        assert uniform_representable_over(3, 3, GF2)

    def test_k1_any_length(self):
        # parallel columns are allowed at k = 1, so n may exceed q+1
        assert uniform_representable_over(1, 5, GF2)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_closed_form_up_to_q_plus_1(self, q):
        f = make_field(*is_prime_power(q))
        for n in range(2, q + 2):
            for k in range(1, n):
                rows = find_uniform_representation(k, n, f)
                assert k_column_independence(LinearCode.from_rows(f, rows)), (k, n)

    def test_found_matrix_is_valid(self):
        rows = find_uniform_representation(2, 4, GF3)
        view = vector_matroid(GF3, rows)
        assert is_isomorphic_uniform(view, 2)

    def test_monotone_in_field_order(self):
        # once representable, staying representable for larger prime powers
        orders = [2, 3, 4, 5, 7, 8, 9]
        for k, n in [(2, 4), (2, 5), (3, 5)]:
            seen_true = False
            for q in orders:
                f = make_field(*is_prime_power(q))
                ok = uniform_representable_over(k, n, f)
                if seen_true:
                    assert ok, f"monotonicity broken at U_{{{k},{n}}} over GF({q})"
                seen_true = seen_true or ok

    def test_budget_exceeded_is_explicit(self):
        # k' = 4 over GF(8) lies outside every implemented theorem
        with pytest.raises(SearchBudgetExceeded, match="undecided"):
            find_uniform_representation(4, 10, make_field(2, 3))

    def test_candidate_pool_checked_before_it_is_built(self):
        # n - k = 34 >= q = 16 rules the code out before any column is built
        assert find_uniform_representation(6, 40, make_field(2, 4)) is None


    def test_table_agrees_with_search_oracle(self):
        compared = 0
        for q, n, k in ORACLE_DECIDED:
            assert (q, n, k) in GRID
            f = _field(q)
            table = find_uniform_representation(k, n, f)
            oracle = search_uniform_representation(k, n, f)
            assert (table is None) == (oracle is None), (q, n, k)
            compared += 1
        assert compared >= 29

    def test_table_decides_grid_outside_open_cases(self):
        undecided = []
        for q, n, k in GRID:
            try:
                find_uniform_representation(k, n, _field(q))
            except SearchBudgetExceeded:
                undecided.append((q, n, k))
        # open cases with k' = min(k, n-k) in 4..6 over GF(8) and GF(9)
        assert len(undecided) == 19
        assert all(q in (8, 9) and 4 <= min(k, n - k) <= 6 for q, n, k in undecided)

    def test_representable_answers_pass_column_independence(self):
        hyperovals = [(q, q + 2, k) for q in (4, 8, 16) for k in (3, q - 1)]
        parity = [(q, n, n - 1) for q in (2, 3) for n in range(q + 2, q + 5)]
        representable = []
        for q, n, k in GRID + hyperovals + parity:
            f = _field(q)
            try:
                rows = find_uniform_representation(k, n, f)
            except SearchBudgetExceeded:
                continue
            if rows is not None:
                code = LinearCode.from_rows(f, rows)
                assert (code.k, code.n) == (k, n)
                assert k_column_independence(code), (q, n, k)
                representable.append((q, n, k))
        assert set(hyperovals + parity) <= set(representable)
        assert (8, 10, 7) in representable  # beyond the oracle's budget


class TestTheoremChainSmall:
    def test_three_way_agreement_small_fields(self):
        for q in (2, 3, 4, 5):
            f = make_field(*is_prime_power(q))
            for k in range(1, q):
                code = rs_generator(f, k)
                d = code_to_distribution(code)
                entropy_view = matroid_from_ranks(entropy_rank_report(d))
                vector_view = vector_matroid(f, code.generator)
                assert entropy_view.independents == vector_view.independents
                assert is_isomorphic_uniform(entropy_view, k)
                assert cohesion_k(d, k) == pytest.approx(
                    constant_bound(q, k), abs=1e-9
                )

    def test_code_rank_report_matches_entropy(self):
        for q, k in [(2, 1), (3, 2), (4, 2)]:
            f = make_field(*is_prime_power(q))
            code = rs_generator(f, k)
            d = code_to_distribution(code)
            assert code_rank_report(code).ranks == pytest.approx(
                entropy_rank_report(d).ranks, abs=1e-9
            )

    def test_perturbed_near_maximizer_fails_rank_conditions(self, rs_maximizer4):
        atoms = dict(rs_maximizer4.atoms)
        first = next(iter(atoms))
        atoms[first] += 0.01
        atoms[(1, 1, 1, 0)] = atoms.get((1, 1, 1, 0), 0.0) + 0.0  # keep sparse
        perturbed = JointDistribution.normalized(4, 4, atoms)
        rep = entropy_rank_report(perturbed)
        assert not rep.integer_valued
        assert cohesion_k(perturbed, 2) < constant_bound(4, 2) - 1e-6


def test_matroid_json_lists_sorted_indices():
    payload = matroid_json(uniform_matroid(1, 3))
    assert payload["ground_size"] == 3
    assert [0] in payload["independents"]
    assert [] in payload["independents"]
    assert [0, 1] not in payload["independents"]
