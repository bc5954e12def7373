import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohesionlab import dist, explore
from cohesionlab.cohesion import cohesion_k, cohesion_orders, constant_bound
from cohesionlab.dist import (
    JointDistribution,
    from_dense,
    indices_to_mask,
    order_entropies,
    subset_entropy,
    to_dense,
)
from cohesionlab.errors import ScanError
from cohesionlab.explore import (
    ScanConfig,
    batch_cohesion_all,
    batch_subset_entropies,
    compositions,
    emit_scatter,
    grid_count,
    grid_enumerate,
    hill_climb,
    local_search_max,
    make_objective,
    parse_measure,
    random_sample,
    sample_matrix,
)
from cohesionlab.maxent import check_eq4_bound
from conftest import random_distribution


def scalar_hill_climb(vec, objective, delta_start=explore.DELTA_START,
                      delta_min=explore.DELTA_MIN):
    """Reference climb: one objective call per (i, j) move, in double-loop
    order, accepting the first move that improves."""
    vec = vec.astype(float).copy()
    val = objective(vec)
    dims = vec.shape[0]
    evals = 1
    delta = delta_start
    while delta >= delta_min:
        improved = True
        while improved:
            improved = False
            for i in range(dims):
                if vec[i] <= 0.0:
                    continue
                step = min(delta, vec[i])
                for j in range(dims):
                    if j == i:
                        continue
                    cand = vec.copy()
                    cand[i] -= step
                    cand[j] += step
                    cv = objective(cand)
                    evals += 1
                    if cv > val + 1e-14:
                        vec, val = cand, cv
                        improved = True
                        step = min(delta, vec[i])
                        if step <= 0.0:
                            break
        delta /= 2.0
    return vec, val, evals


class TestConfig:
    def test_measure_parsing(self):
        assert parse_measure("c2", 4) == ("c", 2)
        assert parse_measure("d1", 3) == ("d", 1)

    def test_bad_measure_rejected(self):
        with pytest.raises(ScanError, match="unknown measure"):
            parse_measure("x1", 3)
        with pytest.raises(ScanError, match="outside"):
            parse_measure("c3", 3)

    def test_bad_mode_rejected(self):
        with pytest.raises(ScanError, match="mode"):
            ScanConfig(3, 2, mode="sweep")

    def test_config_validates_measures(self):
        with pytest.raises(ScanError):
            ScanConfig(3, 2, measures=("c5",))


class TestGrid:
    def test_composition_count(self):
        for total, parts in [(3, 2), (4, 3), (6, 4)]:
            got = list(compositions(total, parts))
            assert len(got) == grid_count(total, parts)
            assert len(set(got)) == len(got)
            assert all(sum(c) == total for c in got)

    def test_grid_enumerate_valid_distributions(self):
        cfg = ScanConfig(2, 2, mode="grid", resolution=3, measures=("c1",))
        dists = list(grid_enumerate(cfg))
        assert len(dists) == grid_count(3, 4)
        for d in dists:
            assert abs(sum(d.atoms.values()) - 1.0) < 1e-12

    def test_grid_limit(self):
        cfg = ScanConfig(3, 3, mode="grid", resolution=40, measures=("c1", "c2"))
        with pytest.raises(ScanError, match="limit"):
            list(grid_enumerate(cfg))


class TestSampling:
    def test_seed_reproducible(self):
        cfg = ScanConfig(2, 2, sample_count=5, seed=9, measures=("c1",))
        a = [to_dense(d) for d in random_sample(cfg)]
        b = [to_dense(d) for d in random_sample(cfg)]
        assert a == b

    def test_seeds_differ(self):
        a = next(iter(random_sample(ScanConfig(2, 2, sample_count=1, seed=1, measures=("c1",)))))
        b = next(iter(random_sample(ScanConfig(2, 2, sample_count=1, seed=2, measures=("c1",)))))
        assert a.atoms != b.atoms

    def test_sample_matrix_rows_normalized(self):
        rows = sample_matrix(np.random.default_rng(0), 100, 8)
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert (rows >= 0).all()


class TestBatchMeasures:
    def test_batch_cohesion_matches_scalar(self):
        rng = np.random.default_rng(61)
        n, q = 3, 2
        P = sample_matrix(rng, 40, q**n)
        vals = cohesion_orders(P.reshape(40, q, q, q), (1, 2))
        assert vals.shape == (40, 2)
        from cohesionlab.dist import from_dense

        for i in range(P.shape[0]):
            p = from_dense(P[i].tolist(), n, q)
            for k in (1, 2):
                assert vals[i, k - 1] == pytest.approx(cohesion_k(p, k), abs=1e-9)

    def test_batch_cohesion_all_consistent(self):
        rng = np.random.default_rng(67)
        n, q = 4, 2
        P = sample_matrix(rng, 25, q**n)
        allk = batch_cohesion_all(P, n, q)
        assert allk.shape == (25, 3)
        for k in (1, 2, 3):
            assert np.allclose(allk[:, k - 1], make_objective(n, q, f"c{k}")(P))

    @pytest.mark.parametrize("n, q", [(3, 2), (3, 3)])
    def test_batch_subset_entropies_match_order_entropies(self, n, q):
        rng = np.random.default_rng(59 + q)
        P = sample_matrix(rng, 12, q**n)
        cube = P.reshape((12,) + (q,) * n)
        for k in range(1, n + 1):
            got = batch_subset_entropies(P, n, q, k, 2.0)
            assert np.array_equal(got, order_entropies(cube, (k,), 2.0)[:, 0])
            p = from_dense(P[0].tolist(), n, q)
            want = sum(subset_entropy(p, indices_to_mask(s), 2.0) for s in combinations(range(n), k))
            assert got[0] == pytest.approx(want, abs=1e-9)

    def test_batch_divergence_measure(self):
        rng = np.random.default_rng(71)
        n, q = 3, 2
        P = sample_matrix(rng, 10, q**n)
        vals = make_objective(n, q, "d2", base=2.0)(P)
        from cohesionlab.dist import from_dense

        for i in range(10):
            p = from_dense(P[i].tolist(), n, q)
            rep = check_eq4_bound(p, 2, base=2.0)
            assert vals[i] == pytest.approx(rep.divergence, abs=1e-7)

    def test_large_batch_fast(self):
        import time

        rng = np.random.default_rng(73)
        P = sample_matrix(rng, 100_000, 16)
        start = time.perf_counter()
        vals = make_objective(4, 2, "c2", 2.0)(P)
        assert time.perf_counter() - start < 30.0
        assert vals.max() < 5.0 + 1e-9  # never above the proven peak


class TestSearch:
    def test_objective_matches_cohesion(self):
        rng = np.random.default_rng(79)
        f = make_objective(4, 2, "c2", 2.0)
        for _ in range(10):
            vec = sample_matrix(rng, 1, 16)[0]
            from cohesionlab.dist import from_dense

            p = from_dense(vec.tolist(), 4, 2)
            assert f(vec) == pytest.approx(cohesion_k(p, 2, 2.0), abs=1e-9)

    def test_hill_climb_improves(self):
        rng = np.random.default_rng(83)
        f = make_objective(4, 2, "c2", 2.0)
        start = sample_matrix(rng, 1, 16)[0]
        vec, val, evals = hill_climb(start, f, delta_min=2.0**-8)
        assert val >= f(start) - 1e-12
        assert abs(vec.sum() - 1.0) < 1e-9
        assert evals > 1

    def test_search_finds_five_bit_peak(self):
        cfg = ScanConfig(4, 2, mode="search", seed=0, measures=("c2",))
        # warm starts from the best Dirichlet draws keep this fast
        rng = np.random.default_rng(cfg.seed)
        P = sample_matrix(rng, 2000, 16)
        vals = make_objective(4, 2, "c2", 2.0)(P)
        warm = [P[i] for i in np.argsort(vals)[-3:]]
        result = local_search_max(cfg, "c2", restarts=3, warm_starts=warm, base=2.0)
        assert result.value == pytest.approx(5.0, abs=1e-6)

    def test_objective_batch_matches_rows(self):
        rng = np.random.default_rng(89)
        for measure in ("c1", "c2", "d1", "d2"):
            f = make_objective(3, 3, measure)
            P = sample_matrix(rng, 7, 27)
            got = f(P)
            assert got.shape == (7,)
            # one row and a batch may take different BLAS products
            assert got == pytest.approx([f(row) for row in P], abs=1e-12)

    def test_delta_min_must_be_positive(self):
        calls = []

        def f(vecs):
            # without the check delta never falls below 0.0: fail, not hang
            calls.append(1)
            assert len(calls) < 1000
            return make_objective(2, 2, "c1")(vecs)

        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ScanError, match="delta_min"):
                hill_climb(np.full(4, 0.25), f, delta_min=bad)

    def test_no_starts_rejected(self):
        cfg = ScanConfig(3, 2, mode="search", measures=("c1",))
        with pytest.raises(ScanError, match="restarts"):
            local_search_max(cfg, restarts=0)
        warm = [np.full(8, 0.125)]
        assert local_search_max(cfg, restarts=0, warm_starts=warm).restarts == 1

    def test_divergence_search_reports_converged_ipf(self):
        cfg = ScanConfig(4, 2, mode="search", seed=4, measures=("d1",))
        result = local_search_max(cfg, restarts=2, delta_min=2.0**-10)
        assert result.evaluations > 1
        assert result.ipf_unconverged == 0

    def test_slow_ipf_target_counted(self):
        # Pair marginals of uniform mass on {001, 010, 100} force a zero
        # at 000 that no marginal has, so IPF converges only sublinearly.
        start = np.zeros(8)
        start[[1, 2, 4]] = 1.0 / 3.0
        tally = Counter()
        make_objective(3, 2, "d2", tally=tally)(start)
        assert tally["ipf_unconverged"] == 1
        cfg = ScanConfig(3, 2, mode="search", measures=("d2",))
        result = local_search_max(cfg, restarts=1, warm_starts=[start],
                                  delta_start=2.0**-6, delta_min=2.0**-6)
        assert result.ipf_unconverged >= 1

    def test_search_result_distribution_consistent(self):
        cfg = ScanConfig(3, 2, mode="search", seed=5, measures=("c1",))
        result = local_search_max(cfg, restarts=2, base=2.0)
        assert result.value <= constant_bound(3, 1) + 1e-9
        assert cohesion_k(result.distribution, 1, 2.0) == pytest.approx(
            result.value, abs=1e-6
        )


# (n, q, measure, base, delta_min)
ORACLE_CASES = [
    (4, 2, "c2", 2.0, 2.0**-12),
    (3, 3, "c2", None, 2.0**-12),
    (4, 3, "c2", None, 2.0**-8),
    (4, 2, "c1", None, 2.0**-12),
    (4, 2, "c3", 2.0, 2.0**-12),
    (4, 2, "d1", None, 2.0**-12),
    (3, 2, "d2", None, 2.0**-8),  # a multi-sweep IPF per row
]


class TestBatchedClimb:
    """The batched neighbourhood against the scalar double loop: same
    vector, value and evaluation count, bit for bit."""

    @pytest.mark.parametrize("n,q,measure,base,delta_min", ORACLE_CASES)
    @pytest.mark.parametrize("seed", [5, 23])
    def test_matches_scalar_climb(self, n, q, measure, base, delta_min, seed):
        start = np.random.default_rng(seed).dirichlet(np.ones(q**n))
        f = make_objective(n, q, measure, base)
        want = scalar_hill_climb(start, f, delta_min=delta_min)
        got = hill_climb(start, f, delta_min=delta_min)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("measure", ["c2", "d1"])
    def test_split_batches_match(self, monkeypatch, rows, measure):
        # a cap of a few rows splits every source's targets into chunks
        start = np.random.default_rng(31).dirichlet(np.ones(16))
        f = make_objective(4, 2, measure)
        want = scalar_hill_climb(start, f, delta_min=2.0**-10)
        monkeypatch.setattr(explore, "BATCH_CELLS", 16 * rows)
        sizes = []

        def batched(vecs):
            sizes.append(np.atleast_2d(vecs).shape[0])
            return f(vecs)

        got = hill_climb(start, batched, delta_min=2.0**-10)
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]
        assert max(sizes) == rows

    def test_evaluations_count_candidates(self):
        # no move from a point mass improves C1 at any delta, so every
        # candidate of one source (the only nonzero atom) is scored
        start = np.zeros(8)
        start[3] = 1.0
        f = make_objective(3, 2, "c1")
        got = hill_climb(start, f, delta_start=0.5, delta_min=0.5)
        want = scalar_hill_climb(start, f, delta_start=0.5, delta_min=0.5)
        assert got[2] == want[2]


class TestEmitScatter:
    def test_files_and_counts(self, tmp_path):
        cfg = ScanConfig(3, 2, mode="random", sample_count=200, seed=2,
                         measures=("c1", "c2"))
        summary = emit_scatter(cfg, tmp_path)
        assert summary["points"] == 200
        lines = (tmp_path / "scatter.csv").read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "index,c1,c2"
        assert len(data) == 201
        # every point feasible against the adjacent-order inequality:
        # (n - k) * C^(k) >= k * C^(k+1) with n=3, k=1
        for row in data[1:]:
            _, c1, c2 = row.split(",")
            assert 2 * float(c1) >= float(c2) - 1e-9

    def test_overlay_contents(self, tmp_path):
        cfg = ScanConfig(4, 2, mode="random", sample_count=10, seed=0)
        emit_scatter(cfg, tmp_path)
        meta = (b"# tool=cohesionlab-scan\n# n=4\n# q=2\n# mode=random\n# resolution=6\n"
                b"# samples=10\n# seed=0\n# measures=c1,c2,c3\n# units=base-q\n")
        expected = {
            "overlay_eq1.csv": b"# overlay=adjacent-order rays\nk,slope\n1,3\n2,1\n",
            "overlay_bounds.csv": b"# overlay=constant ceilings\nk,constant_bound\n1,3\n2,6\n3,3\n",
            "overlay_eq4.csv": b"# overlay=divergence bound diagonal\nslope,intercept\n1,0\n",
        }
        for name, body in expected.items():
            assert (tmp_path / name).read_bytes() == meta + body, name

    def test_metadata_lines(self, tmp_path):
        cfg = ScanConfig(3, 2, mode="random", sample_count=5, seed=11,
                         measures=("c1", "c2"))
        emit_scatter(cfg, tmp_path)
        text = (tmp_path / "scatter.csv").read_text()
        assert "# seed=11" in text
        assert "# units=base-q" in text

    def test_grid_mode(self, tmp_path):
        cfg = ScanConfig(2, 2, mode="grid", resolution=4, measures=("c1",))
        summary = emit_scatter(cfg, tmp_path)
        assert summary["points"] == grid_count(4, 4)

    def test_grid_limit_writes_nothing(self, tmp_path):
        cfg = ScanConfig(4, 2, mode="grid", resolution=60, measures=("c1",))
        with pytest.raises(ScanError, match="limit"):
            emit_scatter(cfg, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_search_mode_rejected(self, tmp_path):
        cfg = ScanConfig(3, 2, mode="search", measures=("c1", "c2"))
        with pytest.raises(ScanError, match="grid and random"):
            emit_scatter(cfg, tmp_path)

    @pytest.mark.parametrize("mode", ["random", "grid"])
    @pytest.mark.parametrize("chunk", [0, -3])
    def test_chunk_must_be_positive(self, tmp_path, mode, chunk):
        # a zero chunk used to loop forever in random mode
        cfg = ScanConfig(3, 2, mode=mode, sample_count=5, resolution=2, measures=("c1",))
        with pytest.raises(ScanError, match="chunk"):
            emit_scatter(cfg, tmp_path, chunk=chunk)

    def test_unconverged_ipf_counted(self, tmp_path, monkeypatch):
        cfg = ScanConfig(3, 2, mode="random", sample_count=10, seed=4, measures=("c1", "d2"))
        assert emit_scatter(cfg, tmp_path / "ok", chunk=4)["ipf_unconverged"] == 0
        monkeypatch.setattr(explore, "DEFAULT_MAX_SWEEPS", 1)
        # one d2 batch per chunk of 4, 4 and 2 rows, none converged in a sweep
        assert emit_scatter(cfg, tmp_path / "capped", chunk=4)["ipf_unconverged"] == 3

    def test_rows_independent_of_chunk(self, tmp_path):
        cfg = ScanConfig(2, 2, mode="grid", resolution=4, measures=("c1", "d1"))
        for chunk in (8, 4096):  # 35 points: the last chunk of 8 is partial
            assert emit_scatter(cfg, tmp_path / str(chunk), chunk=chunk)["points"] == 35
        text = (tmp_path / "8" / "scatter.csv").read_text()
        assert text == (tmp_path / "4096" / "scatter.csv").read_text()

    def test_random_rows_match_objective(self, tmp_path):
        measures = ("c1", "c2", "d1", "d2")
        cfg = ScanConfig(3, 3, mode="random", sample_count=50, seed=9, measures=measures)
        emit_scatter(cfg, tmp_path, chunk=16)
        lines = (tmp_path / "scatter.csv").read_text().splitlines()
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines if not line.startswith(("#", "index"))])
        assert rows[:, 0].tolist() == list(range(50))
        P = sample_matrix(np.random.default_rng(9), 50, 27)
        for col, m in enumerate(measures, 1):
            want = make_objective(3, 3, m)(P)
            # the CSV keeps 12 significant digits
            assert rows[:, col] == pytest.approx(want, rel=5e-12, abs=1e-12)


SPECIALS = [math.inf, math.nan, -0.0, 5e-324, 1.2e14, -math.inf, 1 / 3]


def spy_columns(monkeypatch, inject=False):
    """Record each batch's measure arrays in call order; with `inject`,
    the first cohesion cells of every batch are overwritten by SPECIALS."""
    calls = []
    orders, divergences = explore.cohesion_orders, explore._divergences

    def cohesion_spy(*args, **kwargs):
        out = orders(*args, **kwargs)
        if inject:
            out.flat[:len(SPECIALS)] = SPECIALS[:out.size]
        calls.append(("c", out))
        return out

    def divergence_spy(*args, **kwargs):
        calls.append(("d", divergences(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(explore, "cohesion_orders", cohesion_spy)
    monkeypatch.setattr(explore, "_divergences", divergence_spy)
    return calls


class TestScatterRows:
    MEASURES = ("c2", "d1", "c1")

    @pytest.mark.parametrize("mode", ["random", "grid"])
    @pytest.mark.parametrize("chunk", [7, 4096])
    def test_rows_match_fstring_rendering(self, tmp_path, monkeypatch, mode, chunk):
        # the rendering the one-template rows replaced: one f-string per
        # numpy value, with inf, nan, -0.0 and subnormals in the columns
        cfg = ScanConfig(3, 2, mode=mode, sample_count=40, resolution=3, seed=6,
                         measures=self.MEASURES)
        calls = spy_columns(monkeypatch, inject=True)
        emit_scatter(cfg, tmp_path, chunk=chunk)
        want, count = [], 0
        for at in range(0, len(calls), 2):  # per batch: one c call, then d1
            (_, cvals), (_, d1) = calls[at:at + 2]
            cols = [cvals[:, 0], d1, cvals[:, 1]]  # c orders in measure order: (2, 1)
            for index, row in enumerate(zip(*cols), count):
                want.append(f"{index}," + ",".join(f"{v:.12g}" for v in row))
            count += len(d1)
        lines = (tmp_path / "scatter.csv").read_text().splitlines()
        assert lines[lines.index("index,c2,d1,c1") + 1:] == want
        assert {"inf", "nan", "-0", "4.94065645841e-324", "1.2e+14"} <= set(",".join(want).split(","))

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_percent_format_is_fstring_format(self, v):
        assert "%.12g" % v == f"{v:.12g}" == f"{np.float64(v):.12g}"

    @pytest.mark.parametrize("n,q,measures", [(4, 2, ("c1", "d1", "d2")), (3, 3, ("d1", "d2"))])
    def test_rows_do_not_depend_on_chunk(self, tmp_path, n, q, measures):
        # each IPF row stops on its own residual, so a row's d-values are
        # the same bytes in a batch of one and in a batch of every point (with
        # one stopping rule per batch, 1 and 2 of these rows moved)
        cfg = ScanConfig(n, q, mode="random", sample_count=600, seed=1, measures=measures)
        texts = set()
        for chunk in (1, 7, 64, 4096):
            emit_scatter(cfg, tmp_path / str(chunk), chunk=chunk)
            texts.add((tmp_path / str(chunk) / "scatter.csv").read_bytes())
        assert len(texts) == 1

    @pytest.mark.parametrize("mode", ["random", "grid"])
    def test_batches_stay_under_table_limit(self, tmp_path, monkeypatch, mode):
        cfg = ScanConfig(4, 2, mode=mode, sample_count=30, resolution=2, seed=8,
                         measures=("c1", "d1", "c3"))
        emit_scatter(cfg, tmp_path / "whole")
        calls = spy_columns(monkeypatch)
        monkeypatch.setattr(dist, "TABLE_LIMIT", 64)  # 4 rows of 2^4 cells
        emit_scatter(cfg, tmp_path / "capped")
        assert calls and all(len(out) <= 4 for _, out in calls)

        def columns(name):
            lines = (tmp_path / name / "scatter.csv").read_text().splitlines()
            return np.array([[float(v) for v in line.split(",")]
                             for line in lines if not line.startswith(("#", "index"))])

        whole, capped = columns("whole"), columns("capped")
        assert whole.shape == capped.shape
        assert np.abs(whole[:, [0, 1, 3]] - capped[:, [0, 1, 3]]).max() <= 1e-12
