import math
from collections import Counter

import numpy as np
import pytest

from cohesionlab import explore
from cohesionlab.cohesion import cohesion_k, cohesion_orders, constant_bound
from cohesionlab.dist import JointDistribution, to_dense
from cohesionlab.errors import ScanError
from cohesionlab.explore import (
    ScanConfig,
    batch_cohesion_all,
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
        eq1 = [l for l in (tmp_path / "overlay_eq1.csv").read_text().splitlines()
               if not l.startswith("#")]
        assert eq1 == ["k,slope", "1,3", "2,1"]
        bounds = [l for l in (tmp_path / "overlay_bounds.csv").read_text().splitlines()
                  if not l.startswith("#")]
        assert bounds == ["k,constant_bound", "1,3", "2,6", "3,3"]
        eq4 = [l for l in (tmp_path / "overlay_eq4.csv").read_text().splitlines()
               if not l.startswith("#")]
        assert eq4 == ["slope,intercept", "1,0"]

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
