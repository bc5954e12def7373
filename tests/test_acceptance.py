"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (bypassing capture) so the
criterion outcomes are readable straight from the pytest log. Budgeted
criteria also report their wall-clock time.
"""

import math
import time
from math import comb

import numpy as np
import pytest

from cohesionlab.cli import main, run_maximizer
from cohesionlab.codes import (
    LinearCode,
    code_to_distribution,
    enumerate_codewords,
    min_distance,
    rs_generator,
)
from cohesionlab.cohesion import cohesion_k, cohesion_profile, constant_bound
from cohesionlab.dist import JointDistribution, to_dense
from cohesionlab.explore import (
    ScanConfig,
    batch_cohesion_all,
    emit_scatter,
    local_search_max,
    make_objective,
    sample_matrix,
)
from cohesionlab.gf import (
    add_table,
    column_subset_ranks,
    is_prime_power,
    make_field,
    mul_table,
)
from cohesionlab.matroid import (
    code_rank_report,
    entropy_rank_report,
    is_isomorphic_uniform,
    matroid_from_ranks,
    uniform_representable_over,
    vector_matroid,
)
from cohesionlab.maxent import (
    batch_divergence,
    check_eq4_bound,
    ipf_project_batch,
    maxent_projection,
)
from conftest import RS4_ATOMS

GF4_ADD = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]
GF4_MUL = [
    [0, 0, 0, 0],
    [0, 1, 2, 3],
    [0, 2, 3, 1],
    [0, 3, 1, 2],
]

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def report(capsys, number, ok, detail):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_quaternary_maximizer(capsys):
    start = time.perf_counter()
    dist, cert = run_maximizer(4, 2)
    elapsed = time.perf_counter() - start
    atoms_ok = set(dist.atoms) == set(RS4_ATOMS)
    value_ok = (
        abs(cert["cohesion"] - 6.0) <= 1e-9
        and abs(cert["cohesion_bits"] - 12.0) <= 1e-9
        and abs(cert["cohesion"] - constant_bound(4, 2)) <= 1e-9
    )
    ok = atoms_ok and value_ok and cert["meets_bound"] and elapsed < 1.0
    report(
        capsys, 1, ok,
        f"maximizer 4 2: {len(dist.atoms)} atoms, C2={cert['cohesion']:.9f} "
        f"base-4 ({cert['cohesion_bits']:.9f} bits), {elapsed:.3f}s",
    )


def test_criterion_02_binary_peak_and_gap(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    P = sample_matrix(rng, 100_000, 16)
    scan_vals = make_objective(4, 2, "c2", 2.0)(P)
    warm = [P[i] for i in np.argsort(scan_vals)[-3:]]
    cfg = ScanConfig(4, 2, mode="search", seed=0, measures=("c2",))
    result = local_search_max(cfg, "c2", restarts=3, warm_starts=warm, base=2.0)
    elapsed = time.perf_counter() - start
    peak_ok = abs(result.value - 5.0) <= 1e-6
    gap_ok = result.value < constant_bound(4, 2) - 0.5  # 5 bits strictly below 6
    ok = peak_ok and gap_ok and elapsed < 120.0
    report(
        capsys, 2, ok,
        f"scan max {scan_vals.max():.4f} bits, search max {result.value:.9f} "
        f"bits < bound 6, {elapsed:.1f}s",
    )


def test_criterion_03_tc_dtc_maxima(capsys):
    gf2 = make_field(2, 1)
    repetition = code_to_distribution(LinearCode.from_rows(gf2, [(1, 1, 1, 1)]))
    parity = code_to_distribution(
        LinearCode.from_rows(gf2, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
    )
    tc = cohesion_k(repetition, 1, 2.0)
    dtc = cohesion_k(parity, 3, 2.0)
    ok = abs(tc - 3.0) <= 1e-9 and abs(dtc - 3.0) <= 1e-9
    report(capsys, 3, ok, f"repetition C1={tc:.9f} bits, parity C3={dtc:.9f} bits")


def test_criterion_04_gf4_tables(capsys):
    assert main(["field", "show", "2", "2"]) == 0
    text = capsys.readouterr().out
    f = make_field(2, 2)
    tables_ok = add_table(f) == GF4_ADD and mul_table(f) == GF4_MUL
    emitted_ok = "z^2+z+1" in text and all(
        " ".join(str(v) for v in row) in text for row in GF4_ADD + GF4_MUL
    )
    ok = tables_ok and emitted_ok
    report(capsys, 4, ok, "GF(4) add/mul tables match cell-for-cell")


def test_criterion_05_rs_codeword_table(capsys):
    code = rs_generator(make_field(2, 2), 2)
    words = enumerate_codewords(code)
    params = min_distance(code)
    rows_ok = words == RS4_ATOMS
    dist_ok = params.d == 3 == code.n - code.k + 1 and params.is_mds
    ok = rows_ok and dist_ok
    report(capsys, 5, ok, f"16/16 codewords match, d={params.d}=n-k+1, MDS")


def test_criterion_06_u24_representability(capsys):
    start = time.perf_counter()
    over_gf2 = uniform_representable_over(2, 4, make_field(2, 1))
    over_gf3 = uniform_representable_over(2, 4, make_field(3, 1))
    elapsed = time.perf_counter() - start
    ok = (not over_gf2) and over_gf3 and elapsed < 1.0
    report(
        capsys, 6, ok,
        f"U_{{2,4}}: GF(2) {over_gf2}, GF(3) {over_gf3}, {elapsed:.3f}s",
    )


def test_criterion_07_theorem_chain(capsys):
    # The heavy certificate is the sweep over every k-subset of generator
    # columns: if each has rank k, monotonicity and submodularity of
    # matroid rank force rank(A) = min(|A|, k) for every column subset,
    # which is exactly the U_{k,q} rank function shared by the vector
    # matroid and the entropy matroid of the code distribution. Every q
    # also gets the exhaustive rank table, checked against the rank
    # axioms; small alphabets add the vector-matroid comparison and an
    # atom-level entropy cross-check.
    start = time.perf_counter()
    failures = []
    for q in PRIME_POWERS_16:
        field = make_field(*is_prime_power(q))
        for k in range(1, q):
            code = rs_generator(field, k)
            kranks = column_subset_ranks(field, code.generator, k).tolist()
            if any(r != k for r in kranks):
                failures.append((q, k, "some k columns dependent"))
                continue
            value = sum(kranks) - comb(q - 1, k - 1) * k
            if abs(value - constant_bound(q, k)) > 1e-9:
                failures.append((q, k, "cohesion != constant bound"))
            rep = code_rank_report(code)
            view = matroid_from_ranks(rep, verify=True)
            if not is_isomorphic_uniform(view, k):
                failures.append((q, k, "entropy matroid != U_{k,q}"))
            if q <= 9:  # exhaustive three-way extraction
                vec_view = vector_matroid(field, code.generator)
                if vec_view.independents != view.independents:
                    failures.append((q, k, "vector matroid != entropy matroid"))
                if q**k <= 4096:  # atom-level entropy cross-check
                    atom_rep = entropy_rank_report(code_to_distribution(code))
                    if max(
                        abs(a - b) for a, b in zip(atom_rep.ranks, rep.ranks)
                    ) > 1e-9:
                        failures.append(
                            (q, k, "atom entropies disagree with ranks")
                        )
    elapsed = time.perf_counter() - start
    cases = sum(q - 1 for q in PRIME_POWERS_16)
    ok = not failures and elapsed < 300.0
    report(
        capsys, 7, ok,
        f"{cases - len(failures)}/{cases} (q,k) cases agree "
        f"(q<=16), {elapsed:.1f}s"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_08_bound_property_suite(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    per_combo = 2500
    total = 0
    violations = 0
    for n in (3, 4):
        for q in (2, 3):
            P = sample_matrix(rng, per_combo, q**n)
            total += per_combo
            allk = batch_cohesion_all(P, n, q)  # base-q units
            for k in range(1, n - 1):
                lhs = (n - k) * allk[:, k - 1]
                rhs = k * allk[:, k]
                violations += int((lhs < rhs - 1e-9).sum())
            for k in range(1, n):
                bound = constant_bound(n, k)
                violations += int((allk[:, k - 1] > bound + 1e-9).sum())
            if n == 4:
                c1, c2, c3 = allk[:, 0], allk[:, 1], allk[:, 2]
                violations += int((c1 + c3 > 4 + 1e-9).sum())
                violations += int((c2 + 3 * c1 > 12 + 1e-9).sum())
                violations += int((c2 + 3 * c3 > 12 + 1e-9).sum())
            cube = P.reshape((per_combo,) + (q,) * n)
            for k in range(1, n):
                proj, _, residual = ipf_project_batch(cube, k, tol=1e-10)
                divs = batch_divergence(cube, proj, float(q))
                ceilings = allk[:, k - 1] / comb(n - 1, k - 1)
                violations += int((divs > ceilings + 1e-10 + 1e-6).sum())
    elapsed = time.perf_counter() - start
    ok = violations == 0 and total == 10_000 and elapsed < 600.0
    report(
        capsys, 8, ok,
        f"{total} distributions, {violations} bound violations, {elapsed:.1f}s",
    )


def test_criterion_09_order1_projection_oracle(capsys):
    rng = np.random.default_rng(99)
    worst_div, worst_linf = 0.0, 0.0
    count = 1000
    for i in range(count):
        n, q = (3, 2) if i % 2 == 0 else (3, 3)
        vec = rng.dirichlet(np.ones(q**n))
        from cohesionlab.dist import from_dense, product_of_marginals

        p = from_dense(vec.tolist(), n, q)
        res = maxent_projection(p, 1)
        worst_div = max(worst_div, abs(res.divergence - cohesion_k(p, 1)))
        prod = np.asarray(to_dense(product_of_marginals(p)))
        got = np.asarray(to_dense(res.projection))
        worst_linf = max(worst_linf, float(np.abs(got - prod).max()))
    ok = worst_div <= 1e-8 and worst_linf <= 1e-9
    report(
        capsys, 9, ok,
        f"{count} distributions: max |D - C1| = {worst_div:.2e}, "
        f"max L-inf to product = {worst_linf:.2e}",
    )


def test_criterion_10_parity_projection(capsys, parity3):
    rep = check_eq4_bound(parity3, 2, base=2.0)
    ok = abs(rep.divergence - 1.0) <= 1e-8 and rep.converged
    report(capsys, 10, ok, f"D(p||p^(2)) = {rep.divergence:.10f} bits")


def test_criterion_11_figure_data_emission(capsys, tmp_path):
    n, q = 4, 2
    fig1 = emit_scatter(
        ScanConfig(n, q, mode="random", sample_count=2000, seed=7,
                   measures=("c1", "c2", "c3")),
        tmp_path / "fig1",
    )
    fig2 = emit_scatter(
        ScanConfig(n, q, mode="random", sample_count=2000, seed=7,
                   measures=("c2", "d2")),
        tmp_path / "fig2",
    )

    def rows(path):
        return [
            line for line in path.read_text().splitlines()
            if line and not line.startswith("#")
        ]

    eq1 = rows(tmp_path / "fig1" / "overlay_eq1.csv")
    bounds = rows(tmp_path / "fig1" / "overlay_bounds.csv")
    eq4 = rows(tmp_path / "fig2" / "overlay_eq4.csv")
    overlays_ok = (
        eq1 == ["k,slope"] + [f"{k},{(n - k) / k:.12g}" for k in range(1, n - 1)]
        and bounds == ["k,constant_bound"]
        + [f"{k},{constant_bound(n, k):.12g}" for k in range(1, n)]
        and eq4 == ["slope,intercept", "1,0"]
    )

    feasible = True
    for row in rows(tmp_path / "fig1" / "scatter.csv")[1:]:
        _, c1, c2, c3 = (float(v) for v in row.split(","))
        # (n - k) * C^(k) >= k * C^(k+1) at k = 1, 2
        feasible &= 3 * c1 >= c2 - 1e-9 and 2 * c2 >= 2 * c3 - 1e-9
        feasible &= (
            c1 <= constant_bound(n, 1) + 1e-9
            and c2 <= constant_bound(n, 2) + 1e-9
            and c3 <= constant_bound(n, 3) + 1e-9
        )
    for row in rows(tmp_path / "fig2" / "scatter.csv")[1:]:
        _, c2, d2 = (float(v) for v in row.split(","))
        feasible &= d2 <= c2 / comb(n - 1, 1) + 1e-6  # below the diagonal

    ok = overlays_ok and feasible and fig1["points"] == fig2["points"] == 2000
    report(
        capsys, 11, ok,
        f"{fig1['points']}+{fig2['points']} points emitted; overlays exact; "
        f"all points feasible",
    )
