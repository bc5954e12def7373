"""The benchmark's four workloads.

Each workload function runs during set-up: it generates every input from
the seed, writes the distribution files, and returns a list of input
sets, each a list of ops. An op calls the library through module attributes, looked
up at call time so that the traced run's wrappers apply, and carries the
check that its output is correct. Checks compare against `reference`,
never against the library.

A pass runs one input set. Workloads whose cost depends on the sampled
inputs (the scan's slowest row per IPF batch, the hill climb's path) get
several input sets, so a run averages over them; the others have one.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

BOUND_TOL = 1e-6


@dataclass
class Op:
    """One closed-loop operation: `units` ops of the workload's unit."""

    name: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is correct


def _cli(cli, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    return run


def _json_output(result):
    code, out = result
    if code != 0:
        raise AssertionError(f"exit code {code}")
    return json.loads(out)


def _close(got, want, tol) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= tol for g, w in zip(got, want))


def write_csv(path: Path, outcomes, masses, q: int) -> None:
    """Distribution file in the library's CSV format."""
    n = len(outcomes[0])
    lines = [f"# q={q}", ",".join([f"x{i}" for i in range(n)] + ["p"])]
    for o, m in zip(outcomes, masses):
        lines.append(",".join(str(int(s)) for s in o) + f",{float(m)!r}")
    path.write_text("\n".join(lines) + "\n")


def dense_outcomes(n: int, q: int) -> np.ndarray:
    """All q^n outcomes in row-major order, first variable most significant."""
    return np.array(list(np.ndindex(*(q,) * n)), dtype=np.int64)


# ---------------------------------------------------------------------------
# rs_certify: scalar GF arithmetic inside gf.matrix_rank
# ---------------------------------------------------------------------------

def rs_certify(lib, rng, workdir: Path, tiny: bool):
    gf, codes, matroid, cli = lib["gf"], lib["codes"], lib["matroid"], lib["cli"]
    field = {q: gf.make_field(*gf.is_prime_power(q)) for q in (2, 3, 7, 8, 9, 11, 13)}
    if tiny:
        kci = [(7, k) for k in range(1, 7)]
        threeway = [(7, k) for k in range(1, 4)]
        maximizers = [(6, 2)]
    else:
        # q=13 keeps the small and large subset sizes; k=6..9 (3.9 s) and
        # q=16 (39 s) would not fit a pass that repeats within the run.
        kci = [(q, k) for q in (7, 8, 9, 11) for k in range(1, q)]
        kci += [(13, k) for k in (1, 2, 3, 4, 5, 10, 11, 12)]
        threeway = [(q, k) for q in (7, 8) for k in range(1, q)] + [(9, k) for k in range(1, 6)]
        # (10, 3) takes 1.2 s alone; (6, 5) never finishes in the unbounded DFS.
        maximizers = [(6, 2), (6, 3), (6, 4), (10, 2), (12, 2)]

    ops = []
    for q, k in kci:
        def run(f=field[q], k=k):
            return codes.k_column_independence(codes.rs_generator(f, k))

        # Every k-subset of columns at rank k makes the certificate
        # sum_A H(A) - C(q-1,k-1) H(X) equal k*C(q-1,k), the ceiling.
        ops.append(Op(f"kci q={q} k={k}", 1, run,
                      lambda ok: None if ok is True else "some k columns dependent"))

    for q, k in threeway:
        def run(f=field[q], k=k):
            code = codes.rs_generator(f, k)
            view = matroid.matroid_from_ranks(matroid.code_rank_report(code), verify=True)
            return view.independents, matroid.vector_matroid(f, code.generator).independents

        def check(result, q=q, k=k):
            uniform = frozenset(m for m in range(1 << q) if m.bit_count() <= k)
            entropy_view, vector_view = result
            if entropy_view != uniform:
                return "entropy matroid is not U_{k,q}"
            return None if vector_view == uniform else "vector matroid disagrees"

        ops.append(Op(f"matroids q={q} k={k}", 1, run, check))

    for q, expected in ((2, False), (3, True)):
        ops.append(Op(f"U24 GF({q})", 1,
                      lambda f=field[q]: matroid.uniform_representable_over(2, 4, f),
                      lambda got, e=expected: None if got is e else f"expected {e}"))

    for n, k in maximizers:
        def check(result, n=n, k=k):
            dist, cert = result
            bound = k * comb(n - 1, k)
            if not (cert["meets_bound"] and cert["matroid_uniform"]):
                return "certificate does not meet the bound or is not uniform"
            outcomes, masses = ref.atoms_arrays(dist.atoms)
            value = ref.cohesion_k_sparse(outcomes, masses, cert["q"], k, cert["q"])
            if abs(cert["cohesion"] - bound) > 1e-9 or abs(value - bound) > 1e-9:
                return f"cohesion {cert['cohesion']} / reference {value} != {bound}"
            return None

        ops.append(Op(f"maximizer {n} {k}", 1,
                      lambda n=n, k=k: cli.run_maximizer(n, k), check))

    order = rng.permutation(len(ops))
    return [[ops[i] for i in order]]


# ---------------------------------------------------------------------------
# divergence_scan: batch IPF sweeps inside emit_scatter
# ---------------------------------------------------------------------------

# Scans of 64-point IPF batches: the batch sweeps until its slowest row
# converges, and the slowest of a larger batch varies so much by seed
# that run-to-run spread would exceed the bound. d3 at n=4 q=2 is left
# out for the same reason: one row in a few thousand needs thousands of
# sweeps.
SCANS = ((4, 2, ("c1", "c2", "c3", "d1", "d2")), (3, 3, ("c1", "c2", "d1", "d2")))
SCAN_CHUNK = 64


def _read_scatter(path: Path, measures):
    rows = []
    with path.open() as fh:
        header = None
        for line in fh:
            if line.startswith("#"):
                continue
            if header is None:
                header = line.strip().split(",")
                if header != ["index", *measures]:
                    raise AssertionError(f"unexpected header {header}")
                continue
            rows.append([float(c) for c in line.split(",")])
    return np.array(rows).reshape(-1, len(measures) + 1)


def check_scatter(table: np.ndarray, n: int, q: int, measures, seed: int, points: int,
                  samples: int) -> str | None:
    """Row count, finiteness, the bounds, and a reference recomputation
    of the scan's rows from its seed."""
    if table.shape[0] != points or not np.array_equal(table[:, 0], np.arange(points)):
        return f"{table.shape[0]} rows for {points} points"
    if not np.isfinite(table).all():
        return "non-finite value"
    col = {m: table[:, i + 1] for i, m in enumerate(measures)}
    for k in range(1, n):
        c = col.get(f"c{k}")
        if c is None:
            continue
        if (c > k * comb(n - 1, k) + BOUND_TOL).any():
            return f"c{k} above its constant bound"
        if f"c{k + 1}" in col and ((n - k) * c < k * col[f"c{k + 1}"] - BOUND_TOL).any():
            return f"adjacent-order bound c{k}/c{k + 1} violated"
        d = col.get(f"d{k}")
        if d is not None and ((d > c / comb(n - 1, k - 1) + BOUND_TOL) | (d < -BOUND_TOL)).any():
            return f"d{k} outside [0, c{k}/C({n - 1},{k - 1})]"
    if n == 4 and {"c1", "c2", "c3"} <= col.keys():
        c1, c2, c3 = col["c1"], col["c2"], col["c3"]
        if ((c1 + c3 > 4 + BOUND_TOL) | (c2 + 3 * c1 > 12 + BOUND_TOL)
                | (c2 + 3 * c3 > 12 + BOUND_TOL)).any():
            return "n=4 inequality violated"

    P = np.random.default_rng(seed).dirichlet(np.ones(q**n), size=points)
    orders = [int(m[1:]) for m in measures if m[0] == "c"]
    want = ref.cohesion_dense(P, n, q, orders, float(q))
    got = np.stack([col[f"c{k}"] for k in orders], axis=1)
    if np.abs(got - want).max() > 1e-8:
        return "cohesion columns disagree with the reference"
    for row in np.random.default_rng(seed).choice(points, size=samples, replace=False):
        cube = P[row].reshape((q,) * n)
        for m in measures:
            if m[0] == "d":
                value = ref.divergence(cube, ref.ipf_single(cube, int(m[1:])), float(q))
                if abs(value - col[m][row]) > 1e-6:
                    return f"row {row} {m}={col[m][row]} but reference gives {value}"
    return None


def divergence_scan(lib, rng, workdir: Path, tiny: bool):
    explore = lib["explore"]
    input_sets = 2 if tiny else 12
    points = 128 if tiny else 4096
    out = []
    for i in range(input_sets):
        ops = []
        for n, q, measures in SCANS:
            seed = int(rng.integers(2**31))
            outdir = workdir / f"scan{i}_n{n}q{q}"

            def run(n=n, q=q, measures=measures, seed=seed, outdir=outdir):
                cfg = explore.ScanConfig(n, q, mode="random", sample_count=points, seed=seed,
                                         measures=measures)
                return explore.emit_scatter(cfg, outdir, chunk=SCAN_CHUNK)

            def check(summary, n=n, q=q, measures=measures, seed=seed, outdir=outdir):
                if summary["points"] != points:
                    return f"summary reports {summary['points']} points"
                table = _read_scatter(outdir / "scatter.csv", measures)
                return check_scatter(table, n, q, measures, seed, points, samples=4)

            ops.append(Op(f"scan n={n} q={q} {','.join(measures)}", points, run, check))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# local_search: single-vector objective calls inside hill_climb
# ---------------------------------------------------------------------------

def _search_check(n: int, q: int, measure: str, base: float, target: float | None = None):
    def check(result):
        outcomes, masses = ref.atoms_arrays(result.distribution.atoms)
        vec = np.zeros(q**n)
        vec[outcomes @ (q ** np.arange(n - 1, -1, -1))] = masses
        k = int(measure[1:])
        if measure[0] == "c":
            value = float(ref.cohesion_dense(vec[np.newaxis], n, q, [k], base)[0, 0])
        else:
            cube = vec.reshape((q,) * n)
            value = ref.divergence(cube, ref.ipf_single(cube, k), base)
        if abs(value - result.value) > 1e-8:
            return f"returned {measure}={result.value} but recomputation gives {value}"
        if target is not None and abs(result.value - target) > 1e-6:
            return f"reached {result.value}, not the peak {target}"
        return None
    return check


def local_search(lib, rng, workdir: Path, tiny: bool):
    explore = lib["explore"]
    # Warm starts for the 5-bit c2 peak at n=4 q=2: the top three points
    # of the acceptance suite's Dirichlet pre-scan, seed 0. From the top
    # three of other pre-scans the climb can stop at a 4.75-bit local
    # maximum (seeds 203, 218 and 235 of 200..239 do).
    P = np.random.default_rng(0).dirichlet(np.ones(16), size=100_000)
    scan = ref.cohesion_dense(P, 4, 2, [2], 2.0)[:, 0]
    warm = [P[i] for i in np.argsort(scan)[-3:]]

    def search(n, q, measure, starts, base=None, delta_min=explore.DELTA_MIN):
        def run():
            cfg = explore.ScanConfig(n, q, mode="search", measures=(measure,))
            return explore.local_search_max(cfg, measure, restarts=len(starts),
                                            warm_starts=starts, base=base, delta_min=delta_min)
        return run

    peak = Op("c2 n=4 q=2 warm starts", 3, search(4, 2, "c2", warm, base=2.0),
              _search_check(4, 2, "c2", 2.0, target=5.0))
    # (n, q, measure, restarts, delta_min); a d2 restart at n=4 q=2 takes
    # 6-10 s with a seed spread near 30%, so single-row IPF is covered by d1.
    if tiny:
        cases = [(3, 3, "c2", 1, 2.0**-4), (4, 3, "c2", 1, 2.0**-3), (4, 2, "d1", 1, 2.0**-4)]
    else:
        cases = [(3, 3, "c2", 4, explore.DELTA_MIN), (4, 3, "c2", 1, 2.0**-8),
                 (4, 2, "d1", 2, explore.DELTA_MIN)]
    out = []
    for _ in range(1 if tiny else 6):
        ops = [peak]
        for n, q, measure, restarts, delta_min in cases:
            for start in rng.dirichlet(np.ones(q**n), size=restarts):
                ops.append(Op(f"{measure} n={n} q={q}", 1,
                              search(n, q, measure, [start], delta_min=delta_min),
                              _search_check(n, q, measure, float(q))))
        out.append(ops)
    return out


# ---------------------------------------------------------------------------
# profile: subset entropies behind the CLI reports, plus CSV/JSON output
# ---------------------------------------------------------------------------

def profile(lib, rng, workdir: Path, tiny: bool):
    gf, codes, explore, cli = lib["gf"], lib["codes"], lib["explore"], lib["cli"]
    rs_files = [(7, 2)] if tiny else [(7, 3), (8, 3), (9, 3)]
    dense_files = [(5, 2), (4, 3)] if tiny else [(9, 2), (6, 3)]
    maxent_files = [(3, 2)] if tiny else [(3, 2), (4, 2), (5, 3)]
    maximizer = (4, 2) if tiny else (9, 3)
    batch_n, batch_rows, scatter_points = (6, 20, 2000) if tiny else (9, 200, 20_000)

    ops = []
    for q, k in rs_files:
        code = codes.rs_generator(gf.make_field(*gf.is_prime_power(q)), k)
        path = workdir / f"rs_q{q}_k{k}.csv"
        write_csv(path, codes.enumerate_codewords(code), [q**-k] * q**k, q)
        want = [ref.rs_cohesion(q, k, j) for j in range(1, q)]
        ops.append(Op(f"cohesion rs q={q} k={k}", 1, _cli(cli, ["cohesion", str(path), "--json"]),
                      lambda r, want=want: None if _close(_json_output(r)["values"], want, 1e-9)
                      else "profile values differ from the closed form"))

        def matroid_check(result, q=q, k=k):
            payload = _json_output(result)
            independents = sum(comb(q, j) for j in range(k + 1))
            if payload["uniform_k"] != k or not payload["integer_valued"]:
                return f"uniform_k={payload['uniform_k']}, expected {k}"
            if len(payload["independents"]) != independents:
                return f"{len(payload['independents'])} independent sets, expected {independents}"
            return None

        ops.append(Op(f"matroid rs q={q} k={k}", 1,
                      _cli(cli, ["matroid", "from-dist", str(path), "--json"]), matroid_check))

    def dense_file(n, q):
        path = workdir / f"dense_n{n}_q{q}.csv"
        masses = rng.dirichlet(np.ones(q**n))
        outcomes = dense_outcomes(n, q)
        write_csv(path, outcomes, masses, q)
        return path, outcomes, masses

    for n, q in dense_files:
        path, outcomes, masses = dense_file(n, q)

        def check(result, n=n, q=q, outcomes=outcomes, masses=masses):
            want = ref.cohesion_from_table(
                ref.subset_entropies_sparse(outcomes, masses, q, float(q)), n)
            got = _json_output(result)["values"]
            return None if _close(got, want, 1e-9) else "profile values differ from the reference"

        ops.append(Op(f"cohesion dense n={n} q={q}", 1,
                      _cli(cli, ["cohesion", str(path), "--json"]), check))

    for n, q in maxent_files:
        path, outcomes, masses = dense_file(n, q)

        def check(result, n=n, q=q, masses=masses):
            payload = _json_output(result)
            cube = masses.reshape((q,) * n)
            want = ref.divergence(cube, ref.ipf_single(cube, 2), float(q))
            bound = float(ref.cohesion_dense(masses[np.newaxis], n, q, [2], float(q))[0, 0]) / (n - 1)
            if not payload["converged"] or abs(payload["divergence"] - want) > 1e-6:
                return f"divergence {payload['divergence']} but reference gives {want}"
            if abs(payload["eq4_rhs"] - bound) > 1e-9 or payload["eq4_lhs"] > bound + BOUND_TOL:
                return "divergence bound not met"
            return None

        ops.append(Op(f"maxent n={n} q={q}", 1,
                      _cli(cli, ["maxent", str(path), "--k", "2", "--json"]), check))

    def maximizer_check(result, n=maximizer[0], k=maximizer[1]):
        payload = _json_output(result)
        cert = payload["certificate"]
        outcomes, masses = ref.atoms_arrays(payload["distribution"]["atoms"])
        value = ref.cohesion_k_sparse(outcomes, masses, cert["q"], k, cert["q"])
        if not (cert["meets_bound"] and cert["matroid_uniform"]):
            return "certificate does not meet the bound or is not uniform"
        return None if abs(value - k * comb(n - 1, k)) <= 1e-9 else f"reference cohesion {value}"

    ops.append(Op(f"maximizer {maximizer[0]} {maximizer[1]}", 1,
                  _cli(cli, ["maximizer", *map(str, maximizer), "--json"]), maximizer_check))

    batch = rng.dirichlet(np.ones(2**batch_n), size=batch_rows)
    batch_want = []  # computed by the first check, outside set-up

    def batch_check(got):
        if not batch_want:
            batch_want.append(ref.cohesion_dense(batch, batch_n, 2, range(1, batch_n), 2.0))
        return (None if np.abs(got - batch_want[0]).max() <= 1e-9
                else "batch cohesion differs from the reference")

    ops.append(Op(f"batch_cohesion_all n={batch_n}", 1,
                  lambda: explore.batch_cohesion_all(batch, batch_n, 2), batch_check))

    seed = int(rng.integers(2**31))
    outdir = workdir / "scatter"
    measures = ("c1", "c2", "c3")

    def scatter():
        cfg = explore.ScanConfig(4, 2, mode="random", sample_count=scatter_points, seed=seed,
                                 measures=measures)
        return explore.emit_scatter(cfg, outdir)

    ops.append(Op(f"scatter c1,c2,c3 {scatter_points}", 1, scatter,
                  lambda summary: check_scatter(_read_scatter(outdir / "scatter.csv", measures),
                                                4, 2, measures, seed, scatter_points, samples=0)))
    return [ops]


WORKLOADS = {
    "rs_certify": rs_certify,
    "divergence_scan": divergence_scan,
    "local_search": local_search,
    "profile": profile,
}
# layers (or single spans) that should carry most of each workload's self time
NAMED_LAYERS = {
    "rs_certify": ("gf", "codes", "matroid"),
    "divergence_scan": ("maxent",),
    "local_search": ("explore.objective", "explore.hill_climb"),
    "profile": ("dist", "cohesion", "cli", "explore.batch_subset_entropies"),
}
