"""Simplex scans and local search over discrete distributions.

Three modes: exhaustive enumeration of a discretized simplex
(compositions of a grid resolution), seeded Dirichlet(1) sampling, and
coordinate-pair mass-transfer hill climbing. Measure evaluation is
vectorized over batches of dense probability vectors so large scans
stay cheap.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from math import comb

import numpy as np

from . import dist
from .cohesion import cohesion_orders, constant_bound
from .dist import JointDistribution, _base, _check_table, from_dense, order_entropies
from .errors import ScanError
from .maxent import DEFAULT_MAX_SWEEPS, DEFAULT_TOL, batch_divergence, ipf_project_batch

GRID_POINT_LIMIT = 10**8
DEFAULT_SAMPLES = 100_000
DELTA_START = 0.125
DELTA_MIN = 2.0**-26
BATCH_CELLS = 1 << 16  # cells of one hill-climb candidate batch
IPF_TOL = 1e-9
IPF_MAX_SWEEPS = 2000


@dataclass(frozen=True)
class ScanConfig:
    n: int
    q: int
    mode: str = "random"  # grid | random | search
    resolution: int = 6
    sample_count: int = DEFAULT_SAMPLES
    seed: int = 0
    measures: tuple = ("c1", "c2", "c3")

    def __post_init__(self):
        if self.q < 2:
            raise ScanError("alphabet size must be >= 2")
        if self.resolution < 1:
            raise ScanError("resolution must be >= 1")
        if self.sample_count < 1:
            raise ScanError("sample count must be >= 1")
        if self.mode not in ("grid", "random", "search"):
            raise ScanError(f"unknown scan mode {self.mode!r}")
        _check_table(self.dims, f"dense table: {self.q}^{self.n}", ScanError)
        if not self.measures or len(set(self.measures)) < len(self.measures):
            raise ScanError(f"measures {','.join(self.measures)!r}: need at least one, no repeats")
        for m in self.measures:
            parse_measure(m, self.n)

    @property
    def dims(self) -> int:
        return self.q**self.n


def parse_measure(measure: str, n: int) -> tuple[str, int]:
    """'c2' -> ('c', 2); cohesion and divergence orders in 1..n-1."""
    kind, order = measure[:1], measure[1:]
    if kind not in ("c", "d") or not order.isdigit():
        raise ScanError(f"unknown measure id {measure!r}")
    k = int(order)
    if not 1 <= k <= n - 1:
        raise ScanError(f"measure {measure!r}: order outside 1..{n - 1}")
    return kind, k


# ---------------------------------------------------------------------------
# Point streams
# ---------------------------------------------------------------------------

def compositions(total: int, parts: int):
    """All ways of writing `total` as an ordered sum of `parts`
    nonnegative integers, first part descending."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_count(resolution: int, dims: int) -> int:
    return comb(resolution + dims - 1, dims - 1)


def grid_vectors(cfg: ScanConfig):
    """Stream of dense probability vectors on the grid, deterministic order.
    The point limit is checked on the call, before any vector is made."""
    count = grid_count(cfg.resolution, cfg.dims)
    if count > GRID_POINT_LIMIT:
        raise ScanError(
            f"grid has {count} points, above the limit {GRID_POINT_LIMIT}"
        )
    r = float(cfg.resolution)
    points = compositions(cfg.resolution, cfg.dims)
    return (np.asarray(parts, dtype=float) / r for parts in points)


def grid_enumerate(cfg: ScanConfig):
    """Stream of JointDistributions on the discretized simplex."""
    for vec in grid_vectors(cfg):
        yield from_dense(vec, cfg.n, cfg.q)


def sample_matrix(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    return rng.dirichlet(np.ones(dims), size=count)


def random_sample(cfg: ScanConfig):
    """Stream of Dirichlet(1) samples, reproducible from the seed."""
    rng = np.random.default_rng(cfg.seed)
    for row in sample_matrix(rng, cfg.sample_count, cfg.dims):
        yield from_dense(row, cfg.n, cfg.q)


# ---------------------------------------------------------------------------
# Vectorized measures over dense batches
# ---------------------------------------------------------------------------

def batch_subset_entropies(P: np.ndarray, n: int, q: int, k: int, base: float) -> np.ndarray:
    """Sum over all k-subsets of marginal entropies; P is (N, q^n). No
    library code calls it; it stays while bench/tracing.py traces it."""
    return order_entropies(P.reshape((P.shape[0],) + (q,) * n), (k,), base)[:, 0]


def batch_cohesion_all(P: np.ndarray, n: int, q: int, base: float | None = None) -> np.ndarray:
    """(N, n-1) array with column k-1 holding Cohesion-k per row."""
    return cohesion_orders(P.reshape((P.shape[0],) + (q,) * n), range(1, n), base)


def _divergences(cube: np.ndarray, k: int, base: float, tol: float, max_sweeps: int,
                 tally: Counter | None = None) -> np.ndarray:
    """D(p || p^(k)) per row of a (N, q, ..., q) batch. A batch with a row
    whose IPF stops at residual >= tol adds 1 to tally["ipf_unconverged"]."""
    proj, _, residual = ipf_project_batch(cube, k, tol, max_sweeps)
    if tally is not None and not residual < tol:
        tally["ipf_unconverged"] += 1
    return batch_divergence(cube, proj, base)


# ---------------------------------------------------------------------------
# Local search
# ---------------------------------------------------------------------------

@dataclass
class SearchResult:
    distribution: JointDistribution
    value: float
    measure: str
    restarts: int
    evaluations: int
    seed: int
    ipf_unconverged: int = 0


def make_objective(n: int, q: int, measure: str, base: float | None = None,
                   tally: Counter | None = None):
    """Measure over dense candidate rows: a (B, q^n) batch gives (B,)
    values and a 1-D vector gives one float.

    The d-branch projects each batch with IPF capped at IPF_MAX_SWEEPS;
    a batch with a row still at residual >= IPF_TOL adds 1 to
    tally["ipf_unconverged"] when a tally is given.
    """
    kind, k = parse_measure(measure, n)
    b = _base(q, base)

    def values(batch: np.ndarray) -> np.ndarray:
        cube = batch.reshape((batch.shape[0],) + (q,) * n)
        if kind == "c":
            return cohesion_orders(cube, (k,), b)[:, 0]
        return _divergences(cube, k, b, IPF_TOL, IPF_MAX_SWEEPS, tally)

    def objective(vecs: np.ndarray):
        vecs = np.asarray(vecs, dtype=float)
        out = values(np.atleast_2d(vecs))
        return float(out[0]) if vecs.ndim == 1 else out

    return objective


def hill_climb(vec: np.ndarray, objective, delta_start: float = DELTA_START,
               delta_min: float = DELTA_MIN):
    """Coordinate-pair mass transfer: move delta between atom pairs while
    it improves the objective, halving delta down to delta_min > 0.

    The neighbourhood is batched but the climb is first-improvement in
    the order of a double loop over sources i and targets j != i. For
    one source, the targets are scored as (B, dims) candidate batches of
    at most BATCH_CELLS cells; the first j that improves is taken and
    the next batch starts at j + 1 on the new vector. `evals` counts the
    candidates the double loop would score: each batch up to and
    including its accepted move, or all of it when none improves.
    """
    if not delta_min > 0.0:
        raise ScanError(f"delta_min must be > 0, got {delta_min}")
    vec = vec.astype(float).copy()
    val = objective(vec)
    dims = vec.shape[0]
    rows = max(1, BATCH_CELLS // dims)
    evals = 1
    delta = delta_start
    while delta >= delta_min:
        improved = True
        while improved:
            improved = False
            for i in range(dims):
                start = 0
                while vec[i] > 0.0:
                    targets = np.arange(start, dims)
                    targets = targets[targets != i][:rows]
                    if not targets.size:
                        break
                    step = min(delta, vec[i])
                    cand = np.repeat(vec[np.newaxis], targets.size, axis=0)
                    cand[:, i] -= step
                    cand[np.arange(targets.size), targets] += step
                    cv = objective(cand)
                    better = np.flatnonzero(cv > val + 1e-14)
                    if not better.size:
                        evals += targets.size
                        start = int(targets[-1]) + 1
                        continue
                    r = int(better[0])
                    evals += r + 1
                    vec, val = cand[r], float(cv[r])
                    improved = True
                    start = int(targets[r]) + 1
        delta /= 2.0
    return vec, val, evals


def local_search_max(
    cfg: ScanConfig,
    objective: str | None = None,
    restarts: int = 8,
    warm_starts=None,
    base: float | None = None,
    delta_start: float = DELTA_START,
    delta_min: float = DELTA_MIN,
) -> SearchResult:
    """Best distribution over hill-climbing restarts; warm starts (dense
    vectors) are climbed first, then Dirichlet restarts from the seed."""
    measure = objective or cfg.measures[0]
    tally = Counter()
    f = make_objective(cfg.n, cfg.q, measure, base, tally)
    rng = np.random.default_rng(cfg.seed)
    starts = [np.asarray(w, dtype=float) for w in (warm_starts or [])]
    need = max(restarts - len(starts), 0)
    if need:
        starts.extend(sample_matrix(rng, need, cfg.dims))
    if not starts:
        raise ScanError(f"search needs restarts >= 1 or a warm start, got restarts={restarts}")
    best_vec, best_val, total_evals = None, -math.inf, 0
    for start in starts:
        vec, val, evals = hill_climb(start, f, delta_start, delta_min)
        total_evals += evals
        if val > best_val:
            best_vec, best_val = vec, val
    best_vec = np.maximum(best_vec, 0.0)
    best_vec /= best_vec.sum()
    return SearchResult(
        from_dense(best_vec, cfg.n, cfg.q),
        best_val,
        measure,
        len(starts),
        total_evals,
        cfg.seed,
        tally["ipf_unconverged"],
    )


# ---------------------------------------------------------------------------
# Scatter emission
# ---------------------------------------------------------------------------

def _metadata_lines(cfg: ScanConfig, extra: dict | None = None) -> list[str]:
    meta = {
        "tool": "cohesionlab-scan",
        "n": cfg.n,
        "q": cfg.q,
        "mode": cfg.mode,
        "resolution": cfg.resolution,
        "samples": cfg.sample_count,
        "seed": cfg.seed,
        "measures": ",".join(cfg.measures),
        "units": "base-q",
    }
    if extra:
        meta.update(extra)
    return [f"# {k}={v}" for k, v in meta.items()]


def emit_scatter(cfg: ScanConfig, out_dir, chunk: int = 4096) -> dict:
    """Write scatter + overlay CSVs for a scan; returns a summary.

    scatter.csv holds one row per scanned point with the requested
    measures in base-q units, computed in batches of `chunk` points, and
    of fewer when `chunk` rows of q^n cells would pass dist.TABLE_LIMIT.
    Overlay files carry the bound lines: adjacent-order rays
    y = ((n-k)/k) x, the constant ceilings, and the divergence-bound
    diagonal y = x. The summary's ipf_unconverged counts the divergence
    batches with a row whose IPF hit DEFAULT_MAX_SWEEPS before reaching
    DEFAULT_TOL.
    """
    from pathlib import Path

    if chunk < 1:
        raise ScanError(f"chunk must be >= 1, got {chunk}")
    n, q = cfg.n, cfg.q
    chunk = min(chunk, max(1, dist.TABLE_LIMIT // cfg.dims))  # a batch is a table built whole
    if cfg.mode == "grid":
        vectors = grid_vectors(cfg)
        batches = map(np.array, iter(lambda: list(islice(vectors, chunk)), []))
    elif cfg.mode == "random":
        rng = np.random.default_rng(cfg.seed)
        batches = (sample_matrix(rng, min(chunk, cfg.sample_count - start), cfg.dims)
                   for start in range(0, cfg.sample_count, chunk))
    else:
        raise ScanError("emit_scatter supports grid and random modes")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    parsed = [parse_measure(m, n) for m in cfg.measures]
    c_orders = tuple(dict.fromkeys(k for kind, k in parsed if kind == "c"))
    tally = Counter()
    count = 0
    maxima = {m: -math.inf for m in cfg.measures}
    line = "%d," + ",".join(["%.12g"] * len(cfg.measures)) + "\n"  # the bytes of f"{v:.12g}"
    with (out / "scatter.csv").open("w") as fh:
        fh.write("\n".join(_metadata_lines(cfg)) + "\n")
        fh.write("index," + ",".join(cfg.measures) + "\n")
        for P in batches:
            cube = P.reshape((P.shape[0],) + (q,) * n)
            cvals = cohesion_orders(cube, c_orders, float(q)) if c_orders else None
            cols = [cvals[:, c_orders.index(k)] if kind == "c" else
                    _divergences(cube, k, float(q), DEFAULT_TOL, DEFAULT_MAX_SWEEPS, tally)
                    for kind, k in parsed]
            for m, col in zip(cfg.measures, cols):
                maxima[m] = max(maxima[m], float(col.max()))
            indices = range(count, count + P.shape[0])
            fh.write("".join(line % r for r in zip(indices, *(c.tolist() for c in cols))))
            count += P.shape[0]

    overlays = [
        ("overlay_eq1.csv", "adjacent-order rays", "k,slope",
         [f"{k},{(n - k) / k:.12g}" for k in range(1, n - 1)]),
        ("overlay_bounds.csv", "constant ceilings", "k,constant_bound",
         [f"{k},{constant_bound(n, k):.12g}" for k in range(1, n)]),
        ("overlay_eq4.csv", "divergence bound diagonal", "slope,intercept", ["1,0"]),
    ]
    for name, label, header, rows in overlays:
        lines = _metadata_lines(cfg, {"overlay": label}) + [header] + rows
        (out / name).write_text("\n".join(lines) + "\n")

    return {"points": count, "maxima": maxima,
            "ipf_unconverged": tally["ipf_unconverged"], "out": str(out)}
