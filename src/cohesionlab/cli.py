"""Command-line entry point binding every module.

Exit codes: 0 success, 1 domain error (one-line machine-parsable
message on stderr), 2 usage error (argparse). Every randomized
subcommand takes an explicit seed with a logged default; `--json`
switches any subcommand to machine-readable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import count

from . import __version__
from .cohesion import (
    check_polymatroid_bounds,
    check_quad_inequalities,
    cohesion_profile,
    constant_bound,
    profile_report,
)
from .codes import LinearCode, _k_subset_ranks, code_to_distribution, generator_json, rs_generator
from .dist import load, to_csv, to_json_dict
from .errors import FieldError, ToolError
from .explore import DEFAULT_SAMPLES, ScanConfig, emit_scatter, grid_count, local_search_max
from .gf import MAX_ORDER, emit_tables, field_json, is_prime_power, make_field
from .matroid import (
    entropy_rank_report,
    find_uniform_representation,
    is_isomorphic_uniform,
    matroid_from_ranks,
    matroid_json,
    uniform_representable_over,
)
from .maxent import DEFAULT_MAX_SWEEPS, DEFAULT_TOL, projection_json

LARGE_GRID_WARN = 10**6


def _emit(payload: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_cohesion(args) -> int:
    p = load(args.file)
    prof = cohesion_profile(p)
    bits = math.log(p.q) / math.log(2.0)
    lines = [f"n={p.n} q={p.q} atoms={p.support_size}"]
    for k in range(1, p.n):
        v = prof.value(k)
        bd = constant_bound(p.n, k)
        lines.append(
            f"C{k} = {v:.9g} (base {p.q}) = {v * bits:.9g} bits"
            f"   bound {bd:g} (base {p.q}) = {bd * bits:g} bits"
        )
    quad = check_quad_inequalities(prof) if p.n == 4 else []
    for chk in check_polymatroid_bounds(prof) + quad:
        lines.append(f"{chk.name}: slack {chk.slack:.3g} {'ok' if chk.satisfied else 'VIOLATED'}")
    _emit(profile_report(prof, args.base), args.json, lines)
    return 0


def cmd_maxent(args) -> int:
    p = load(args.file)
    report = projection_json(p, args.k, args.tol, args.max_sweeps)
    lines = [
        f"D(p||p^({args.k})) = {report['divergence']:.9g} (base {p.q})"
        f" = {report['divergence_bits']:.9g} bits",
        f"iterations={report['iterations']} residual={report['residual']:.3g}"
        f" converged={report['converged']}",
        f"eq4: {report['eq4_lhs']:.9g} <= {report['eq4_rhs']:.9g}",
    ]
    _emit(report, args.json, lines)
    return 0


def cmd_field_show(args) -> int:
    f = make_field(args.p, args.m)
    _emit(field_json(f), args.json, [emit_tables(f)])
    return 0


def cmd_code_rs(args) -> int:
    f = make_field(args.p, args.m)
    code = rs_generator(f, args.k)
    payload = generator_json(code)
    lines = [f"RS code over GF({f.order}), k={code.k}, n={code.n}"]
    for row in code.generator:
        lines.append(" ".join(str(v) for v in row))
    prm = payload["params"]
    lines.append(f"d={prm['d']}  singleton n-k+1={code.n - code.k + 1}  mds={prm['is_mds']}")
    if args.emit:
        to_csv(code_to_distribution(code), args.emit)
        lines.append(f"distribution written to {args.emit}")
        payload["emitted"] = args.emit
    _emit(payload, args.json, lines)
    return 0


def cmd_matroid_from_dist(args) -> int:
    p = load(args.file)
    report = entropy_rank_report(p)
    view = matroid_from_ranks(report)
    payload = matroid_json(view)
    payload["integer_valued"] = report.integer_valued
    payload["max_deviation"] = report.max_deviation
    rank = view.ranks[-1]  # U_{k,n} has r(E) = k, so only k = r(E) can match
    uniform_k = rank if is_isomorphic_uniform(view, rank) else None
    payload["uniform_k"] = uniform_k
    lines = [
        f"ground size {view.ground_size}, {len(view.independents)} independent sets",
        f"uniform: {'U_{%d,%d}' % (uniform_k, p.n) if uniform_k is not None else 'no'}",
    ]
    _emit(payload, args.json, lines)
    return 0


def cmd_matroid_uniform_rep(args) -> int:
    f = make_field(args.p, args.m)
    result = uniform_representable_over(args.k, args.n, f)
    payload = {"k": args.k, "n": args.n, "q": f.order, "representable": result}
    _emit(payload, args.json,
          [f"U_{{{args.k},{args.n}}} over GF({f.order}): "
           f"{'representable' if result else 'not representable'}"])
    return 0


def cmd_scan(args) -> int:
    measures = tuple(m.strip() for m in args.measures.split(",") if m.strip())
    if args.mode == "search":
        # a search scores one measure: validate it alone, not all of --measures
        measures = (args.objective,) if args.objective else measures[:1]
        if not measures:
            raise ToolError("search mode needs --objective")
    cfg = ScanConfig(
        n=args.n,
        q=args.q,
        mode=args.mode,
        resolution=args.resolution,
        sample_count=args.samples,
        seed=args.seed,
        measures=measures,
    )
    if args.mode == "grid":
        points = grid_count(cfg.resolution, cfg.dims)
        if points > LARGE_GRID_WARN and not args.allow_large:
            raise ToolError(
                f"grid scan has {points} points; rerun with --allow-large to proceed"
            )
    if args.mode == "search":
        result = local_search_max(cfg, restarts=args.restarts)
        payload = {
            "mode": "search",
            "objective": result.measure,
            "value": result.value,
            "restarts": result.restarts,
            "evaluations": result.evaluations,
            "ipf_unconverged": result.ipf_unconverged,
            "seed": result.seed,
            "threads": 1,
            "distribution": to_json_dict(result.distribution),
        }
        lines = [
            f"best {result.measure} = {result.value:.9g} (base {cfg.q})"
            f" over {result.restarts} restarts (seed {result.seed})",
        ]
        if result.ipf_unconverged:
            lines.append(f"warning: {result.ipf_unconverged} IPF batches did not converge")
        if args.out:
            from pathlib import Path

            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "search_result.json").write_text(json.dumps(payload, indent=2) + "\n")
            to_csv(result.distribution, out / "search_best.csv")
            lines.append(f"results written to {out}")
        _emit(payload, args.json, lines)
        return 0
    if not args.out:
        raise ToolError("grid/random scans require --out DIR")
    summary = emit_scatter(cfg, args.out)
    summary["threads"] = 1
    lines = [f"scanned {summary['points']} points -> {summary['out']}",
             *(f"max {m} = {v:.9g}" for m, v in summary["maxima"].items())]
    if summary["ipf_unconverged"]:
        lines.append(f"warning: {summary['ipf_unconverged']} IPF batches did not converge")
    _emit(summary, args.json, lines)
    return 0


def run_maximizer(n: int, k: int):
    """Globally maximizing distribution for Cohesion-k over n variables,
    plus a self-verifying certificate.

    The code is Reed-Solomon over GF(q) for the smallest prime power
    q >= n: the classical code when n is a prime power, otherwise its
    first n columns (a shortened RS code), so no search runs.
    """
    bound = constant_bound(n, k)
    if n > MAX_ORDER:  # every q >= n is refused, so search for none
        raise FieldError(f"field order {n} or more exceeds {MAX_ORDER}")
    field = make_field(*next(pm for pm in map(is_prime_power, count(n)) if pm))
    code = LinearCode.from_rows(field, find_uniform_representation(k, n, field))
    q = code.q
    dist = code_to_distribution(code)
    ranks = _k_subset_ranks(code)
    value = float(int(ranks.sum()) - math.comb(n - 1, k - 1) * k)  # H(X_S) = rank(G_S), base q
    bits = math.log(q) / math.log(2.0)
    certificate = {
        "n": n,
        "k": k,
        "q": q,
        "cohesion": value,
        "cohesion_bits": value * bits,
        "constant_bound": bound,
        "constant_bound_bits": bound * bits,
        "meets_bound": value == bound,
        # for a rank-k code, every k columns independent <=> U_{k,n}
        "matroid_uniform": bool((ranks == k).all()),
        "generator": [list(row) for row in code.generator],
    }
    return dist, certificate


def cmd_maximizer(args) -> int:
    dist, cert = run_maximizer(args.n, args.k)
    payload = {"certificate": cert, "distribution": to_json_dict(dist)}
    lines = [
        f"maximizer for Cohesion-{args.k}, n={args.n}: q={cert['q']},"
        f" {dist.support_size} atoms",
        f"value {cert['cohesion']:.9g} (base {cert['q']})"
        f" = {cert['cohesion_bits']:.9g} bits;"
        f" bound {cert['constant_bound']:g} -> meets_bound={cert['meets_bound']}",
        f"entropy matroid uniform U_{{{args.k},{args.n}}}: {cert['matroid_uniform']}",
    ]
    if args.emit:
        to_csv(dist, args.emit)
        lines.append(f"distribution written to {args.emit}")
        payload["emitted"] = args.emit
    _emit(payload, args.json, lines)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. Each subcommand stores its
    handler's name, which `main` looks up at call time, so a handler
    rebound on the module (a wrapper, a test patch) is the one called."""
    parser = argparse.ArgumentParser(
        prog="cohesionlab",
        description="Higher-order dependence analysis for discrete distributions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("cohesion", help="Cohesion profile and bound checks for a distribution file")
    p.add_argument("file")
    p.add_argument("--base", type=float, default=None, help="log base for the JSON report (default q)")
    add_json(p)
    p.set_defaults(func="cmd_cohesion")

    p = sub.add_parser("maxent", help="max-entropy projection and divergence bound")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-sweeps", type=int, default=DEFAULT_MAX_SWEEPS)
    add_json(p)
    p.set_defaults(func="cmd_maxent")

    p = sub.add_parser("field", help="finite-field inspection")
    fsub = p.add_subparsers(dest="field_command", required=True)
    ps = fsub.add_parser("show", help="print GF(p^m) addition/multiplication tables")
    ps.add_argument("p", type=int)
    ps.add_argument("m", type=int)
    add_json(ps)
    ps.set_defaults(func="cmd_field_show")

    p = sub.add_parser("code", help="linear-code construction")
    csub = p.add_subparsers(dest="code_command", required=True)
    pc = csub.add_parser("rs", help="Reed-Solomon generator over GF(p^m)")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--emit", help="write the code distribution as CSV")
    add_json(pc)
    pc.set_defaults(func="cmd_code_rs")

    p = sub.add_parser("matroid", help="matroid extraction and probes")
    msub = p.add_subparsers(dest="matroid_command", required=True)
    pm = msub.add_parser("from-dist", help="entropy matroid of a distribution file")
    pm.add_argument("file")
    add_json(pm)
    pm.set_defaults(func="cmd_matroid_from_dist")
    pu = msub.add_parser("uniform-rep", help="is U_{k,n} representable over GF(p^m)?")
    pu.add_argument("--k", type=int, required=True)
    pu.add_argument("--n", type=int, required=True)
    pu.add_argument("--p", type=int, required=True)
    pu.add_argument("--m", type=int, required=True)
    add_json(pu)
    pu.set_defaults(func="cmd_matroid_uniform_rep")

    p = sub.add_parser("scan", help="simplex scans and local search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=["grid", "random", "search"], default="random")
    p.add_argument("--resolution", type=int, default=6)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measures", default="c1,c2,c3")
    p.add_argument("--objective", default=None, help="measure id for search mode")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--out", default=None)
    p.add_argument("--allow-large", action="store_true",
                   help=f"permit grid scans above {LARGE_GRID_WARN:,} points")
    add_json(p)
    p.set_defaults(func="cmd_scan")

    p = sub.add_parser("maximizer", help="globally maximizing distribution with certificate")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--emit", help="write the distribution as CSV")
    add_json(p)
    p.set_defaults(func="cmd_maximizer")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except (ToolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
