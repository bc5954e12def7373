"""cohesionlab benchmark: one workload per run, in a fresh single process.

    python3 bench/run.py --workload rs_certify --seed 1 --seconds 24 --trace 0

Workloads are defined in `workloads.py` and registered in BENCHMARK.json.
Set-up imports the library from `src/`, generates every input from the
seed and writes the distribution files; it runs several times and its
median is `setup_s`. The timed phase is a closed loop with one client:
passes over the input sets run one op at a time until `--seconds` of op
time have been measured; `wall_s` is the mean pass time and `ops_per_s`
the ops of one pass over it. Each op has a wall-clock budget enforced with
SIGALRM, so no extra thread or process is started; an op that raises,
runs past its budget or fails its output check counts as failed.

With `--trace 0` the last line of output holds the end-to-end metrics.
With `--trace 1` the untraced passes are followed by two traced passes
over the first input set, each after an untraced one to compare with;
the last line holds the per-layer metrics, and count metrics that differ
between the two traced passes make the result incorrect. Spans and the
full result record are written under `.bench_out/`.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported: the benchmark is a
# single client, so one thread each.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import NAMED_LAYERS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5
MIN_PASSES = 3
OP_BUDGET_S = 30.0  # several times the slowest op of any workload
SETUP_LIMIT_S = 60.0
RUN_LIMIT_S = 150.0  # every op's budget is cut to end the run by then
LAYER_MODULES = tracing.LAYERS + ("errors",)


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op that ran past its budget. It derives
    from BaseException, like KeyboardInterrupt, so that no handler in the
    library can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_fresh() -> dict:
    """Import the library from src/ as a fresh process would."""
    for name in [n for n in sys.modules if n == "cohesionlab" or n.startswith("cohesionlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("cohesionlab")
    return {layer: importlib.import_module(f"cohesionlab.{layer}") for layer in LAYER_MODULES}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Runner:
    """Runs ops under their budgets and keeps the failure record."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []  # the first hundred
        self.check_failed = False

    def fail(self, op, label: str, reason: str, wrong_output: bool) -> None:
        self.failed += op.units
        self.check_failed |= wrong_output
        if len(self.failures) < 100:
            self.failures.append({"op": op.name, "pass": label, "reason": reason})
        if len(self.failures) <= 5:
            print(f"op failed [{label}] {op.name}: {reason}", file=sys.stderr)

    def run_op(self, op, label: str) -> tuple[float, float]:
        """(wall seconds, CPU seconds) of one op; its check runs after the
        clock stops."""
        self.attempted += op.units
        budget = min(OP_BUDGET_S, self.deadline - time.perf_counter())
        if budget <= 0:
            self.fail(op, label, "run time limit reached before the op started", False)
            return 0.0, 0.0
        result, error = None, None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, budget)
                result = op.run()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            error = (f"ran past its {budget:.1f} s budget", False)
        except Exception:
            error = (traceback.format_exc(limit=4).strip().splitlines()[-1], True)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if error is None:
            try:
                problem = op.check(result)
            except Exception:
                problem = "check raised " + traceback.format_exc(limit=4).strip().splitlines()[-1]
            if problem:
                error = (problem, True)
        if error:
            self.fail(op, label, error[0], error[1])
        return wall, cpu

    def run_pass(self, ops, label: str) -> tuple[list, float]:
        """(wall seconds of each op, CPU seconds of the pass)."""
        walls, cpu = [], 0.0
        for op in ops:
            w, c = self.run_op(op, label)
            walls.append(w)
            cpu += c
        return walls, cpu


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure in the untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "cohesionlab" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    try:
        setup_times = []
        try:
            signal.setitimer(signal.ITIMER_REAL, SETUP_LIMIT_S)
            for _ in range(SETUP_REPS):
                shutil.rmtree(workdir, ignore_errors=True)
                t0 = time.perf_counter()
                lib = import_fresh()
                workdir.mkdir(parents=True)
                input_sets = WORKLOADS[args.workload](
                    lib, np.random.default_rng(args.seed), workdir, args.tiny)
                setup_times.append(time.perf_counter() - t0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        record = measure(args, lib, input_sets, started, outdir)
    except OpTimeout:
        print(f"error: set-up ran past {SETUP_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_s"] = statistics.median(setup_times)
    record["setup_runs_s"] = setup_times
    return report(args, record, outdir)


def measure(args, lib, input_sets, started: float, outdir: Path) -> dict:
    runner = Runner(started + RUN_LIMIT_S)
    passes = []  # (input set, wall, cpu)
    op_walls = []
    measured = 0.0
    phase_start = time.perf_counter()
    while measured < args.seconds or len(passes) < MIN_PASSES:
        now = time.perf_counter()
        last = passes[-1][1] if passes else 0.0
        if passes and (now + 2 * last > runner.deadline
                       or now - phase_start > 2 * args.seconds + 10):
            break
        index = len(passes) % len(input_sets)
        walls, cpu = runner.run_pass(input_sets[index], f"pass {len(passes)}")
        passes.append((index, sum(walls), cpu))
        op_walls.append(walls)
        measured += sum(walls)
    units = sum(op.units for op in input_sets[0])
    wall = measured / len(passes)
    record = {
        "passes": len(passes),
        "units_per_pass": units,
        "pass_wall_s": [w for _, w, _ in passes],
        "op_wall_s": op_walls,
        "wall_s": wall,
        "ops_per_s": units / wall,
        "cpu_per_pass_s": statistics.median(c for _, _, c in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        record.update(traced(args, lib, input_sets[0], runner, passes, outdir))
    record.update(attempted=runner.attempted, failed=runner.failed,
                  failures=runner.failures, check_failed=runner.check_failed)
    return record


def traced(args, lib, ops, runner: Runner, passes, outdir: Path) -> dict:
    """Two traced passes over the first input set, each right after an
    untraced pass over the same set, which is the overhead's baseline."""
    runs, untraced = [], 0.0
    for rep in range(2):
        untraced += sum(runner.run_pass(ops, f"baseline pass {rep}")[0])
        tracer = tracing.Tracer()
        restore = tracing.instrument(lib, tracer)
        try:
            walls, _ = runner.run_pass(ops, f"traced pass {rep}")
        finally:
            restore()
        tracer.write(outdir / f"trace-{args.workload}-seed{args.seed}-pass{rep}.jsonl")
        runs.append((tracer, sum(walls), *tracing.layer_metrics(tracer)))

    (first, wall0, values0, missing), (_, wall1, values1, _) = runs
    mismatched = [name for name, (value, unit) in values0.items()
                  if unit == "count" and values1[name][0] != value]
    metrics = {}
    for name, (value, unit) in values0.items():
        metrics[name] = (value if unit == "count" else (value + values1[name][0]) / 2, unit)
    metrics["proc.cpu_s"] = (statistics.median(c for _, _, c in passes), "s")
    metrics["trace.overhead_ratio"] = ((wall0 + wall1) / untraced, "ratio")

    selfs = first.self_times()
    shares = tracing.layer_shares(selfs)
    traced_total = sum(selfs.values())
    named = NAMED_LAYERS[args.workload]
    named_share = sum(v for n, v in selfs.items()
                      if n.split(".", 1)[0] in named or n in named) / traced_total
    return {"layer_metrics": metrics, "missing_metrics": missing,
            "count_mismatches": mismatched, "layer_shares": shares,
            "named_layers": named, "named_share": named_share}


def environment(args, record) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "passes": record["passes"],
        "ops_per_pass": record["units_per_pass"],
        "ops_attempted": record["attempted"],
    }


def report(args, record, outdir: Path) -> int:
    env = environment(args, record)
    attempted, failed = record["attempted"], record["failed"]
    correct = not record["check_failed"] and not record.get("count_mismatches")
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload}: {record['passes']} passes of "
          f"{record['units_per_pass']} ops, fail_ratio = {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    if args.trace:
        metrics = record["layer_metrics"]
        for layer, share in record["layer_shares"].items():
            print(f"self-time share {layer:8s} {share:.3f}")
        print(f"named layers {'+'.join(record['named_layers'])} carry "
              f"{record['named_share']:.3f} of traced self time")
        if record["missing_metrics"]:
            print(f"missing per-layer metrics: {', '.join(record['missing_metrics'])}")
        if record["count_mismatches"]:
            print(f"counts differ between traced passes: {', '.join(record['count_mismatches'])}")
    else:
        metrics = {
            "wall_s": (record["wall_s"], "s"),
            "ops_per_s": (record["ops_per_s"], "1/s"),
            "setup_s": (record["setup_s"], "s"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    record["environment"] = env
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (outdir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
