"""Spans and counters recorded from outside the library.

`instrument` wraps the public functions of each `cohesionlab` module at
run time and rebinds every module attribute that refers to them, which
covers names other modules took with `from .x import y`, so nested calls
open child spans. FieldSpec arithmetic is only counted: it runs millions
of times per pass and a span per call would swamp the timings. Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

LAYERS = ("gf", "codes", "matroid", "dist", "cohesion", "maxent", "explore", "cli")
FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "pow")
DIST_IO = ("dist.to_csv", "dist.from_csv", "dist.to_json", "dist.from_json", "dist.load")


@dataclass
class Tracer:
    """Spans as parallel lists (name, start, end, parent id) plus counters."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    stack: list = field(default_factory=lambda: [-1])
    counts: Counter = field(default_factory=Counter)
    field_ops: int = 0
    wrapped: set = field(default_factory=set)
    _raised: dict = field(default_factory=dict)

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    def error(self, layer: str, exc: BaseException) -> None:
        """Count a ToolError once per layer it passes through."""
        seen = self._raised.setdefault(id(exc), (exc, set()))[1]
        if layer not in seen:
            seen.add(layer)
            self.counts[f"{layer}.errors"] += 1

    def self_times(self) -> dict:
        """Self time per span name: duration minus the direct children's
        durations (calls are sequential, so children never overlap)."""
        child = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        out: dict = {}
        for sid, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + (self.ends[sid] - self.starts[sid] - child[sid])
        return out

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({"id": sid, "name": name, "start": self.starts[sid],
                                     "end": self.ends[sid], "parent": self.parents[sid]}) + "\n")


# ---------------------------------------------------------------------------
# Counters read from arguments and results at a span boundary
# ---------------------------------------------------------------------------

def _ipf_counts(tracer, args, kwargs, result, before):
    sweeps = int(result[1])
    tracer.counts["maxent.ipf.calls"] += 1
    tracer.counts["maxent.ipf.sweeps"] += sweeps
    tracer.counts["maxent.ipf.row_sweeps"] += sweeps * int(args[0].shape[0])


def _subset_entropy_counts(tracer, args, kwargs, result, before):
    P, n, _, k = args[:4]
    tracer.counts["explore.batch_subset_entropies.row_masks"] += P.shape[0] * comb(n, k)


def _codeword_counts(tracer, args, kwargs, result, before):
    tracer.counts["codes.enumerate_codewords.words"] += len(result)


def _scatter_counts(tracer, args, kwargs, result, before):
    out = Path(result["out"])
    tracer.counts["explore.csv_bytes"] += sum(f.stat().st_size for f in out.glob("*.csv"))


def _stdout_position(args, kwargs):
    try:
        return sys.stdout.tell()
    except (AttributeError, OSError, ValueError):
        return None


def _cli_counts(tracer, args, kwargs, result, before):
    tracer.counts["cli.commands"] += 1
    after = _stdout_position(args, kwargs)
    if before is not None and after is not None:
        tracer.counts["cli.output_bytes"] += after - before


def _atoms_before(args, kwargs):
    return len(args[0].atoms)


def _atom_counts(tracer, args, kwargs, result, before):
    tracer.counts["dist.atoms_built"] += before


# span name -> (before hook, after hook)
HOOKS = {
    "maxent.ipf_project_batch": (None, _ipf_counts),
    "explore.batch_subset_entropies": (None, _subset_entropy_counts),
    "codes.enumerate_codewords": (None, _codeword_counts),
    "explore.emit_scatter": (None, _scatter_counts),
    "cli.main": (_stdout_position, _cli_counts),
    "dist.JointDistribution": (_atoms_before, _atom_counts),
}
# span name of a factory -> span name given to the callables it returns
RESULT_SPANS = {"explore.make_objective": "explore.objective"}
# classes whose construction is a span of their layer
CONSTRUCTED = {"dist": "JointDistribution", "codes": "LinearCode"}


def _wrap(tracer: Tracer, name: str, fn, tool_error):
    layer = name.split(".", 1)[0]
    before, after = HOOKS.get(name, (None, None))
    result_span = RESULT_SPANS.get(name)

    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before else None
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except tool_error as exc:
            tracer.error(layer, exc)
            raise
        finally:
            tracer.close(sid)
        if after:
            after(tracer, args, kwargs, result, state)
        if result_span:
            result = _wrap(tracer, result_span, result, tool_error)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_field_op(tracer: Tracer, fn):
    def wrapper(*args):
        tracer.field_ops += 1
        return fn(*args)

    return wrapper


def instrument(lib, tracer: Tracer):
    """Wrap the library in place; returns a function that undoes it.

    `lib` maps layer names to the imported modules. Every module of the
    package is searched for attributes bound to a wrapped function, so a
    function imported elsewhere under its own name is rebound as well.
    """
    tool_error = lib["errors"].ToolError
    replaced = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = lib[layer]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                continue
            name = f"{layer}.{attr}"
            replaced[id(obj)] = (obj, _wrap(tracer, name, obj, tool_error))
            tracer.wrapped.add(name)

    undo = []
    package = [m for key, m in sys.modules.items()
               if m is not None and (key == "cohesionlab" or key.startswith("cohesionlab."))]
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, obj))

    for layer, cls_name in CONSTRUCTED.items():
        cls = getattr(lib[layer], cls_name, None)
        if cls is not None and "__post_init__" in vars(cls):
            orig = vars(cls)["__post_init__"]
            setattr(cls, "__post_init__", _wrap(tracer, f"{layer}.{cls_name}", orig, tool_error))
            undo.append((cls, "__post_init__", orig))
            tracer.wrapped.add(f"{layer}.{cls_name}")

    spec = getattr(lib["gf"], "FieldSpec", None)
    if spec is not None and all(op in vars(spec) for op in FIELD_OPS):
        for op in FIELD_OPS:
            orig = vars(spec)[op]
            setattr(spec, op, _count_field_op(tracer, orig))
            undo.append((spec, op, orig))
        tracer.wrapped.add("gf.field_ops")

    def restore():
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _self_metric(names):
    def get(tracer, selfs):
        return sum(selfs.get(n, 0.0) for n in names)
    return get


def _calls(name):
    def get(tracer, selfs):
        return sum(1 for n in tracer.names if n == name)
    return get


def _count(key):
    return lambda tracer, selfs: tracer.counts.get(key, 0)


def _layer_self(layer):
    prefix = layer + "."
    return lambda tracer, selfs: sum(v for n, v in selfs.items() if n.startswith(prefix))


def _layer_errors(layer):
    return lambda tracer, selfs: tracer.counts.get(f"{layer}.errors", 0)


# metric name -> (unit, wrapped names it needs, getter); "count" metrics
# must repeat exactly between two traced passes over the same inputs.
PER_LAYER = {
    "gf.self_s": ("s", [], _layer_self("gf")),
    "gf.matrix_rank.calls": ("count", ["gf.matrix_rank"], _calls("gf.matrix_rank")),
    "gf.matrix_rank.self_s": ("s", ["gf.matrix_rank"], _self_metric(["gf.matrix_rank"])),
    "gf.field_ops": ("count", ["gf.field_ops"], lambda t, s: t.field_ops),
    "codes.self_s": ("s", [], _layer_self("codes")),
    "codes.column_subset_rank.calls": ("count", ["codes.column_subset_rank"],
                                       _calls("codes.column_subset_rank")),
    "codes.enumerate_codewords.words": ("count", ["codes.enumerate_codewords"],
                                        _count("codes.enumerate_codewords.words")),
    "matroid.self_s": ("s", [], _layer_self("matroid")),
    "matroid.check_axioms.self_s": ("s", ["matroid.check_axioms"],
                                    _self_metric(["matroid.check_axioms"])),
    "matroid.vector_matroid.self_s": ("s", ["matroid.vector_matroid"],
                                      _self_metric(["matroid.vector_matroid"])),
    "matroid.find_uniform_representation.self_s": (
        "s", ["matroid.find_uniform_representation"],
        _self_metric(["matroid.find_uniform_representation"])),
    "dist.self_s": ("s", [], _layer_self("dist")),
    "dist.entropy_table.self_s": ("s", ["dist.entropy_table"],
                                  _self_metric(["dist.entropy_table"])),
    "dist.marginalize.calls": ("count", ["dist.marginalize"], _calls("dist.marginalize")),
    "dist.atoms_built": ("count", ["dist.JointDistribution"], _count("dist.atoms_built")),
    "dist.io.self_s": ("s", list(DIST_IO), _self_metric(DIST_IO)),
    "cohesion.self_s": ("s", [], _layer_self("cohesion")),
    "cohesion.cohesion_k.calls": ("count", ["cohesion.cohesion_k"], _calls("cohesion.cohesion_k")),
    "cohesion.cohesion_profile.calls": ("count", ["cohesion.cohesion_profile"],
                                        _calls("cohesion.cohesion_profile")),
    "maxent.self_s": ("s", [], _layer_self("maxent")),
    "maxent.ipf.calls": ("count", ["maxent.ipf_project_batch"], _count("maxent.ipf.calls")),
    "maxent.ipf.sweeps": ("count", ["maxent.ipf_project_batch"], _count("maxent.ipf.sweeps")),
    "maxent.ipf.row_sweeps": ("count", ["maxent.ipf_project_batch"],
                              _count("maxent.ipf.row_sweeps")),
    "maxent.batch_divergence.self_s": ("s", ["maxent.batch_divergence"],
                                       _self_metric(["maxent.batch_divergence"])),
    "explore.self_s": ("s", [], _layer_self("explore")),
    "explore.objective.evals": ("count", ["explore.make_objective"], _calls("explore.objective")),
    "explore.objective.self_s": ("s", ["explore.make_objective"],
                                 _self_metric(["explore.objective"])),
    "explore.hill_climb.self_s": ("s", ["explore.hill_climb"], _self_metric(["explore.hill_climb"])),
    "explore.batch_subset_entropies.self_s": ("s", ["explore.batch_subset_entropies"],
                                              _self_metric(["explore.batch_subset_entropies"])),
    "explore.batch_subset_entropies.row_masks": (
        "count", ["explore.batch_subset_entropies"],
        _count("explore.batch_subset_entropies.row_masks")),
    "explore.emit_scatter.self_s": ("s", ["explore.emit_scatter"],
                                    _self_metric(["explore.emit_scatter"])),
    "explore.csv_bytes": ("count", ["explore.emit_scatter"], _count("explore.csv_bytes")),
    "cli.self_s": ("s", [], _layer_self("cli")),
    "cli.commands": ("count", ["cli.main"], _count("cli.commands")),
    "cli.output_bytes": ("count", ["cli.main"], _count("cli.output_bytes")),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.errors"] = ("count", [], _layer_errors(_layer))
PER_LAYER["trace.spans"] = ("count", [], lambda t, s: len(t.names))


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """(metric name -> (value, unit), names of metrics whose wrapped
    functions no longer exist)."""
    selfs = tracer.self_times()
    values, missing = {}, []
    for name, (unit, needs, get) in PER_LAYER.items():
        if all(n in tracer.wrapped for n in needs):
            values[name] = (get(tracer, selfs), unit)
        else:
            missing.append(name)
    return values, missing


def layer_shares(selfs: dict) -> dict:
    """Share of all traced self time spent in each layer, from the self
    time per span name."""
    totals = Counter()
    for name, value in selfs.items():
        totals[name.split(".", 1)[0]] += value
    grand = sum(totals.values()) or 1.0
    return {layer: totals[layer] / grand for layer in LAYERS}
