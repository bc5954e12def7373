"""The benchmark's per-layer metrics against the library: every function
that bench/tracing.py wraps by name must still exist, so that a traced
benchmark run reports each metric BENCHMARK.json registers."""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# metrics that bench/run.py adds itself, outside the tracer
RUN_METRICS = {"proc.cpu_s", "trace.overhead_ratio"}


def test_traced_metrics_match_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    lib = {layer: importlib.import_module(f"cohesionlab.{layer}")
           for layer in (*tracing.LAYERS, "errors")}
    tracer = tracing.Tracer()
    restore = tracing.instrument(lib, tracer)
    try:
        values, missing = tracing.layer_metrics(tracer)
    finally:
        restore()
    assert missing == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(values) == {m["name"] for m in spec["per_layer"]} - RUN_METRICS
    assert not hasattr(lib["explore"].emit_scatter, "__wrapped__")
