"""The package as a whole: what importing it loads, and the benchmark's tracer."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import tracing

import blaschkelab

ROOT = Path(__file__).resolve().parent.parent
# figures that bench/run.py adds to the tracer's layer metrics itself
RUN_METRICS = {"trace.overhead", "trace.base_wall_norm", "raw.wall_s", "ref.kernel.p50_ms"}


def test_import_loads_nothing_beyond_numpy_and_the_standard_library():
    # the baseline is taken inside the child: site hooks import modules at start-up
    code = (
        "import sys, numpy\n"
        "before = {m.partition('.')[0] for m in sys.modules}\n"
        "import blaschkelab\n"
        "added = {m.partition('.')[0] for m in sys.modules} - before\n"
        "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n"
    )
    src = str(Path(blaschkelab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["blaschkelab"]


def _bindings():
    """{(holder, attribute): object} for every function the tracer may replace."""
    holders = [blaschkelab] + [sys.modules[f"blaschkelab.{s}"] for s in tracing.LAYERS]
    out = {}
    for holder in holders:
        for attr, obj in vars(holder).items():
            if isinstance(obj, types.FunctionType):
                out[holder.__name__, attr] = obj
            elif isinstance(obj, type) and obj.__module__ == holder.__name__:
                for mattr, m in vars(obj).items():
                    if isinstance(m, types.FunctionType):
                        out[obj.__qualname__, mattr] = m
    return out


def test_benchmark_tracer_covers_the_package_and_restores_it():
    cli = sys.modules["blaschkelab.cli"]
    originals, suites = _bindings(), dict(cli.SUITES)
    tracer = tracing.Tracer(blaschkelab)
    tracer.install()
    try:
        B = blaschkelab.FiniteBlaschkeProduct(1.0, (0.5, -0.3j, 0.2 + 0.4j, -0.6))
        B.critical_points()
        B.fiber_solve(0.1)
    finally:
        tracer.uninstall()
    assert _bindings() == originals
    assert cli.SUITES == suites
    names = {s[0] for s in tracer.spans}
    assert {"blaschke.critical_points", "blaschke.fiber_solve"} <= names
    assert {"polyroots.critical_roots", "polyroots.fiber_roots"} <= names

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert RUN_METRICS <= declared
    metrics = tracing.layer_metrics(tracer.spans, 1, {})
    assert declared - RUN_METRICS <= set(metrics)
