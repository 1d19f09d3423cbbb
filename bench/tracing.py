"""Spans around the calls into blaschkelab, recorded from outside the package.

`Tracer.install` replaces every public function and method of the modules
in LAYERS by a wrapper that records a span, in every namespace that holds
it: the defining module, the modules that imported it by name (e.g.
`blaschke.find_roots`, `lab.hull_contains`) and the package itself.  The
verify suites, private runners in `cli.SUITES`, get spans named
`cli.verify.<suite>`.  `uninstall` puts the originals back.

A span is [name, start, end, parent, size, raised]: parent is the index of
the enclosing span (-1 at the top), size the work measure of SIZES (order,
degree or number of points; -1 for a scalar point).  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = ("polyroots", "blaschke", "hyperbolic", "moebius", "lab", "cli")

# methods of FiniteBlaschkeProduct are named after the module, as blaschke.eval
FLAT_CLASSES = ("FiniteBlaschkeProduct",)


def _points(args):
    z = args[1]
    return -1 if np.ndim(z) == 0 and not isinstance(z, np.ndarray) else int(np.size(z))


SIZES = {
    "polyroots.find_roots": lambda args: args[0].degree,
    "blaschke.critical_points": lambda args: args[0].order,
    "blaschke.fiber_solve": lambda args: args[0].order,
    "blaschke.eval": _points,
    "blaschke.derivative": _points,
    "blaschke.log_derivative": _points,
    "blaschke.boundary_derivative_modulus": _points,
    "moebius.automorphism_eval": _points,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._stack: list = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, size(args) if size else 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _targets(self):
        """{function: span name} for the public functions and methods."""
        names = {}
        for short in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    names[obj] = f"{short}.{attr}"
                elif isinstance(obj, type):
                    prefix = short if attr in FLAT_CLASSES else f"{short}.{attr}"
                    for mattr, m in vars(obj).items():
                        if isinstance(m, types.FunctionType) and not mattr.startswith("_"):
                            names[m] = f"{prefix}.{mattr}"
        return names

    def install(self):
        names = self._targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        holders = [self.package] + [sys.modules[f"{self.package.__name__}.{s}"] for s in LAYERS]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._replace(holder, attr, wrappers[obj])
                elif isinstance(obj, type) and obj.__module__.startswith(self.package.__name__):
                    if holder is not sys.modules[obj.__module__]:
                        continue  # patch each class once, where it is defined
                    for mattr, m in list(vars(obj).items()):
                        if isinstance(m, types.FunctionType) and m in wrappers:
                            self._replace(obj, mattr, wrappers[m])  # eval and its alias __call__
        suites = sys.modules[f"{self.package.__name__}.cli"].SUITES
        for suite, (runner, trials) in list(suites.items()):
            suites[suite] = (self._wrap(f"cli.verify.{suite}", runner), trials)
            self._undo.append(functools.partial(suites.__setitem__, suite, (runner, trials)))

    def _replace(self, holder, attr, value):
        self._undo.append(functools.partial(setattr, holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, rounds: int, op_failures: dict) -> dict:
    """Per-round layer figures from the spans of `rounds` traced rounds.

    op_failures maps a layer to the operations of those rounds whose output
    failed its check without raising (a wrong answer counts as a failure of
    the layer that gave it).
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    agg = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "failed": 0, "points": 0})
    by_size = defaultdict(list)
    for i, (name, _, _, _, size, raised) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["ms"] += 1e3 * dur[i]
        a["self_ms"] += 1e3 * (dur[i] - child[i])
        a["failed"] += raised
        a["points"] += abs(size)
        by_size[name, size].append(dur[i])

    def get(name, key):
        return agg[name][key] / rounds if name in agg else 0.0

    out = {}
    out["polyroots.find_roots.calls"] = (get("polyroots.find_roots", "calls"), "count")
    out["polyroots.find_roots.degree_sum"] = (get("polyroots.find_roots", "points"), "count")
    out["polyroots.find_roots.ms"] = (get("polyroots.find_roots", "ms"), "ms")
    out["polyroots.find_roots.failed"] = (get("polyroots.find_roots", "failed"), "count")
    for name in ("blaschke.critical_points", "blaschke.fiber_solve"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.ms"] = (get(name, "ms"), "ms")
        out[f"{name}.self_ms"] = (get(name, "self_ms"), "ms")
        out[f"{name}.failed"] = (get(name, "failed") + op_failures.get(name, 0) / rounds, "count")
        for order in (8, 16, 32, 64, 128):
            out[f"{name}.o{order}.p50_ms"] = (1e3 * _p50(by_size[name, order]), "ms")
    out["blaschke.eval.calls"] = (get("blaschke.eval", "calls"), "count")
    out["blaschke.eval.points"] = (get("blaschke.eval", "points"), "count")
    out["blaschke.eval.ms"] = (get("blaschke.eval", "ms"), "ms")
    out["blaschke.eval.scalar.p50_us"] = (1e6 * _p50(by_size["blaschke.eval", -1]), "us")
    out["blaschke.derivative.calls"] = (get("blaschke.derivative", "calls"), "count")
    out["blaschke.derivative.points"] = (get("blaschke.derivative", "points"), "count")
    out["blaschke.derivative.ms"] = (get("blaschke.derivative", "ms"), "ms")
    out["blaschke.derivative.failed"] = (
        get("blaschke.derivative", "failed") + op_failures.get("blaschke.derivative", 0) / rounds, "count")
    out["blaschke.log_derivative.ms"] = (get("blaschke.log_derivative", "ms"), "ms")
    out["blaschke.boundary_derivative_modulus.ms"] = (get("blaschke.boundary_derivative_modulus", "ms"), "ms")
    out["moebius.automorphism_eval.calls"] = (get("moebius.automorphism_eval", "calls"), "count")
    out["moebius.automorphism_eval.points"] = (get("moebius.automorphism_eval", "points"), "count")
    out["moebius.automorphism_eval.ms"] = (get("moebius.automorphism_eval", "ms"), "ms")
    for name in ("hyperbolic.hyperbolic_convex_hull", "hyperbolic.hull_contains"):
        out[f"{name}.calls"] = (get(name, "calls"), "count")
        out[f"{name}.ms"] = (get(name, "ms"), "ms")
    for fn in ("convergence_experiment", "separation_estimate", "valence", "default_valence_radius",
               "fatou_quotient", "fatou_limit_scan", "density_family", "density_family3"):
        out[f"lab.{fn}.ms"] = (get(f"lab.{fn}", "ms"), "ms")
        out[f"lab.{fn}.self_ms"] = (get(f"lab.{fn}", "self_ms"), "ms")
    for suite in ("hull", "converge", "counterexample", "valence", "separation", "fatou"):
        out[f"cli.verify.{suite}.ms"] = (get(f"cli.verify.{suite}", "ms"), "ms")
    return out
