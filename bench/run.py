"""Benchmark of blaschkelab: one workload per run, single-threaded.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
The run repeats whole rounds of the workload's operations (workloads.py):
a warm-up round that pays first-touch memory and first-call costs, then
timed rounds until S seconds have passed, at least two.  Every operation
runs between samples of a fixed reference kernel (ref_kernel), one before
and at least one after, more after long operations (KERNEL_SHARE).  The
gated figure, wall_norm, is the median round time divided by the mean
kernel sample (slowest 5% dropped), so it is in units of the kernel and
follows the machine's speed during the run.  Each
output is checked against oracles.py the first time an operation runs and
must come back identical in later rounds.

With --trace 0 the last line of stdout holds the end-to-end metrics
(setup_s, wall_norm, peak_rss_mb); with --trace 1 rounds alternate between
untraced and traced, and it holds the per-layer metrics of tracing.py,
trace.overhead and the raw figures.  Details and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
MIN_ROUNDS = 2
# after each operation the kernel runs until it has taken at least this share
# of the operation's time, so long operations get as many samples as their
# weight in the round needs
KERNEL_SHARE = 0.02


_KERNEL_ARRAY = np.linspace(0.0, 1.0, 20_000) + 0.3j


def ref_kernel() -> float:
    """Seconds taken by a fixed piece of work that does not touch blaschkelab.

    Three parts in one, the mix the program's calls are made of: interpreter
    integer arithmetic (6,000 steps), small numpy calls (30 Horner
    evaluations of a degree-16 polynomial on 32 points) and array passes
    (6 multiply-adds and moduli over 20,000 complex numbers).  Each part
    slows by a different factor when the machine is contended, and the mix
    tracks the workloads better than any one part.  Changing it re-bases
    every wall_norm.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003
    x = np.linspace(0.0, 1.0, 32) + 0.5j
    c = np.arange(1.0, 18.0) + 0j
    for _ in range(30):
        x = x * 0.999 + 0.001j
        acc += int(np.argmax(np.abs(npoly.polyval(x, c))))
    y = _KERNEL_ARRAY
    for _ in range(6):
        y = y * (0.999 + 0.001j) + 0.001
        acc += int(np.argmax(np.abs(y)))
    return time.perf_counter() - t0


def import_program():
    """Import blaschkelab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import blaschkelab

    if Path(blaschkelab.__file__).resolve().parent != src / "blaschkelab":
        raise SystemExit(f"blaschkelab was imported from {blaschkelab.__file__}, not {src}")
    return blaschkelab


def warm_up(package):
    """Pay first-call costs before timing: one small call of each kind."""
    B = package.FiniteBlaschkeProduct(1.0, (0.5, -0.3j, 0.2 + 0.4j, -0.6))
    B.critical_points()
    B.fiber_solve(0.1)
    B.derivative(np.linspace(0.0, 0.5, 8) + 0j)
    B.eval(0.1j)
    package.hull_contains(package.hyperbolic_convex_hull(B.zeros), 0.0, 1e-8)
    ref_kernel()


def measure_setup(workload: str, seed: int) -> list:
    """Wall seconds of SETUP_REPEATS fresh interpreters that import, build the
    inputs and warm up, then exit."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code {proc.returncode}")
    return times


class Checker:
    """First output of each operation is checked; later ones must match it."""

    def __init__(self):
        self.first: dict = {}

    def __call__(self, index, op, out):
        digest = hashlib.sha256(pickle.dumps(out, protocol=4)).digest()
        if index not in self.first:
            self.first[index] = (digest, op.check(out))
        seen, verdict = self.first[index]
        return verdict if digest == seen else "output differs from the first call with the same input"


def run_round(ops, checker, tally):
    """One pass over ops, each between kernel samples.  Returns (raw seconds,
    kernel samples, [op seconds, kernel before, first kernel after] per op,
    {layer: operations whose answer failed its check without raising})."""
    raw = 0.0
    kernel, samples, wrong_answers = [], [], Counter()
    for i, op in enumerate(ops):
        before = ref_kernel()
        t0 = time.perf_counter()
        try:
            out, exc = op.run(), None
        except Exception as e:  # a program failure: counted, never fatal
            out, exc = None, e
        dt = time.perf_counter() - t0
        after = [ref_kernel()]
        while sum(after) < KERNEL_SHARE * dt:
            after.append(ref_kernel())
        raw += dt
        kernel += [before, *after]
        samples.append([dt, before, after[0]])
        if exc is not None:
            tally.fail(op, f"{type(exc).__name__}: {exc}")
            continue
        verdict = checker(i, op, out)
        if verdict is not None:
            if op.fault:
                tally.fail(op, verdict)
                wrong_answers[op.layer] += 1
            else:
                tally.wrong.setdefault(op.name, verdict)
    tally.attempted += len(ops)
    return raw, kernel, samples, wrong_answers


def normalized(rounds) -> float:
    """Median round time in units of the mean kernel sample of those rounds.

    The mean follows the share of time the machine spends in its fast and
    slow states, as the operations' times do; the slowest 5% of samples are
    dropped first, because they are interruptions no operation feels in
    proportion to its length.
    """
    kernel = sorted(k for r in rounds for k in r[1])
    return statistics.median(r[0] for r in rounds) / statistics.fmean(kernel[: max(1, int(0.95 * len(kernel)))])


class Tally:
    """Operations attempted and failed, and the first reason for each."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict = {}  # failed operations
        self.wrong: dict = {}    # wrong answers from operations with no known fault

    def fail(self, op, reason):
        self.failed += 1
        self.reasons.setdefault(op.name, reason)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    package = import_program()
    import workloads  # imports blaschkelab, so only after import_program

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    ops = workloads.build(args.workload, args.seed)
    warm_up(package)
    if args.setup_only:
        return 0
    setup_times = measure_setup(args.workload, args.seed)

    from tracing import Tracer, layer_metrics

    checker, tally, tracer = Checker(), Tally(), Tracer(package)
    run_round(ops, checker, tally)  # warm-up round: counted and checked, not timed
    plain, traced = [], []
    start = time.perf_counter()
    while len(plain) + len(traced) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        if args.trace == 1 and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_round(ops, checker, tally))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_round(ops, checker, tally))

    kernel = [k for r in plain + traced for k in r[1]]
    wall_norm = normalized(plain)
    if args.trace:
        metrics = layer_metrics(tracer.spans, len(traced), sum((r[3] for r in traced), Counter()))
        metrics["trace.overhead"] = (normalized(traced) / wall_norm, "ratio")
        metrics["trace.base_wall_norm"] = (wall_norm, "ref")
        metrics["raw.wall_s"] = (statistics.median(r[0] for r in plain), "s")
        metrics["ref.kernel.p50_ms"] = (1e3 * statistics.median(kernel), "ms")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_norm": (wall_norm, "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed, "ops": [op.name for op in ops],
        "setup_s": setup_times, "rounds_raw_s": [r[0] for r in plain],
        "traced_rounds_raw_s": [r[0] for r in traced], "kernel_p50_ms": 1e3 * statistics.median(kernel),
        "failed_ops": tally.reasons, "wrong": tally.wrong,
        "samples": [r[2] for r in plain],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    for name, reason in tally.reasons.items():
        print(f"failed: {name}: {reason}", file=sys.stderr)
    for name, reason in tally.wrong.items():
        print(f"WRONG: {name}: {reason}", file=sys.stderr)

    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
