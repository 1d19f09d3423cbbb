"""Steadiness check: run workloads N times each and report the spread.

    python3 bench/steady.py [--runs 10] [--seconds 20] [--seed 100]
                            [--workloads a,b,...] [--compare bench/out/steady-X.json]

Run i uses seed SEED + i and visits the workloads in alternating order
(forward on even i, backward on odd i), one run at a time.  For every
end-to-end metric of each workload it prints the median, the quartiles (as
statistics.quantiles(n=4) gives them), the IQR and the range as shares of
the median, and the share of failed operations as reduced fractions (one
value per workload when failures repeat exactly).  The raw round time
(rounds_raw_s from the run's details) is shown beside wall_norm so the
effect of normalizing is visible.  --compare reports, per metric, how far
this set's median moved from another set's, against the bound in
BENCHMARK.json.  The summary is written to bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr": (q3 - q1) / med,
            "range": (max(values) - min(values)) / med, "values": values}


def run_once(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((BENCH / "out" / f"{workload}-s{seed}-t0.json").read_text())
    result["raw_s"] = statistics.median(details["rounds_raw_s"])
    result["kernel_ms"] = details["kernel_p50_ms"]
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--compare", help="summary of an earlier set to compare medians with")
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in names}
    for i in range(args.runs):
        for w in names if i % 2 == 0 else names[::-1]:
            r = run_once(w, args.seed + i, args.seconds)
            runs[w].append(r)
            print(f"run {i} {w}: correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)

    summary = {}
    for w, rs in runs.items():
        figures = {k: spread([r["metrics"][k]["value"] for r in rs]) for k in rs[0]["metrics"]}
        figures["raw_s"] = spread([r["raw_s"] for r in rs])
        figures["kernel_ms"] = spread([r["kernel_ms"] for r in rs])
        summary[w] = {
            "figures": figures,
            "failed_share": sorted({str(Fraction(r["failed"], r["attempted"])) for r in rs}),
            "all_correct": all(r["correct"] for r in rs),
        }
    print(f"\n{'workload':18} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} {'IQR':>7} {'range':>7} {'bound':>6}")
    for w, s in summary.items():
        for k, f in s["figures"].items():
            b = bounds.get(k)
            print(f"{w:18} {k:12} {f['median']:10.4g} {f['q1']:10.4g} {f['q3']:10.4g} "
                  f"{f['iqr']:7.2%} {f['range']:7.2%} {'' if b is None else f'{b:.2f}':>6}")
        print(f"{w:18} failed share {', '.join(s['failed_share'])}; all correct: {s['all_correct']}")

    if args.compare:
        earlier = json.loads(Path(args.compare).read_text())
        print(f"\nmedian change against {args.compare} (positive = worse for these lower-is-better metrics)")
        for w, s in summary.items():
            for k, b in bounds.items():
                old = earlier[w]["figures"][k]["median"]
                change = s["figures"][k]["median"] / old - 1.0
                print(f"{w:18} {k:12} {change:+7.2%}  bound {b:.2f}  {'ok' if change <= b else 'WORSE'}")
            same = earlier[w]["failed_share"] == s["failed_share"]
            print(f"{w:18} failed share {'same' if same else 'DIFFERS'}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nsummary: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
