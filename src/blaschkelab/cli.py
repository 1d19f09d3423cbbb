"""Command-line front end: product spec files, experiments, CSV/JSON/SVG output.

Exit codes: 0 success, 1 assertion/theorem violation, 2 usage or parse error,
3 numerical failure, 4 I/O error.  Output is byte-identical for identical
(flags, seed) pairs; floats in CSV are printed with 17 significant digits so
they round-trip exactly.  Random products come from numpy's PCG64 generator.

Tolerances used by the verify suites can be overridden through the
environment variable BLASCHKE_LAB_TOL_OVERRIDES, a comma-separated list of
name=value pairs; only the documented names are accepted (see TOLERANCES).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .blaschke import FiniteBlaschkeProduct, critical_sets
from .errors import (
    CircleStraddleError,
    ContourThroughFiberError,
    NonConvergenceError,
)
from .hyperbolic import geodesic_point, hull_contains, hyperbolic_convex_hull
from .lab import (
    SequenceSpec,
    convergence_experiment,
    counterexample_run,
    default_valence_radius,
    fatou_limit_scan,
    fatou_quotient,
    random_product,
    rotation_constant,
    separation_estimate,
    valence,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

TOLERANCES = {
    "hull_tol": 1e-8,            # Klein-model membership tolerance
    "reflection_tol": 1e-8,      # interior/exterior critical pairing
    "converge_final": 1e-6,      # final sup deviation of the conjugates
    "rotation_match": 1e-12,     # rotation constant cross-check
    "counterexample_dev": 1e-6,  # even/odd/renormalized limit deviations
    "valence_residual": 0.05,    # distance of the winding integral to an integer
    "fatou_slack": 1e-12,        # Schwarz-Pick upper slack
    "fatou_scan": 1e-3,          # distance of boundary scan minima to 1
}

ENV_TOL = "BLASCHKE_LAB_TOL_OVERRIDES"


class SpecFileError(ValueError):
    pass


def parse_tolerance_overrides(text: str) -> dict:
    """Parse 'name=value,name=value'; unknown names, negative and non-finite values are rejected."""
    out = {}
    if not text.strip():
        return out
    for item in text.split(","):
        if "=" not in item:
            raise SpecFileError(f"malformed tolerance override {item!r}")
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in TOLERANCES:
            raise SpecFileError(
                f"unknown tolerance {name!r}; known: {', '.join(sorted(TOLERANCES))}"
            )
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise SpecFileError(f"bad value for tolerance {name!r}: {value!r}") from exc
        if not 0.0 <= out[name] < math.inf:
            raise SpecFileError(f"tolerance {name!r} must be finite and nonnegative, not {value!r}")
    return out


def _as_pair(node, where: str) -> complex:
    if (
        not isinstance(node, (list, tuple))
        or len(node) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in node)
    ):
        raise SpecFileError(f"{where}: expected [re, im], got {node!r}")
    return complex(node[0], node[1])


def load_product_spec(path: str) -> FiniteBlaschkeProduct:
    """Read a product spec file: {"gamma": [re, im], "zeros": [[re, im], ...]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError(f"{path}: top level must be an object")
    if "gamma" not in doc or "zeros" not in doc:
        raise SpecFileError(f"{path}: required fields are 'gamma' and 'zeros'")
    gamma = _as_pair(doc["gamma"], "gamma")
    if abs(gamma) == 0:
        raise SpecFileError("gamma: must be nonzero")
    zeros_node = doc["zeros"]
    if not isinstance(zeros_node, list) or not zeros_node:
        raise SpecFileError("zeros: expected a nonempty list of [re, im] pairs")
    zeros = []
    for i, node in enumerate(zeros_node):
        z = _as_pair(node, f"zeros[{i}]")
        if not abs(z) < 1.0 - 1e-12:
            raise SpecFileError(f"zeros[{i}]: modulus {abs(z)} is not strictly below 1")
        zeros.append(z)
    return FiniteBlaschkeProduct(gamma, tuple(zeros))


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _parse_complex_flag(text: str, what: str) -> complex:
    try:
        re_s, _, im_s = text.partition(",")
        return complex(float(re_s), float(im_s or 0.0))
    except ValueError as exc:
        raise SpecFileError(f"{what}: expected re,im — got {text!r}") from exc


# ---------------------------------------------------------------------------
# critical-points

def cmd_critical_points(args, tol: dict, out) -> int:
    B = load_product_spec(args.spec)
    cs = B.critical_points()
    hull = hyperbolic_convex_hull(B.zeros) if args.hull else None
    rows = []
    violation = False
    for region, pairs in (("interior", cs.interior), ("exterior", cs.exterior)):
        for p, mult in pairs:
            if hull is not None and region == "interior":
                member = hull_contains(hull, p, tol["hull_tol"])
                flag = "true" if member else "false"
                violation = violation or not member
            else:
                flag = "n/a"
            rows.append((p.real, p.imag, mult, region, flag))
    if args.format == "csv":
        out.write("re,im,multiplicity,region,in_hull\n")
        for re_, im_, mult, region, flag in rows:
            out.write(f"{_g17(re_)},{_g17(im_)},{mult},{region},{flag}\n")
    else:
        doc = [
            {"re": re_, "im": im_, "multiplicity": mult, "region": region, "in_hull": flag}
            for re_, im_, mult, region, flag in rows
        ]
        out.write(json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_VIOLATION if violation else EXIT_OK


# ---------------------------------------------------------------------------
# converge

def cmd_converge(args, tol: dict, out) -> int:
    B = load_product_spec(args.spec)
    gamma0 = _parse_complex_flag(args.gamma0, "--gamma0")
    spec = SequenceSpec(gamma0, args.mode, args.rate, args.count)
    records = convergence_experiment(B, spec, args.radius)
    out.write("k,a_re,a_im,gamma_re,gamma_im,sup_deviation,rot_re,rot_im\n")
    for r in records:
        out.write(
            ",".join(
                [
                    str(r.k),
                    _g17(r.a.real),
                    _g17(r.a.imag),
                    _g17(r.gamma.real),
                    _g17(r.gamma.imag),
                    _g17(r.sup_deviation),
                    _g17(r.rotation_constant.real),
                    _g17(r.rotation_constant.imag),
                ]
            )
            + "\n"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot

def _svg_marker_cross(x: float, y: float, r: float) -> str:
    return (
        f'<line x1="{x - r:.6f}" y1="{y - r:.6f}" x2="{x + r:.6f}" y2="{y + r:.6f}" '
        f'stroke="#c0392b" stroke-width="0.012"/>'
        f'<line x1="{x - r:.6f}" y1="{y + r:.6f}" x2="{x + r:.6f}" y2="{y - r:.6f}" '
        f'stroke="#c0392b" stroke-width="0.012"/>'
    )


def render_product_svg(B: FiniteBlaschkeProduct) -> str:
    """Disc figure: unit circle, zeros, interior critical points, hull boundary.

    Geodesic hull edges are drawn by sampling 64 parameters per edge and
    emitting a polyline; coincident zeros are drawn once with a
    multiplicity label.  The y axis is flipped so the picture matches
    mathematical orientation.
    """
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.05 -1.05 2.1 2.1" '
        'width="540" height="540">',
        '<rect x="-1.05" y="-1.05" width="2.1" height="2.1" fill="#ffffff"/>',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#444444" stroke-width="0.01"/>',
    ]
    hull = hyperbolic_convex_hull(B.zeros)
    vs = hull.poincare_vertices
    if len(vs) >= 2:
        edges = (
            [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
            if len(vs) >= 3
            else [(vs[0], vs[1])]
        )
        for z1, z2 in edges:
            pts = [geodesic_point(z1, z2, t) for t in np.linspace(0.0, 1.0, 64)]
            coords = " ".join(f"{p.real:.6f},{-p.imag:.6f}" for p in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="#2e6fb0" '
                f'stroke-width="0.01"/>'
            )
    for u, m in zip(*B._distinct_zeros):
        parts.append(
            f'<circle cx="{u.real:.6f}" cy="{-u.imag:.6f}" r="0.025" fill="#1f6f43"/>'
        )
        if m > 1:
            parts.append(
                f'<text x="{u.real + 0.035:.6f}" y="{-u.imag - 0.035:.6f}" '
                f'font-size="0.08" fill="#1f6f43">x{int(m)}</text>'
            )
    for p, m in B.critical_points().interior:
        parts.append(_svg_marker_cross(p.real, -p.imag, 0.02))
        if m > 1:
            parts.append(
                f'<text x="{p.real + 0.035:.6f}" y="{-p.imag + 0.06:.6f}" '
                f'font-size="0.08" fill="#c0392b">x{m}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args, tol: dict, out) -> int:
    B = load_product_spec(args.spec)
    svg = render_product_svg(B)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites

def _serialize_product(B: FiniteBlaschkeProduct) -> dict:
    return {
        "gamma": [B.gamma.real, B.gamma.imag],
        "zeros": [[z.real, z.imag] for z in B.zeros],
    }


def _suite_hull(trials: int, rng, tol: dict):
    # all products are drawn, then solved in one batch, then checked in order
    products = [random_product(rng, int(rng.integers(2, 9)), 0.9) for _ in range(trials)]
    checked = 0
    for B, cs in zip(products, critical_sets(products)):
        hull = hyperbolic_convex_hull(B.zeros)
        if sum(m for _, m in cs.interior) != B.order - 1:
            return False, {"checked": checked}, {"reason": "interior count", **_serialize_product(B)}
        interior_pts = [p for p, m in cs.interior for _ in range(m)]
        for p, m in cs.interior:
            checked += m
            if not hull_contains(hull, p, tol["hull_tol"]):
                return False, {"checked": checked}, {
                    "reason": "hull containment",
                    "critical_point": [p.real, p.imag],
                    **_serialize_product(B),
                }
        for e, m in cs.exterior:
            refl = 1.0 / np.conj(e)
            if min(abs(refl - p) for p in interior_pts) > tol["reflection_tol"]:
                return False, {"checked": checked}, {
                    "reason": "reflection pairing",
                    "exterior_point": [e.real, e.imag],
                    **_serialize_product(B),
                }
    return True, {"interior_points_checked": checked}, None


def _suite_converge(trials: int, rng, tol: dict):
    cases = [(FiniteBlaschkeProduct.monomial(2), 1.0 + 0j, 0.45)]
    for _ in range(trials):
        order = int(rng.integers(2, 6))
        cases.append(
            (random_product(rng, order, 0.6), np.exp(2j * np.pi * rng.uniform()), 0.33)
        )
    final_devs = []
    for B, g0, rate in cases:
        for mode in ("radial", "spiral"):
            recs = convergence_experiment(B, SequenceSpec(g0, mode, rate, 14), 0.9)
            devs = [r.sup_deviation for r in recs]
            # the nested evaluation rounds to about eps/(1 - |a_k|), which grows
            # as a_k nears the circle (sup over the grid reached 6.6x that on
            # seeds 1000-1299); a deviation below 16x that floor is noise, so it
            # need not be smaller than the one before
            floors = [16.0 * np.finfo(float).eps / (1.0 - abs(r.a)) for r in recs]
            ok = devs[-1] < tol["converge_final"] and all(
                devs[i] > devs[i + 1] or devs[i + 1] <= floors[i + 1]
                for i in range(len(devs) - 5, len(devs) - 1)
            )
            rot2 = rotation_constant(B, g0)
            ok = ok and abs(recs[-1].rotation_constant - rot2) <= tol["rotation_match"]
            if not ok:
                return False, {"final_devs": final_devs}, {
                    "reason": "convergence",
                    "mode": mode,
                    "devs": devs,
                    **_serialize_product(B),
                }
            final_devs.append(devs[-1])
    return True, {"max_final_dev": max(final_devs)}, None


def _suite_counterexample(trials: int, rng, tol: dict):
    count = max(16, trials)
    res = counterexample_run(count)
    dev = tol["counterexample_dev"]
    renorm = convergence_experiment(
        FiniteBlaschkeProduct.monomial(2),
        SequenceSpec(1.0, "alternating", 0.35, count),
        0.5,
        grid=16,
    )[-1].sup_deviation
    details = {
        "even_limit_deviation": res.even_limit_deviation,
        "odd_limit_deviation": res.odd_limit_deviation,
        "unrenormalized_oscillation": res.unrenormalized_oscillation,
        "renormalized_deviation": renorm,
        "even_tends_to_plus_z": res.even_limit_deviation < dev,
        "odd_tends_to_minus_z": res.odd_limit_deviation < dev,
    }
    ok = (
        res.even_limit_deviation < dev
        and res.odd_limit_deviation < dev
        and res.unrenormalized_oscillation > 1.0
        and renorm < dev
    )
    return ok, details, None if ok else {"reason": "counterexample", **details}


def _suite_valence(trials: int, rng, tol: dict):
    for _ in range(trials):
        order = int(rng.integers(1, 7))
        B = random_product(rng, order, 0.85)
        w = 0.6 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        fiber = B.fiber_solve(w)
        radius = default_valence_radius(B, w, fiber)
        rep = valence(B, w, radius, 4096)
        inside = sum(1 for v in fiber if abs(v) < radius)
        if not (rep.valence == order == inside and rep.residual < tol["valence_residual"]):
            return False, {}, {
                "reason": "valence",
                "w": [w.real, w.imag],
                "valence": rep.valence,
                "residual": rep.residual,
                **_serialize_product(B),
            }
    return True, {"trials": trials}, None


def _suite_separation(trials: int, rng, tol: dict):
    B2 = FiniteBlaschkeProduct.monomial(2)
    est = separation_estimate(B2, 0.8, 32)
    if not est.delta >= 1.6 - 1e-9:
        return False, {}, {"reason": "z^2 antipodal bound", "delta": est.delta}
    for _ in range(trials):
        order = int(rng.integers(2, 7))
        B = random_product(rng, order, 0.9)
        M = max(abs(z) for z in B.zeros) + 0.05
        est = separation_estimate(B, M, 32)
        ok = est.delta > 0 and est.witness_pair is not None
        if ok:
            w1, w2 = est.witness_pair
            ok = abs(B.eval(w1) - B.eval(w2)) <= 1e-8
        if not ok:
            return False, {}, {"reason": "separation", "M": M, **_serialize_product(B)}
    return True, {"trials": trials}, None


def _suite_fatou(trials: int, rng, tol: dict):
    slack = tol["fatou_slack"]
    for _ in range(trials):
        order = int(rng.integers(1, 11))
        B = random_product(rng, order, 0.9)
        for _ in range(20):
            z = 0.97 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            q = fatou_quotient(B, z)
            if q > 1.0 + slack:
                return False, {}, {"reason": "Schwarz-Pick", "z": [z.real, z.imag], "q": q,
                                   **_serialize_product(B)}
            if order == 1 and abs(q - 1.0) > slack:
                return False, {}, {"reason": "order-1 equality", "q": q, **_serialize_product(B)}
        scan = fatou_limit_scan(B, [0.9, 0.99, 0.999, 1.0 - 1e-4], 256)
        if abs(1.0 - scan[-1][1]) > tol["fatou_scan"]:
            return False, {}, {"reason": "boundary scan", "min_q": scan[-1][1],
                               **_serialize_product(B)}
    return True, {"trials": trials}, None


SUITES = {
    "hull": (_suite_hull, 200),
    "converge": (_suite_converge, 10),
    "counterexample": (_suite_counterexample, 16),
    "valence": (_suite_valence, 20),
    "separation": (_suite_separation, 20),
    "fatou": (_suite_fatou, 10),
}


def cmd_verify(args, tol: dict, out) -> int:
    runner, default_trials = SUITES[args.suite]
    trials = args.trials if args.trials is not None else default_trials
    rng = np.random.default_rng(np.random.PCG64(args.seed))
    ok, details, failure = runner(trials, rng, tol)
    summary = {
        "suite": args.suite,
        "seed": args.seed,
        "trials": trials,
        "pass": bool(ok),
        "details": details,
        "failure": failure,
    }
    out.write(json.dumps(summary, sort_keys=True) + "\n")
    return EXIT_OK if ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------

def _trial_count(text: str) -> int:
    """--trials: a positive integer, since no trials would check nothing."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blaschke-lab",
        description="Experiments on finite Blaschke products of the unit disc.",
        epilog=f"Tolerance overrides: set {ENV_TOL} to name=value[,name=value...]; "
        f"known names: {', '.join(sorted(TOLERANCES))}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("critical-points", help="critical points and hull membership")
    p.add_argument("spec", help="product spec JSON file")
    p.add_argument("--hull", action="store_true", help="check hyperbolic hull membership")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("converge", help="renormalized conjugate drift toward the rotation")
    p.add_argument("spec")
    p.add_argument("--mode", choices=["radial", "spiral", "alternating"], required=True)
    p.add_argument("--gamma0", required=True, help="boundary target as re,im")
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)

    p = sub.add_parser("plot", help="SVG disc figure of zeros, critical points, hull")
    p.add_argument("spec")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--trials", type=_trial_count, default=None)
    p.add_argument("--seed", type=int, default=7)

    return parser


COMMANDS = {
    "critical-points": cmd_critical_points,
    "converge": cmd_converge,
    "plot": cmd_plot,
    "verify": cmd_verify,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        tol = {**TOLERANCES, **parse_tolerance_overrides(os.environ.get(ENV_TOL, ""))}
        return COMMANDS[args.command](args, tol, out)
    except (SpecFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonConvergenceError, CircleStraddleError, ContourThroughFiberError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
