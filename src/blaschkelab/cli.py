"""Command-line front end: product spec files, experiments, CSV/JSON/SVG output.

Exit codes: 0 success, 1 assertion/theorem violation, 2 usage or parse error,
3 numerical failure, 4 I/O error.  Output is byte-identical for identical
(flags, seed) pairs; floats in CSV are printed with 17 significant digits so
they round-trip exactly.  Random products come from numpy's PCG64 generator.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .blaschke import ZERO_MARGIN, FiniteBlaschkeProduct, critical_sets, fiber_sets
from .errors import (
    CircleStraddleError,
    ContourThroughFiberError,
    NonConvergenceError,
)
from .hyperbolic import _contains_rows, _hull_rows, geodesic_point, hull_contains, hyperbolic_convex_hull
from .lab import (
    COUNTEREXAMPLE_RATE,
    _separation_scan,
    _separation_targets,
    SequenceSpec,
    convergence_experiment,
    counterexample_run,
    default_valence_radius,
    fatou_limit_scan,
    fatou_quotient,
    random_product,
    valence,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# pass thresholds of the checks; fixed, so that stdout depends only on the
# flags and the seed and a serialized failure replays exactly
HULL_TOL = 1e-8             # Klein-model membership tolerance
REFLECTION_TOL = 1e-8       # interior/exterior critical pairing
CONVERGE_FINAL = 1e-6       # final sup deviation of the conjugates
ROTATION_MATCH = 1e-12      # rotation constant against the boundary identity
COUNTEREXAMPLE_DEV = 1e-6   # even/odd/renormalized limit deviations, above noise
FATOU_SLACK = 1e-12         # Schwarz-Pick upper slack
FATOU_SCAN = 1e-3           # distance of boundary scan minima to 1

# N arcs give N principal args, each within 7 u of exact (u = 2**-53), summed
# with error at most (N - 1) N pi u: the winding integral is within N^2 u of
# its integer.  The suite's contours pass on their N = 4096 starting arcs.
_VALENCE_RESIDUAL = 4096 ** 2 * 2.0 ** -53


class SpecFileError(ValueError):
    pass


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
        if not abs(z) < 1.0 - ZERO_MARGIN:
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

def cmd_critical_points(args, out) -> int:
    B = load_product_spec(args.spec)
    cs = B.critical_points()
    hull = hyperbolic_convex_hull(B.zeros) if args.hull else None
    rows = []
    violation = False
    for region, pairs in (("interior", cs.interior), ("exterior", cs.exterior)):
        for p, mult in pairs:
            if hull is not None and region == "interior":
                member = hull_contains(hull, p, HULL_TOL)
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

def cmd_converge(args, out) -> int:
    B = load_product_spec(args.spec)
    gamma0 = _parse_complex_flag(args.gamma0, "--gamma0")
    spec = SequenceSpec(gamma0, args.mode, args.rate, args.count)
    records = convergence_experiment(B, spec, args.radius)
    out.write("k,a_re,a_im,gamma_re,gamma_im,sup_deviation,rot_re,rot_im\n")
    for r in records:
        values = (r.a.real, r.a.imag, r.gamma.real, r.gamma.imag, r.sup_deviation, r.rotation_constant.real,
                  r.rotation_constant.imag)
        out.write(",".join([str(r.k)] + [_g17(x) for x in values]) + "\n")
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


def cmd_plot(args, out) -> int:
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


def _rows(lists, fill=None) -> np.ndarray:
    """The lists as the rows of one array, each padded to the longest with
    fill, or with copies of its own first entry."""
    width = max(map(len, lists))
    return np.array([list(r) + [r[0] if fill is None else fill] * (width - len(r)) for r in lists])


def _suite_hull(trials: int, rng):
    # all products are drawn, then solved in one batch, then checked in array
    # passes over all of them, of which the first to fail in draw order is reported
    products = [random_product(rng, int(rng.integers(2, 9)), 0.9) for _ in range(trials)]
    sets = critical_sets(products)
    points = _rows([[p for p, _ in cs.interior] for cs in sets], 0j)
    mult = _rows([[m for _, m in cs.interior] for cs in sets], 0)
    outer = _rows([[e for e, _ in cs.exterior] for cs in sets], 1.0 + 0j)
    counted = mult.sum(axis=1)
    short = counted != np.array([B.order - 1 for B in products])
    outside = (mult > 0) & ~_contains_rows(_hull_rows(_rows([B.zeros for B in products])), points, HULL_TOL)
    gap = np.abs(1.0 / np.conj(outer)[:, :, None] - points[:, None, :])
    gap = np.where(mult[:, None, :] > 0, gap, np.inf).min(axis=2, initial=np.inf)
    unpaired = (np.arange(outer.shape[1]) < np.array([[len(cs.exterior)] for cs in sets])) & (gap > REFLECTION_TOL)
    failed = short | outside.any(axis=1) | unpaired.any(axis=1)
    if not failed.any():
        return True, {"interior_points_checked": int(counted.sum())}, None
    k = int(np.argmax(failed))
    B, cs, checked = products[k], sets[k], int(counted[:k].sum())
    if short[k]:
        return False, {"checked": checked}, {"reason": "interior count", **_serialize_product(B)}
    if outside[k].any():
        j = int(np.argmax(outside[k]))
        p = cs.interior[j][0]
        return False, {"checked": checked + int(mult[k, :j + 1].sum())}, {
            "reason": "hull containment",
            "critical_point": [p.real, p.imag],
            **_serialize_product(B),
        }
    e = cs.exterior[int(np.argmax(unpaired[k]))][0]
    return False, {"checked": checked + int(counted[k])}, {
        "reason": "reflection pairing",
        "exterior_point": [e.real, e.imag],
        **_serialize_product(B),
    }


def _suite_converge(trials: int, rng):
    cases = [(FiniteBlaschkeProduct.monomial(2), 1.0 + 0j, 0.45)]
    for _ in range(trials):
        order = int(rng.integers(2, 6))
        cases.append(
            (random_product(rng, order, 0.6), np.exp(2j * np.pi * rng.uniform()), 0.33)
        )
    final_devs = []
    for B, g0, rate in cases:
        # on the circle zeta B'(zeta)/B(zeta) = |B'(zeta)|, so the rotation
        # B'(gamma0)/|B'(gamma0)| is also B(gamma0) conj(gamma0)/|B(gamma0)|,
        # which takes no derivative
        g = g0 / abs(g0)
        b = B.eval(g)
        rot = b * g.conjugate() / abs(b)
        for mode in ("radial", "spiral"):
            recs = convergence_experiment(B, SequenceSpec(g0, mode, rate, 14), 0.9)
            devs = [r.sup_deviation for r in recs]
            # the conjugates round to about eps/(1 - |a_k|), which grows as a_k
            # nears the circle (on seeds 1000-1039 the largest error against a
            # 40-digit composition was 5.2x that); a deviation below 16x that
            # floor is noise, so it need not be smaller than the one before
            floors = [16.0 * np.finfo(float).eps / (1.0 - abs(r.a)) for r in recs]
            ok = devs[-1] < CONVERGE_FINAL and all(
                devs[i] > devs[i + 1] or devs[i + 1] <= floors[i + 1]
                for i in range(len(devs) - 5, len(devs) - 1)
            )
            if not ok:
                return False, {"final_devs": final_devs}, {
                    "reason": "convergence",
                    "mode": mode,
                    "devs": devs,
                    **_serialize_product(B),
                }
            got = recs[-1].rotation_constant
            if not abs(got - rot) <= ROTATION_MATCH:
                return False, {"final_devs": final_devs}, {
                    "reason": "rotation constant",
                    "mode": mode,
                    "rotation_constant": [got.real, got.imag],
                    "boundary_identity": [rot.real, rot.imag],
                    **_serialize_product(B),
                }
            final_devs.append(devs[-1])
    return True, {"max_final_dev": max(final_devs)}, None


def _suite_counterexample(trials: int, rng):
    count = max(16, trials)
    res = counterexample_run(count)
    # as in the converge suite, a deviation at or below 16x the rounding floor
    # eps/(1 - |a_k|) of the conjugates is noise; 1 - |a_k| = rate**k,
    # eps = 2**-52, and k = count - 1, the smaller floor of the last two terms,
    # which stays below 1e-6 up to count = 19
    floor = 16.0 * 2.0 ** -52 / COUNTEREXAMPLE_RATE ** (count - 1)
    even, odd, renorm = (
        dev < COUNTEREXAMPLE_DEV or dev <= floor
        for dev in (res.even_limit_deviation, res.odd_limit_deviation, res.renormalized_deviation)
    )
    details = {
        "even_limit_deviation": res.even_limit_deviation,
        "odd_limit_deviation": res.odd_limit_deviation,
        "unrenormalized_oscillation": res.unrenormalized_oscillation,
        "renormalized_deviation": res.renormalized_deviation,
        "even_tends_to_plus_z": even,
        "odd_tends_to_minus_z": odd,
    }
    ok = even and odd and renorm and res.unrenormalized_oscillation > 1.0
    return ok, details, None if ok else {"reason": "counterexample", **details}


def _suite_valence(trials: int, rng):
    # all products and targets are drawn, their fibers solved in one batch,
    # then checked in order
    draws = []
    for _ in range(trials):
        B = random_product(rng, int(rng.integers(1, 7)), 0.85)
        draws.append((B, 0.6 * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())))
    for (B, w), fiber in zip(draws, fiber_sets(*zip(*draws))):
        radius = default_valence_radius(B, w, fiber)
        rep = valence(B, w, radius, 4096)
        inside = sum(1 for v in fiber if abs(v) < radius)
        if not (rep.valence == B.order == inside and rep.residual <= _VALENCE_RESIDUAL):
            return False, {}, {
                "reason": "valence",
                "w": [w.real, w.imag],
                "valence": rep.valence,
                "residual": rep.residual,
                **_serialize_product(B),
            }
    return True, {"trials": trials}, None


def _suite_separation(trials: int, rng):
    # z^2 on 0.8 <= |z| <= 1/0.8 first, then the drawn products, each on its
    # annulus from 0.05 beyond its outermost zero; all are drawn, their
    # fibers solved in one batch, then checked in order
    products, annuli = [FiniteBlaschkeProduct.monomial(2)], [0.8]
    for _ in range(trials):
        B = random_product(rng, int(rng.integers(2, 7)), 0.9)
        products.append(B)
        annuli.append(max(abs(z) for z in B.zeros) + 0.05)
    targets = [_separation_targets(B, M, 32) for B, M in zip(products, annuli)]
    for k, (B, M, fibers) in enumerate(zip(products, annuli, fiber_sets(products, targets))):
        est = _separation_scan(fibers, M, 32)
        if k == 0:
            if not est.delta >= 1.6 - 1e-9:
                return False, {}, {"reason": "z^2 antipodal bound", "delta": est.delta}
            continue
        ok = est.delta > 0 and est.witness_pair is not None
        if ok:
            w1, w2 = est.witness_pair
            ok = abs(B.eval(w1) - B.eval(w2)) <= 1e-8
        if not ok:
            return False, {}, {"reason": "separation", "M": M, **_serialize_product(B)}
    return True, {"trials": trials}, None


def _suite_fatou(trials: int, rng):
    for _ in range(trials):
        order = int(rng.integers(1, 11))
        B = random_product(rng, order, 0.9)
        # 20 points, each a radius and an angle drawn in turn, all in one evaluation;
        # checked in the order drawn
        u = rng.uniform(size=(20, 2))
        zs = 0.97 * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
        for z, q in zip(zs.tolist(), fatou_quotient(B, zs).tolist()):
            if q > 1.0 + FATOU_SLACK:
                return False, {}, {"reason": "Schwarz-Pick", "z": [z.real, z.imag], "q": q,
                                   **_serialize_product(B)}
            if order == 1 and abs(q - 1.0) > FATOU_SLACK:
                return False, {}, {"reason": "order-1 equality", "q": q, **_serialize_product(B)}
        scan = fatou_limit_scan(B, [0.9, 0.99, 0.999, 1.0 - 1e-4], 256)
        if abs(1.0 - scan[-1][1]) > FATOU_SCAN:
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


def cmd_verify(args, out) -> int:
    runner, default_trials = SUITES[args.suite]
    trials = args.trials if args.trials is not None else default_trials
    rng = np.random.default_rng(np.random.PCG64(args.seed))
    ok, details, failure = runner(trials, rng)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="blaschke-lab",
        description="Experiments on finite Blaschke products of the unit disc.",
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
        return COMMANDS[args.command](args, out)
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
