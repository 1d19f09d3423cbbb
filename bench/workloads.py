"""The benchmark's workloads: inputs made from the seed, the operations of one
round, and the check of every output against oracles.py.

A round is the same list of operations every time, so a run repeats whole
rounds and its failed share does not depend on how many rounds fit.  Inputs
drawn from the seed stay where the program answers correctly on every seed
tried; the inputs that show the program's known faults are fixed and do not
depend on the seed, so they fail in every round of every run.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

import oracles as O
from blaschkelab import blaschke, cli, lab

# Tolerances of the checks (README.md).  The evaluation ones sit well above the
# rounding of the product form in double precision; the root ones are the
# accuracy a returned root must have.
CRIT_STEP = 1e-6       # Newton distance of a critical point to a zero of B', x max(1, |c|)
HULL_TOL = 1e-8        # Klein distance outside the hull, as the hull suite uses
REFLECT_TOL = 1e-6     # interior point vs reflection of an exterior point
FIBER_EVAL = 1e-8      # |B(v) - c| / (1 + |c|), as fiber_solve promises
FIBER_PRODUCT = 1e-4   # relative defect of the rebuilt fiber product; a missing
                       # or repeated point changes it by far more
EVAL_REL = 1e-11       # product-form value, relative
DERIV_SCALED = 1e-6    # |B' - oracle| / (|B| sum |t_k|)
LOGDER_SCALED = 1e-10  # |B'/B - oracle| / sum |t_k|
BOUNDARY_REL = 1e-10   # |B'| on the circle, relative
QUOTIENT_ABS = 1e-8    # Schwarz-Pick quotient against the oracle's
MP_REL = 1e-8          # against the 50-digit roots

# Program faults the fixed inputs show.  An operation carrying one counts as
# failed, not as a wrong answer, when its output fails its check.
ROOTS_FAULT = "root finding on expanded coefficients loses accuracy"
DERIVATIVE_FAULT = "coefficient-form derivative loses accuracy as the order grows"

WORKLOADS = ("verify-suites", "roots-high-order", "near-multiple", "eval-grid")

FBP = blaschke.FiniteBlaschkeProduct


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    name: str
    layer: str                                  # layer whose `failed` count it feeds
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]       # None, or why the output is wrong
    fault: Optional[str] = None                 # known fault this op may show


def build(workload: str, seed: int) -> list:
    """The operations of one round of `workload` for `seed`."""
    index = WORKLOADS.index(workload)
    rng = np.random.default_rng([seed, index, 7919])
    return [verify_suites, roots_high_order, near_multiple, eval_grid][index](rng)


# ---------------------------------------------------------------------------
# inputs

def _disc(rng, n, radius) -> np.ndarray:
    """n points uniform on the disc of the given radius."""
    r = radius * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def _product(rng, order, radius):
    zeros = tuple(complex(z) for z in _disc(rng, order, radius))
    return zeros, complex(np.exp(2j * np.pi * rng.uniform()))


# (order, k) of the fixed products that roots-high-order and eval-grid share
FIXED = ((16, 0), (32, 0), (64, 0), (128, 1))


def fixed_input(order: int, k: int):
    """(zeros, gamma, fiber target) of fixed product k at `order`; the same
    for every seed."""
    rng = np.random.default_rng([order, k])
    zeros, gamma = _product(rng, order, 0.9)
    return zeros, gamma, complex(_disc(rng, 1, 0.8)[0])


def with_critical_point(rng, order, spread):
    """(zeros, gamma, p): a product with a known critical point p.

    Zeros a_1..a_{n-1} are drawn on |z| <= spread, and a_n solves
    sum_k (1/a_k - conj(a_k)) = 0, which makes 0 a critical point; the draw is
    repeated until |a_n| <= spread too.  The involution
    T(z) = (p - z)/(1 - conj(p) z), |p| <= spread/2, then moves the critical
    point to p, since B(T(z)) has zeros T(a_k).
    """
    while True:
        a = list(_disc(rng, order - 1, spread))
        r_sum = -sum(1.0 / x - np.conj(x) for x in a)
        rho = 0.5 * (np.sqrt(abs(r_sum) ** 2 + 4.0) - abs(r_sum))
        if rho <= spread:
            break
    a.append(rho * np.exp(-1j * np.angle(r_sum)))
    p = complex(_disc(rng, 1, 0.5 * spread)[0])
    zeros = tuple(complex((p - x) / (1.0 - np.conj(p) * x)) for x in a)
    return zeros, complex(np.exp(2j * np.pi * rng.uniform())), p


def pair_product(k: int):
    """Fixed product k of order 4k + 4 whose zeros come in pairs 1e-9..1e-4 apart."""
    rng = np.random.default_rng([4 * k + 4, k, 1])
    base = _disc(rng, 2 * k + 2, 0.85)
    gaps = 10.0 ** rng.uniform(-9, -4, size=len(base)) * np.exp(2j * np.pi * rng.uniform(size=len(base)))
    zeros = tuple(complex(z) for z in np.concatenate([base, base + gaps]))
    return zeros, complex(np.exp(2j * np.pi * rng.uniform()))


# ---------------------------------------------------------------------------
# checks

def _expand(pairs) -> list:
    return [p for p, m in pairs for _ in range(m)]


def critical_error(zeros, cs) -> Optional[str]:
    order = len(zeros)
    count = sum(m for _, m in cs.interior)
    if count != order - 1:
        return f"interior multiplicity {count}, expected {order - 1}"
    for p, _ in cs.interior + cs.exterior:
        step = O.critical_newton_step(zeros, p)
        if not step <= CRIT_STEP * max(1.0, abs(p)):
            return f"{p} is {step:.1e} from a zero of B'"
    for p, _ in cs.interior:
        dist = O.hull_distance(zeros, p)
        if dist > HULL_TOL:
            return f"{p} lies {dist:.1e} outside the hull"
    left = O.reflection_unpaired(cs.interior, cs.exterior, REFLECT_TOL)
    if left:
        return f"{len(left)} critical points without a reflected partner"
    return None


def fiber_error(zeros, gamma, c, fiber) -> Optional[str]:
    if len(fiber) != len(zeros):
        return f"{len(fiber)} fiber points, expected {len(zeros)}"
    if max(abs(v) for v in fiber) >= 1.0:
        return "a fiber point is outside the open disc"
    eval_defect, product_defect = O.fiber_defects(zeros, gamma, c, fiber)
    if eval_defect > FIBER_EVAL * (1.0 + abs(c)):
        return f"|B(v) - c| = {eval_defect:.1e}"
    if product_defect > FIBER_PRODUCT:
        return f"fiber incomplete: product defect {product_defect:.1e}"
    return None


def _first(*errors) -> Optional[str]:
    return next((e for e in errors if e), None)


def _worst(measured, reference, scale) -> float:
    return float(np.max(np.abs(np.asarray(measured) - reference) / scale))


# ---------------------------------------------------------------------------
# verify-suites

def _verify_op(suite: str, extra: list) -> Op:
    argv = ["verify", "--suite", suite, *extra]

    def run():
        out = io.StringIO()
        return cli.main(argv, out=out), out.getvalue()

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        doc = json.loads(text)
        if doc.get("suite") != suite or doc.get("pass") is not True:
            return "summary does not say pass: true"
        return None

    return Op(" ".join(argv), f"cli.verify.{suite}", run, check)


def verify_suites(rng) -> list:
    """The six verify suites at default trials through cli.main, at the CLI's
    default seed (7) and at seed 1.  The suite seeds are fixed: each suite
    draws its own random products, and from one suite seed to the next the
    hull and separation suites cost 10-15% more or less, which would bury any
    bound the benchmark could set."""
    suites = ("hull", "converge", "counterexample", "valence", "separation", "fatou")
    return [_verify_op(suite, extra) for extra in ([], ["--seed", "1"]) for suite in suites]


# ---------------------------------------------------------------------------
# roots-high-order

def _critical_op(name, zeros, gamma, fault=None, cross_check=False) -> Op:
    B = FBP(gamma, zeros)

    def check(cs):
        err = critical_error(zeros, cs)
        if err is None and cross_check:
            found = _expand(cs.interior) + _expand(cs.exterior)
            bad = O.unmatched(found, O.mp_critical_points(zeros, gamma), MP_REL)
            err = f"{bad} critical points differ from the 50-digit roots" if bad else None
        return err

    # look the method up at call time, so that tracing sees the call
    return Op(name, "blaschke.critical_points", lambda: B.critical_points(), check, fault)


def _fiber_op(name, zeros, gamma, c, fault=None, cross_check=False, double_at=None) -> Op:
    B = FBP(gamma, zeros)

    def check(fiber):
        err = fiber_error(zeros, gamma, c, fiber)
        if err is None and double_at is not None:
            # |B(v) - c| <= eta allows |v - p| up to sqrt(2 eta / |B''(p)|)
            eta = FIBER_EVAL * (1.0 + abs(c))
            reach = np.sqrt(2.0 * eta / abs(O.second_derivative(zeros, gamma, double_at)))
            near = sorted(abs(v - double_at) for v in fiber)[:2]
            if near[1] > reach:
                err = f"no double root at the critical point ({near[1]:.1e} away, reach {reach:.1e})"
        if err is None and cross_check:
            bad = O.unmatched(fiber, O.mp_fiber(zeros, gamma, c), MP_REL)
            err = f"{bad} fiber points differ from the 50-digit roots" if bad else None
        return err

    return Op(name, "blaschke.fiber_solve", lambda: B.fiber_solve(c), check, fault)


def roots_high_order(rng) -> list:
    """critical_points and fiber_solve on random products with simple zeros
    (|z| <= 0.9, targets |c| <= 0.8).  From the seed: critical points at
    order 8 and fibers at orders 8 and 16, where the program was right on
    every seed tried.  Fixed: critical points at orders 16-128 and fibers at
    32-128, where the expanded-coefficient solver goes wrong on some or all
    inputs.  The first product is cross-checked at 50 digits."""
    ops = []
    for i, order in enumerate((8, 8, 16, 16)):
        zeros, gamma = _product(rng, order, 0.9)
        c = complex(_disc(rng, 1, 0.8)[0])
        if order == 8:
            ops.append(_critical_op(f"critical_points o8 #{i}", zeros, gamma, cross_check=i == 0))
        ops.append(_fiber_op(f"fiber_solve o{order} #{i}", zeros, gamma, c, cross_check=i == 0))
    for order, k in FIXED:
        zeros, gamma, c = fixed_input(order, k)
        ops.append(_critical_op(f"critical_points o{order} fixed#{k}", zeros, gamma, ROOTS_FAULT))
        if order >= 32:
            ops.append(_fiber_op(f"fiber_solve o{order} fixed#{k}", zeros, gamma, c, ROOTS_FAULT))
    return ops


# ---------------------------------------------------------------------------
# near-multiple

def _density_op(a, b, pairs) -> Op:
    def check(result):
        for (m, n), (c, residual) in zip(pairs, result):
            zeros = (a,) * m + (b,) * n
            err = _first(
                residual > 1e-8 and f"collinearity residual {residual:.1e}",
                O.hull_distance([a, b], c) > HULL_TOL and f"{c} is off the geodesic segment",
                O.critical_newton_step(zeros, c) > CRIT_STEP and f"{c} is not a critical point",
            )
            if err:
                return f"(m, n) = ({m}, {n}): {err}"
        return None if len(result) == len(pairs) else "missing family members"

    return Op(f"density_family {len(pairs)} pairs", "lab.density_family",
              lambda: lab.density_family(a, b, pairs), check)


def _density3_op(a, b, c, exps) -> Op:
    zeros = (a,) * exps[0] + (b,) * exps[1] + (c,) * exps[2]

    def check(result):
        for p, flag in result:
            err = _first(
                not flag and f"{p} reported outside the hull",
                O.hull_distance([a, b, c], p) > HULL_TOL and f"{p} lies outside the hull",
                O.critical_newton_step(zeros, p) > CRIT_STEP and f"{p} is not a critical point",
            )
            if err:
                return err
        return None

    return Op(f"density_family3 {tuple(exps)}", "lab.density_family3",
              lambda: lab.density_family3(a, b, c, exps), check)


def _critical_value_ops(rng, order, tag, fault=None) -> list:
    """fiber_solve at a critical value of a product with zeros in |z| <= 0.9
    and at targets 1e-12, 1e-10 and 1e-8 away from it."""
    zeros, gamma, p = with_critical_point(rng, order, 0.8)
    c0 = complex(O.blaschke(zeros, gamma, np.array([p]))[0])
    ops = []
    for delta in (0.0, 1e-12, 1e-10, 1e-8):
        c = c0 + delta * np.exp(2j * np.pi * rng.uniform())
        ops.append(_fiber_op(f"fiber_solve o{order} {tag} critical value + {delta:g}", zeros, gamma, c,
                             fault, double_at=p if delta == 0.0 else None))
    return ops


def near_multiple(rng) -> list:
    """Root finding where multiplicities are real: fibers at and within
    1e-12..1e-8 of a critical value (double roots) at orders 4-16 and the
    power families at orders up to 23, on points drawn from the seed, and
    fixed inputs where the solver fails: a critical value at order 24 and
    products whose zeros come in pairs 1e-9..1e-4 apart.  Orders and
    exponents are fixed so that the work per round does not depend on the
    seed."""
    ops = []
    for i, order in enumerate((4, 8, 12, 16)):
        ops += _critical_value_ops(rng, order, f"#{i}")
    for pairs in (((1, 1), (3, 2), (6, 9), (11, 12)), ((2, 5), (4, 4), (7, 3), (12, 10))):
        a, b = (complex(z) for z in _disc(rng, 2, 0.8))
        ops.append(_density_op(a, b, pairs))
    for exps in ((2, 3, 4), (5, 1, 7)):
        a, b, c = (complex(z) for z in _disc(rng, 3, 0.8))
        ops.append(_density3_op(a, b, c, exps))
    ops += _critical_value_ops(np.random.default_rng([24, 10, 3]), 24, "fixed#10", ROOTS_FAULT)
    for k in range(6):
        zeros, gamma = pair_product(k)
        ops.append(_critical_op(f"critical_points o{len(zeros)} pairs fixed#{k}", zeros, gamma, ROOTS_FAULT))
    return ops


# ---------------------------------------------------------------------------
# eval-grid

def _eval_ops(tag, zeros, gamma, grid, thetas, fault=None) -> list:
    B = FBP(gamma, zeros)
    circle = np.exp(1j * thetas)

    def check_eval(values):
        ref = O.blaschke(zeros, gamma, grid)
        return _first(
            _worst(values, ref, np.abs(ref)) > EVAL_REL and "eval differs from the product",
            np.max(np.abs(values)) >= 1.0 and "|B| >= 1 inside the disc",
        )

    def check_circle(values):
        ref = O.blaschke(zeros, gamma, circle)
        return _first(
            _worst(values, ref, 1.0) > EVAL_REL and "eval differs on the circle",
            np.max(np.abs(np.abs(values) - 1.0)) > 1e-12 and "|B| != 1 on the circle",
        )

    def check_derivative(values):
        ref, scale = O.derivative(zeros, gamma, grid)
        worst = _worst(values, ref, scale)
        return f"derivative off by {worst:.1e} of |B| sum|t_k|" if worst > DERIV_SCALED else None

    def check_log_derivative(values):
        ref, size = O.log_derivative(zeros, grid)
        return "log_derivative differs" if _worst(values, ref, size) > LOGDER_SCALED else None

    def check_boundary(values):
        ref = O.boundary_derivative_modulus(zeros, thetas)
        return "boundary_derivative_modulus != |B'|" if _worst(values, ref, ref) > BOUNDARY_REL else None

    n = f"o{len(zeros)} {tag}"
    return [
        Op(f"eval {n} {grid.size} points", "blaschke.eval", lambda: B.eval(grid), check_eval),
        Op(f"eval {n} circle", "blaschke.eval", lambda: B.eval(circle), check_circle),
        Op(f"derivative {n} {grid.size} points", "blaschke.derivative", lambda: B.derivative(grid),
           check_derivative, fault),
        Op(f"log_derivative {n}", "blaschke.log_derivative", lambda: B.log_derivative(grid),
           check_log_derivative),
        Op(f"boundary_derivative_modulus {n}", "blaschke.boundary_derivative_modulus",
           lambda: B.boundary_derivative_modulus(thetas), check_boundary),
    ]


def _quotient_oracle(zeros, gamma, z):
    b = O.blaschke(zeros, gamma, z)
    d, _ = O.derivative(zeros, gamma, z)
    return (1.0 - np.abs(z) ** 2) * np.abs(d) / (1.0 - np.abs(b) ** 2)


def _scalar_eval_op(zeros, gamma, pts) -> Op:
    B = FBP(gamma, zeros)

    def check(values):
        ref = O.blaschke(zeros, gamma, pts)
        return "scalar eval differs" if _worst(values, ref, np.abs(ref)) > EVAL_REL else None

    return Op(f"scalar eval o{len(zeros)} x{len(pts)}", "blaschke.eval",
              lambda: [B.eval(complex(z)) for z in pts], check)


def _quotient_op(zeros, gamma, pts) -> Op:
    B = FBP(gamma, zeros)

    def check(values):
        return _first(
            max(values) > 1.0 + 1e-12 and "Schwarz-Pick quotient above 1",
            _worst(values, _quotient_oracle(zeros, gamma, pts), 1.0) > QUOTIENT_ABS and "quotient differs",
        )

    return Op(f"fatou_quotient o{len(zeros)} x{len(pts)}", "lab.fatou_quotient",
              lambda: [lab.fatou_quotient(B, complex(z)) for z in pts], check)


def _scan_op(zeros, gamma, radii, angles) -> Op:
    B = FBP(gamma, zeros)
    thetas = 2.0 * np.pi * np.arange(angles) / angles

    def check(scan):
        ref = [float(np.min(_quotient_oracle(zeros, gamma, r * np.exp(1j * thetas)))) for r in radii]
        return _first(
            _worst([q for _, q in scan], ref, 1.0) > QUOTIENT_ABS and "scan minima differ",
            any(q > 1.0 + 1e-12 for _, q in scan) and "Schwarz-Pick quotient above 1",
            abs(1.0 - scan[-1][1]) > 1e-3 and "boundary minimum is not near 1",
        )

    return Op(f"fatou_limit_scan o{len(zeros)}", "lab.fatou_limit_scan",
              lambda: lab.fatou_limit_scan(B, radii, angles), check)


def _converge_op(zeros, gamma, g0, mode) -> Op:
    B = FBP(gamma, zeros)
    spec = lab.SequenceSpec(g0, mode, 0.33, 14)

    def check(records):
        d, _ = O.derivative(zeros, gamma, np.array([spec.gamma0]))
        rot = d[0] / abs(d[0])
        return _first(
            records[-1].sup_deviation >= 1e-6 and f"final deviation {records[-1].sup_deviation:.1e}",
            abs(records[-1].rotation_constant - rot) > 1e-10 and "rotation constant differs",
        )

    return Op(f"convergence_experiment o{len(zeros)} {mode}", "lab.convergence_experiment",
              lambda: lab.convergence_experiment(B, spec, 0.9), check)


def valence_radius(zeros, w) -> float:
    """A contour radius with the whole fiber of w inside, found without root
    finding: on |z| = r, |B| >= prod_k (r - |a_k|)/(1 - r |a_k|), so once that
    bound exceeds |w| + 0.1 no fiber point lies on or beyond the contour."""
    mods = np.abs(np.asarray(zeros))
    for r in (0.9, 0.95, 0.98, 0.99, 0.995, 0.998, 0.999):
        if np.prod((r - mods) / (1.0 - r * mods)) >= abs(w) + 0.1:
            return r
    raise ValueError("no contour radius separates the fiber from the circle")


def _valence_op(zeros, gamma, w) -> Op:
    B = FBP(gamma, zeros)
    radius = valence_radius(zeros, w)

    def check(rep):
        if rep.valence != len(zeros) or rep.residual >= 0.05:
            return f"valence {rep.valence} (residual {rep.residual:.2e}), order {len(zeros)}"
        return None

    return Op(f"valence o{len(zeros)}", "lab.valence", lambda: lab.valence(B, w, radius, 4096), check)


def eval_grid(rng) -> list:
    """Evaluation without root finding: eval, derivative, log_derivative and
    boundary_derivative_modulus on 10^3..10^5 points at orders 4-16 from the
    seed and at fixed orders 32, 64 and 128 (where the derivative is off on
    some or all inputs), scalar calls, and the experiments built on
    evaluation (convergence, Fatou scan, winding-number valence)."""
    ops = []
    prods = {}
    for order, npts in ((4, 100_000), (8, 30_000), (16, 10_000)):
        zeros, gamma = _product(rng, order, 0.9)
        prods[order] = (zeros, gamma)
        ops += _eval_ops("", zeros, gamma, _disc(rng, npts, 0.99), 2.0 * np.pi * rng.uniform(size=4096))
    for (order, k), npts in zip(FIXED[1:], (10_000, 3000, 100_000)):
        zeros, gamma, _ = fixed_input(order, k)
        fixed = np.random.default_rng([order, k, 2])
        ops += _eval_ops(f"fixed#{k}", zeros, gamma, _disc(fixed, npts, 0.99),
                         2.0 * np.pi * fixed.uniform(size=4096), DERIVATIVE_FAULT)
    ops.append(_scalar_eval_op(*prods[16], _disc(rng, 300, 0.95)))
    for order in (8, 16):
        ops.append(_quotient_op(*prods[order], _disc(rng, 100, 0.97)))
    for order in (8, 16):
        ops.append(_scan_op(*prods[order], [0.9, 0.99, 0.999, 1.0 - 1e-4], 256))
    for order in (3, 5):
        zeros, gamma = _product(rng, order, 0.6)
        g0 = complex(np.exp(2j * np.pi * rng.uniform()))
        ops += [_converge_op(zeros, gamma, g0, mode) for mode in ("radial", "spiral")]
    for order in (4, 8, 16):
        zeros, gamma = _product(rng, order, 0.8)
        ops.append(_valence_op(zeros, gamma, complex(_disc(rng, 1, 0.3)[0])))
    return ops
