"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; the whole
suite is deterministic (fixed PCG64 seeds) and designed to finish well under
a minute.
"""

import math
import time

import numpy as np
import pytest

from blaschkelab import (
    FiniteBlaschkeProduct,
    SequenceSpec,
    convergence_experiment,
    counterexample_run,
    default_valence_radius,
    density_family,
    density_family3,
    derivative_at_zero_identity,
    euclidean_convex_hull,
    fatou_limit_scan,
    fatou_quotient,
    geodesic_point,
    hull_contains,
    hyperbolic_convex_hull,
    klein_to_poincare,
    poincare_to_klein,
    random_product,
    rotation_constant,
    separation_estimate,
    valence,
)
from blaschkelab.cli import _VALENCE_RESIDUAL
from blaschkelab.hyperbolic import _point_segment_distance
from blaschkelab.moebius import DiscAutomorphism, automorphism_eval, automorphism_inverse

HULL_TOL = 1e-8
REFLECTION_TOL = 1e-8


def report(name, ok, **stats):
    tag = "PASS" if ok else "FAIL"
    extra = "  ".join(f"{k}={v}" for k, v in stats.items())
    print(f"{tag} {name}  {extra}")
    assert ok, f"{name}: {extra}"


def rand_disc(rng, radius):
    return radius * math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


_corpus_cache = {}


def corpus_200():
    """200 random products of order 2..8 with zeros in |z| <= 0.9, with their
    critical sets and zero hulls (shared by criteria 1 and 2)."""
    if "c200" not in _corpus_cache:
        rng = np.random.default_rng(np.random.PCG64(20240817))
        items = []
        for _ in range(200):
            order = int(rng.integers(2, 9))
            B = random_product(rng, order, 0.9)
            items.append((B, B.critical_points(), hyperbolic_convex_hull(B.zeros)))
        _corpus_cache["c200"] = items
    return _corpus_cache["c200"]


def test_criterion_01_hull_containment():
    t0 = time.time()
    checked = 0
    ok = True
    for B, cs, hull in corpus_200():
        for p, m in cs.interior:
            checked += m
            if not hull_contains(hull, p, HULL_TOL):
                ok = False
    elapsed = time.time() - t0
    report(
        "criterion-01 hull-containment",
        ok and elapsed < 10.0,
        products=200,
        interior_points=checked,
        seconds=round(elapsed, 2),
    )


def test_criterion_02_critical_count_and_reflection():
    count_ok = pairing_ok = True
    for B, cs, _ in corpus_200():
        if sum(m for _, m in cs.interior) != B.order - 1:
            count_ok = False
        interior_pts = [p for p, m in cs.interior for _ in range(m)]
        exterior_pts = [e for e, m in cs.exterior for _ in range(m)]
        for e in exterior_pts:
            if min(abs(1.0 / np.conj(e) - p) for p in interior_pts) > REFLECTION_TOL:
                pairing_ok = False
        # reverse direction: every interior point away from the origin has a
        # mirror outside (reflections of origin points escape to infinity)
        for p in interior_pts:
            if abs(p) > 1e-6:
                if not exterior_pts or min(
                    abs(1.0 / np.conj(e) - p) for e in exterior_pts
                ) > REFLECTION_TOL:
                    pairing_ok = False
    report(
        "criterion-02 critical-count-and-reflection",
        count_ok and pairing_ok,
        count_ok=count_ok,
        pairing_ok=pairing_ok,
    )


def test_criterion_03_conjugate_convergence():
    # rate is free in the experiment design; the z^2 family converges second
    # order and tolerates (needs) a larger rate than the generic corpus
    cases = [(FiniteBlaschkeProduct.monomial(2), 1.0 + 0j, 0.45)]
    rng = np.random.default_rng(np.random.PCG64(31))
    for _ in range(10):
        order = int(rng.integers(2, 6))
        cases.append((random_product(rng, order, 0.6), np.exp(2j * np.pi * rng.uniform()), 0.33))
    ok = True
    worst_final = 0.0
    for B, g0, rate in cases:
        for mode in ("radial", "spiral"):
            recs = convergence_experiment(B, SequenceSpec(g0, mode, rate, 14), 0.9)
            devs = [r.sup_deviation for r in recs]
            worst_final = max(worst_final, devs[-1])
            if devs[-1] >= 1e-6:
                ok = False
            if not all(devs[i] > devs[i + 1] for i in range(len(devs) - 5, len(devs) - 1)):
                ok = False
            if abs(recs[-1].rotation_constant - rotation_constant(B, g0)) > 1e-12:
                ok = False
    report(
        "criterion-03 conjugate-convergence",
        ok,
        cases=len(cases) * 2,
        worst_final=f"{worst_final:.2e}",
    )


def test_criterion_04_counterexample():
    res = counterexample_run(16)
    renorm = res.renormalized_deviation
    ok = (
        res.even_limit_deviation < 1e-6
        and res.odd_limit_deviation < 1e-6
        and renorm < 1e-6
        and res.unrenormalized_oscillation > 1.0
    )
    report(
        "criterion-04 counterexample",
        ok,
        even=f"{res.even_limit_deviation:.2e}",
        odd=f"{res.odd_limit_deviation:.2e}",
        renormalized=f"{renorm:.2e}",
        oscillation=f"{res.unrenormalized_oscillation:.3f}",
    )


def test_criterion_05_derivative_identity():
    rng = np.random.default_rng(np.random.PCG64(5))
    worst = 0.0
    for _ in range(100):
        order = int(rng.integers(1, 6))
        B = random_product(rng, order, 0.8)
        a = rand_disc(rng, 0.8)
        g = np.exp(2j * np.pi * rng.uniform())
        lhs, rhs = derivative_at_zero_identity(B, a, g)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    report(
        "criterion-05 derivative-at-zero-identity",
        worst <= 1e-9,
        trials=100,
        worst_residual=f"{worst:.2e}",
    )


def test_criterion_06_boundary_derivative():
    rng = np.random.default_rng(np.random.PCG64(6))
    worst = 0.0
    thetas = 2 * np.pi * np.arange(36) / 36
    for _ in range(50):
        order = int(rng.integers(1, 11))
        B = random_product(rng, order, 0.9)
        lhs = B.boundary_derivative_modulus(thetas)
        rhs = np.abs(B.derivative(np.exp(1j * thetas)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
    mono_ok = all(
        abs(FiniteBlaschkeProduct.monomial(n).boundary_derivative_modulus(0.42) - n) <= 1e-12
        for n in range(1, 9)
    )
    report(
        "criterion-06 boundary-derivative-formula",
        worst < 1e-10 and mono_ok,
        worst_rel=f"{worst:.2e}",
        monomials_exact=mono_ok,
    )


def test_criterion_07_fatou_quotient():
    rng = np.random.default_rng(np.random.PCG64(77))
    slack_ok = order1_ok = strict_ok = scan_ok = True
    worst_scan = 0.0
    for _ in range(10):
        order = int(rng.integers(1, 11))
        B = random_product(rng, order, 0.9)
        for _ in range(20):
            z = rand_disc(rng, 0.97)
            q = fatou_quotient(B, z)
            if q > 1.0 + 1e-12:
                slack_ok = False
            if order == 1 and abs(q - 1.0) > 1e-12:
                order1_ok = False
        if order >= 2:
            # equality must be exclusive to order 1: the quotient collapses
            # to 0 at every interior critical point
            p = B.critical_points().interior[0][0]
            if fatou_quotient(B, p) > 1e-9:
                strict_ok = False
        scan = fatou_limit_scan(B, [0.9, 0.99, 0.999, 1.0 - 1e-4], 256)
        gap = abs(1.0 - scan[-1][1])
        worst_scan = max(worst_scan, gap)
        if gap > 1e-3:
            scan_ok = False
    report(
        "criterion-07 fatou-quotient",
        slack_ok and order1_ok and strict_ok and scan_ok,
        schwarz_pick=slack_ok,
        order1_equality=order1_ok,
        strictness_below_order1=strict_ok,
        worst_scan_gap=f"{worst_scan:.2e}",
    )


def test_criterion_08_valence():
    rng = np.random.default_rng(np.random.PCG64(8))
    ok = True
    worst = 0.0
    for _ in range(20):
        order = int(rng.integers(1, 7))
        B = random_product(rng, order, 0.85)
        w = rand_disc(rng, 0.6)
        radius = default_valence_radius(B, w)
        rep = valence(B, w, radius, 4096)
        inside = sum(1 for v in B.fiber_solve(w) if abs(v) < radius)
        worst = max(worst, rep.residual)
        if not (rep.valence == order == inside and rep.residual <= _VALENCE_RESIDUAL):
            ok = False
    report("criterion-08 valence", ok, trials=20, worst_residual=f"{worst:.2e}")


def test_criterion_09_separation():
    est = separation_estimate(FiniteBlaschkeProduct.monomial(2), 0.8, 32)
    square_ok = est.delta >= 1.6 - 1e-9
    rng = np.random.default_rng(np.random.PCG64(9))
    random_ok = True
    for _ in range(20):
        order = int(rng.integers(2, 7))
        B = random_product(rng, order, 0.9)
        M = max(abs(z) for z in B.zeros) + 0.05
        est = separation_estimate(B, M, 32)
        good = est.delta > 0 and est.witness_pair is not None
        if good:
            w1, w2 = est.witness_pair
            good = (
                abs(B.eval(w1) - B.eval(w2)) <= 1e-8
                and all(M * (1 - 1e-9) <= abs(w) <= (1 / M) * (1 + 1e-9) for w in (w1, w2))
            )
        random_ok = random_ok and good
    report(
        "criterion-09 separation",
        square_ok and random_ok,
        square_bound=square_ok,
        random_witnesses=random_ok,
    )


def test_criterion_10_density_families():
    rng = np.random.default_rng(np.random.PCG64(10))
    pairs = [(m, n) for m in range(1, 7) for n in range(1, 7)]
    worst = 0.0
    two_ok = True
    for _ in range(10):
        a = rand_disc(rng, 0.8)
        b = rand_disc(rng, 0.8)
        if abs(a - b) < 0.05:
            b = -b
        hull = hyperbolic_convex_hull([a, b])
        for c, res in density_family(a, b, pairs):
            worst = max(worst, res)
            if res >= 1e-8 or not hull_contains(hull, c, HULL_TOL):
                two_ok = False
    rng = np.random.default_rng(np.random.PCG64(11))
    three_ok = True
    for _ in range(5):
        pts = [rand_disc(rng, 0.75) for _ in range(3)]
        if min(abs(pts[0] - pts[1]), abs(pts[0] - pts[2]), abs(pts[1] - pts[2])) < 0.05:
            continue
        for m in range(1, 5):
            for n in range(1, 5):
                for p in range(1, 5):
                    if not all(inh for _, inh in density_family3(*pts, (m, n, p))):
                        three_ok = False
    report(
        "criterion-10 density-families",
        two_ok and three_ok,
        worst_collinearity=f"{worst:.2e}",
        three_factor_in_hull=three_ok,
    )


def _eucl_contains(pts, z, tol):
    idx = euclidean_convex_hull(pts)
    hp = [pts[i] for i in idx]
    if len(hp) == 1:
        return abs(z - hp[0]) <= tol
    if len(hp) == 2:
        return _point_segment_distance(z, hp[0], hp[1]) <= tol
    m = len(hp)
    for i in range(m):
        a, b = hp[i], hp[(i + 1) % m]
        cr = (b.real - a.real) * (z.imag - a.imag) - (b.imag - a.imag) * (z.real - a.real)
        if cr / abs(b - a) < -tol:
            return False
    return True


def _hull_samples(hull):
    vs = hull.poincare_vertices
    pts = list(vs)
    if len(vs) >= 2:
        for i in range(len(vs)):
            z1, z2 = vs[i], vs[(i + 1) % len(vs)]
            for t in np.linspace(0.0, 1.0, 9):
                pts.append(geodesic_point(z1, z2, t))
    return pts


def test_criterion_11_geometry_kernel():
    rng = np.random.default_rng(np.random.PCG64(12))
    worst_rt = 0.0
    for _ in range(1000):
        p = rand_disc(rng, 0.999)
        worst_rt = max(worst_rt, abs(klein_to_poincare(poincare_to_klein(p)) - p))
    roundtrip_ok = worst_rt <= 1e-12

    rng = np.random.default_rng(np.random.PCG64(13))
    equiv_ok = True
    for _ in range(50):
        npts = int(rng.integers(2, 7))
        S = [rand_disc(rng, 0.8) for _ in range(npts)]
        T = DiscAutomorphism(rand_disc(rng, 0.7), np.exp(2j * np.pi * rng.uniform()))
        h1 = hyperbolic_convex_hull(S)
        h2 = hyperbolic_convex_hull([automorphism_eval(T, s) for s in S])
        Tinv = automorphism_inverse(T)
        for s in _hull_samples(h1):
            if not hull_contains(h2, automorphism_eval(T, s), 1e-8):
                equiv_ok = False
        for s in _hull_samples(h2):
            if not hull_contains(h1, automorphism_eval(Tinv, s), 1e-8):
                equiv_ok = False

    rng = np.random.default_rng(np.random.PCG64(14))
    euclid_ok = True
    for _ in range(50):
        npts = int(rng.integers(2, 7))
        S = [rand_disc(rng, 0.85) for _ in range(npts)]
        h = hyperbolic_convex_hull(S)
        bigger = S + [0j]
        for s in _hull_samples(h):
            if not _eucl_contains(bigger, s, 1e-9):
                euclid_ok = False

    report(
        "criterion-11 geometry-kernel",
        roundtrip_ok and equiv_ok and euclid_ok,
        klein_roundtrip=f"{worst_rt:.2e}",
        equivariance=equiv_ok,
        euclidean_comparison=euclid_ok,
    )
