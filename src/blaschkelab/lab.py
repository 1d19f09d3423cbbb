"""Numerical experiments on finite Blaschke products.

The experiments check, at desk scale, that

* interior critical points lie in the hyperbolic convex hull of the zeros,
* conjugating by automorphisms drifting to a boundary point gamma0 and
  renormalizing by conj(gamma_k) yields maps converging uniformly on
  compacts to the rotation by B'(gamma0)/|B'(gamma0)|,
* dropping the conj(gamma_k) renormalization breaks convergence (the
  alternating-sign family oscillates between the rotations z and -z),
* the Schwarz-Pick quotient (1-|z|^2)|B'(z)| / (1-|B(z)|^2) stays below 1
  and tends to 1 at the boundary,
* the valence (winding count of B around any target value) equals the order,
* fibers near the boundary are uniformly separated,
* the two- and three-factor power families trace out geodesics and hulls.

Everything is deterministic: sequences come from closed-form generators,
sampling angles use golden-ratio rotation, and random products are drawn
from a caller-supplied numpy Generator (PCG64 in the documented suites).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .blaschke import _CHUNK, ZERO_MARGIN, FiniteBlaschkeProduct, critical_sets
from .errors import (
    ContourThroughFiberError,
    BoundaryProximityError,
    ExtractionAmbiguityError,
    InvalidAnnulusError,
)
from .hyperbolic import collinearity_residual, hull_contains, hyperbolic_convex_hull
from .moebius import POLE_TOL, DiscAutomorphism, automorphism_eval
from .polyroots import _BLOCK

GOLDEN_FRAC = 0.6180339887498949
MATCH_TOL = 1e-7
# a_k = (1 - COUNTEREXAMPLE_RATE**k) gamma_k in `counterexample_run`
COUNTEREXAMPLE_RATE = 0.35


@dataclass(frozen=True)
class SequenceSpec:
    """Closed-form generator for boundary-drifting automorphism parameters.

    All modes satisfy a_k * gamma_k -> gamma0:

    * radial:       a_k = (1 - rate**k) gamma0,                  gamma_k = 1
    * spiral:       a_k = (1 - rate**k) gamma0 exp(-i rate**k),  gamma_k = exp(i rate**k)
    * alternating:  a_k = (1 - rate**k) gamma0 gamma_k,          gamma_k = (-1)**k

    The alternating mode absorbs the sign flips into a_k so the product
    a_k gamma_k still converges while gamma_k itself does not; it is the
    family on which the un-renormalized conjugates fail to converge.
    """

    gamma0: complex
    mode: str
    rate: float
    count: int

    def __post_init__(self):
        g = complex(self.gamma0)
        if abs(g) == 0 or not np.isfinite(abs(g)):
            raise ValueError("gamma0 must be a nonzero finite complex number")
        object.__setattr__(self, "gamma0", g / abs(g))
        if self.mode not in ("radial", "spiral", "alternating"):
            raise ValueError(f"unknown sequence mode {self.mode!r}")
        if not 0.0 < self.rate < 1.0:
            raise ValueError("rate must lie strictly between 0 and 1")
        if self.count < 1:
            raise ValueError("count must be positive")

    def terms(self) -> list:
        """(a_k, gamma_k) pairs for k = 1 .. count."""
        out = []
        for k in range(1, self.count + 1):
            s = self.rate ** k
            if self.mode == "radial":
                a, g = (1.0 - s) * self.gamma0, 1.0 + 0j
            elif self.mode == "spiral":
                g = np.exp(1j * s)
                a = (1.0 - s) * self.gamma0 * np.exp(-1j * s)
            else:
                g = complex((-1.0) ** k)
                a = (1.0 - s) * self.gamma0 * g
            out.append((complex(a), complex(g)))
        return out


@dataclass(frozen=True)
class ConvergenceRecord:
    k: int
    a: complex
    gamma: complex
    sup_deviation: float
    rotation_constant: complex


@dataclass(frozen=True)
class ValenceReport:
    w: complex
    radius: float
    winding_integral: complex
    valence: int
    residual: float


@dataclass(frozen=True)
class SeparationEstimate:
    M: float
    delta: float
    witness_pair: Optional[tuple]
    samples: int


class CounterexampleResult(NamedTuple):
    even_limit_deviation: float
    odd_limit_deviation: float
    unrenormalized_oscillation: float
    renormalized_deviation: float


def _polar_grid(r: float, grid: int) -> np.ndarray:
    radii = np.linspace(0.0, r, grid)
    angles = 2.0 * np.pi * np.arange(4 * grid) / (4 * grid)
    return (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def renormalized_conjugate(B: FiniteBlaschkeProduct, a, gamma) -> FiniteBlaschkeProduct:
    """The exact product T_{B(a gamma), conj(gamma)} o B o T_{a, gamma}.

    Fixes the origin (0 is always a zero) and preserves the order.  For a
    extremely close to the circle the remaining zeros approach the circle
    quadratically fast and stop being representable; use nested evaluation
    (as convergence_experiment does) in that regime.
    """
    inner = DiscAutomorphism(a, gamma)
    c = B.eval(complex(a) * inner.gamma)
    outer = DiscAutomorphism(c, np.conj(inner.gamma))
    return B.conjugate_by(inner, outer)


def derivative_at_zero_identity(B: FiniteBlaschkeProduct, a, gamma) -> tuple:
    """(lhs, rhs) of the conjugate-derivative identity at the origin.

    lhs is f'(0) of the exact conjugate product; rhs is
    (1 - |a gamma|^2)/(1 - |B(a gamma)|^2) * B'(a gamma).  The two are
    required to agree to 1e-9 relative; disagreement raises.
    """
    f = renormalized_conjugate(B, a, gamma)
    lhs = f.derivative(0.0)
    w = complex(a) * (complex(gamma) / abs(complex(gamma)))
    rhs = (1.0 - abs(w) ** 2) / (1.0 - abs(B.eval(w)) ** 2) * B.derivative(w)
    if abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
        raise ArithmeticError(
            f"derivative identity violated: lhs={lhs}, rhs={rhs}"
        )
    return lhs, rhs


def rotation_constant(B: FiniteBlaschkeProduct, gamma0) -> complex:
    """B'(gamma0)/|B'(gamma0)| for a boundary point gamma0."""
    g0 = complex(gamma0)
    g0 = g0 / abs(g0)
    d = B.derivative(g0)
    if d == 0:
        raise ArithmeticError("B' vanished on the circle; numerical breakdown")
    return d / abs(d)


def _nested_conjugate_values(B, a, gamma, pts, renormalize=True):
    """Values of T_{B(a gamma), .} o B o T_{a, gamma} on pts by composition."""
    inner = DiscAutomorphism(a, gamma)
    c = B.eval(complex(a) * inner.gamma)
    outer_gamma = np.conj(inner.gamma) if renormalize else 1.0 + 0j
    outer = DiscAutomorphism(c, outer_gamma)
    return automorphism_eval(outer, B.eval(automorphism_eval(inner, pts)))


def convergence_experiment(
    B: FiniteBlaschkeProduct,
    seq: SequenceSpec,
    r: float,
) -> list:
    """Sup-norm drift of the renormalized conjugates toward the limiting rotation.

    For each term (a_k, gamma_k) of seq the conjugate is evaluated by
    composition on a polar grid (24 radii x 96 angles, outer radius r)
    and compared with z -> rot * z where rot = B'(gamma0)/|B'(gamma0)| at
    gamma0 = seq.gamma0.
    """
    if not 0.0 < r <= 0.95:
        raise ValueError("compact radius r must lie in (0, 0.95]")
    rot = rotation_constant(B, seq.gamma0)
    pts = _polar_grid(r, 24)
    records = []
    for k, (a, g) in enumerate(seq.terms(), start=1):
        vals = _nested_conjugate_values(B, a, g, pts, renormalize=True)
        dev = float(np.max(np.abs(vals - rot * pts)))
        records.append(ConvergenceRecord(k, a, g, dev, rot))
    return records


def counterexample_run(count: int) -> CounterexampleResult:
    """Alternating-sign family on B(z) = z**2 where renormalization matters.

    With gamma_k = (-1)**k and a_k = (1 - 0.35**k) gamma_k the products
    a_k gamma_k increase to 1, so the renormalized conjugates tend to the
    identity rotation; the un-renormalized conjugates split, the even ones
    tending to z and the odd ones to -z.  Returned are the sup deviations of
    the last even / odd un-renormalized iterates from z and -z on the
    compact |z| <= 0.5, the sup distance between the two final consecutive
    un-renormalized iterates measured on |z| <= 0.75 (where it approaches
    2 * 0.75 and cleanly exceeds 1), and the sup deviation of the last
    renormalized iterate from z on |z| <= 0.5.
    """
    # term k's outer automorphism divides by (1 - a_k^2)(1 - 2 a_k z + a_k^2)/(1 - a_k z)^2,
    # on |z| <= 0.75 at least about 4 rate**k/1.75: the last term keeps it above POLE_TOL
    last = int(math.log(POLE_TOL * 1.75 / 4.0) / math.log(COUNTEREXAMPLE_RATE))
    if not 6 <= count <= last:
        raise ValueError(f"count must be at least 6 and at most {last}: later terms come within POLE_TOL of a pole")
    B = FiniteBlaschkeProduct.monomial(2)
    terms = SequenceSpec(1.0, "alternating", COUNTEREXAMPLE_RATE, count).terms()
    small, wide = _polar_grid(0.5, 16), _polar_grid(0.75, 16)

    def values(k, pts, renormalize=False):
        a, g = terms[k - 1]
        return _nested_conjugate_values(B, a, g, pts, renormalize)

    k_even, k_odd = (count, count - 1) if count % 2 == 0 else (count - 1, count)
    return CounterexampleResult(
        float(np.max(np.abs(values(k_even, small) - small))),
        float(np.max(np.abs(values(k_odd, small) + small))),
        float(np.max(np.abs(values(count, wide) - values(count - 1, wide)))),
        float(np.max(np.abs(values(count, small, renormalize=True) - small))),
    )


def fatou_quotient(B: FiniteBlaschkeProduct, z) -> float:
    """(1 - |z|^2) |B'(z)| / (1 - |B(z)|^2), the Schwarz-Pick quotient in [0, 1]."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError("quotient is defined for interior points only")
    bz, dz = B._value_and_derivative(np.asarray(z))
    if abs(bz) >= 1.0 - 1e-13:
        raise BoundaryProximityError("1 - |B(z)|^2 underflows this close to the circle")
    return float((1.0 - abs(z) ** 2) * abs(dz) / (1.0 - abs(bz) ** 2))


def fatou_limit_scan(B: FiniteBlaschkeProduct, radii, angles: int) -> list:
    """Per-radius minimum of the Schwarz-Pick quotient over angular samples."""
    radii = [float(r) for r in radii]
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])) or any(
        not 0.0 <= r < 1.0 for r in radii
    ):
        raise ValueError("radii must increase strictly and stay below 1")
    if angles < 1:
        raise ValueError("need at least one angular sample")
    thetas = 2.0 * np.pi * np.arange(angles) / angles
    out = []
    for r in radii:
        pts = r * np.exp(1j * thetas)
        bz, dz = B._value_and_derivative(pts)
        if np.any(np.abs(bz) >= 1.0 - 1e-13):
            raise BoundaryProximityError(f"|B| reaches the circle at radius {r}")
        q = (1.0 - r * r) * np.abs(dz) / (1.0 - np.abs(bz) ** 2)
        out.append((r, float(np.min(q))))
    return out


def default_valence_radius(B: FiniteBlaschkeProduct, w, fiber=None) -> float:
    """Contour radius enclosing the whole fiber of w (solved unless given): halfway
    from its outermost point to the circle."""
    fiber = B.fiber_solve(w) if fiber is None else fiber
    return 0.5 * (1.0 + max(abs(v) for v in fiber))


def _noise(q, L: float, chunks: int) -> float:
    """A bound on |computed f - exact f| at a node of `_winding` on |z| = r, f = B - w, from
    q_k = 1 - |a_k| r, L and the chunks of `_eval`: first order in u = 2**-53, doubled.  In
    `_eval`, relative: a_k - z errs by u; r_k = 1/conj(a_k), a Smith quotient of 1, by 5 u,
    so r_k - z by u + 5 u/q_k, as |r_k - z| = |1 - conj(a_k) z|/|a_k|; 1 - conj(a_k) z by
    u + sqrt(5) u |a_k| r/q_k, less.  A complex product errs by sqrt(5) u, 3 per zero (N, D
    and C) and 2 per chunk (N s/D, and into B) less 3 at its first zero; s = 1/C by 5 u and
    s/D by 11 u (Smith), once per chunk.  |B| <= 1, and subtracting w adds 2 u.  Node
    placement (3.9 u r) and the float end 2 pi take 6 u L, which also raises before a
    midpoint can round onto an end, and the test's own rounding, (44 + 4 order) u, half of
    it per noise term: noise = u (sum_k (20 + 10/q_k) + 28 chunks + 26 + 6 L).
    """
    return 2.0 ** -53 * (float(np.sum(20.0 + 10.0 / q)) + 28.0 * chunks + 26.0 + 6.0 * L)


def _winding(B: FiniteBlaschkeProduct, w: complex, r: float, arcs: int) -> float:
    """Winding number of f = B - w around 0 on |z| = r: the sum of the arg
    increments between nodes over 2 pi, certified (Ying & Katz 1988).

    Where |df/dtheta| <= K on an arc of length h, f stays in the ellipse with
    foci at the computed end values and axis sum K h + 2 noise.  It misses 0
    if |f_j| + |f_{j+1}| - 2 noise > K h, and arg f then moves by the principal
    arg of f_{j+1} conj(f_j), with a margin that rounding cannot flip.  The
    `arcs` equal arcs are halved while uncertified, a block of _BLOCK per
    pass, depth first; one uncertified at K h <= 2 noise has both ends within
    4 noise of 0, and raises.

    K = L = r sum_k t_k/q_k^2, with t_k = 1 - |a_k|^2 and q_k = 1 - |a_k| r,
    bounds r |B'| on the circle.  An arc that fails with L and keeps farther
    than r h from every zero takes K = M (|B(z_j)| + 2 noise) e^{M h}, where
    M = r sum_k t_k/(q_k d_k) bounds |z B'/B| on it (d_k its distance to a_k):
    small circles around a multiple zero pass with it.  Its distances shrink
    and K grows by 2**-20, relative, for their rounding.  noise is `_noise`.
    """
    a = np.array(B.zeros)
    mods = np.abs(a)
    t, q = 1.0 - mods * mods, 1.0 - mods * r
    L = r * float(np.sum(t / q ** 2))
    noise, slack = _noise(q, L, len(B._chunks[_CHUNK])), 2.0 ** -20
    step = max(1, _BLOCK // a.size)

    def bound(lo, h, f_lo):
        """K of the arcs [lo, lo + h] by _BLOCK (arc x zero) pairs, distances in units of r."""
        out = np.full(lo.shape, L)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for s in (slice(i, i + step) for i in range(0, lo.size, step)):
                d = np.abs(np.exp(1j * lo[s])[:, None] - a / r) * (1.0 - slack) - (h[s, None] + slack)
                m = np.sum(t / (q * d), axis=1)
                k = (np.abs(f_lo[s] + w) + 2.0 * noise) * m * np.exp(m * h[s]) * (1.0 + slack)
                out[s] = np.where(np.all(d > h[s, None], axis=1) & (k < L), k, L)
        return out

    lo = 2.0 * np.pi * np.arange(arcs) / arcs
    f_lo = B._eval(r * np.exp(1j * lo)) - w
    pending = [(lo, np.append(lo[1:], 2.0 * np.pi), f_lo, np.append(f_lo[1:], f_lo[0]))]
    total = 0.0
    while pending:
        lo, hi, f_lo, f_hi = pending.pop()
        if lo.size > _BLOCK:
            pending += [tuple(x[i:i + _BLOCK] for x in (lo, hi, f_lo, f_hi)) for i in range(0, lo.size, _BLOCK)]
            continue
        h = hi - lo
        gap = np.abs(f_lo) + np.abs(f_hi) - 2.0 * noise
        reach = L * h
        slow = gap <= reach
        reach[slow] = h[slow] * bound(lo[slow], h[slow], f_lo[slow])
        ok = gap > reach
        total += float(np.sum(np.angle(f_hi[ok] * np.conj(f_lo[ok]))))
        if ok.all():
            continue
        lo, hi, f_lo, f_hi, reach = (x[~ok] for x in (lo, hi, f_lo, f_hi, reach))
        if np.any(reach <= 2.0 * noise):
            raise ContourThroughFiberError(f"B - {w} is within rounding of 0 on |z|={r}, next to its fiber")
        mid = 0.5 * (lo + hi)
        f_mid = B._eval(r * np.exp(1j * mid)) - w
        pending.append((np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                        np.concatenate([f_lo, f_mid]), np.concatenate([f_mid, f_hi])))
    return total / (2.0 * np.pi)


def valence(B: FiniteBlaschkeProduct, w, radius: float, samples: int = 4096) -> ValenceReport:
    """Winding count of B around w on |z| = radius (`_winding`), starting from
    `samples` equal arcs: the number of fiber points enclosed, the order of B
    when the radius encloses the whole fiber.  A contour within rounding of a
    fiber point raises ContourThroughFiberError.  The winding integral is the
    sum of the arg increments over 2 pi, an integer up to its rounding.
    """
    w = complex(w)
    if not abs(w) < 1.0:
        raise ValueError("target value must lie inside the disc")
    if not 0.0 < radius < 1.0:
        raise ValueError("contour radius must lie in (0, 1)")
    if samples < 16:
        raise ValueError("need at least 16 contour samples")
    integral = complex(_winding(B, w, radius, samples))
    v = int(round(integral.real))
    return ValenceReport(w, radius, integral, v, abs(integral - v))


def separation_estimate(B: FiniteBlaschkeProduct, M: float, samples: int) -> SeparationEstimate:
    """Empirical lower bound on the fiber separation in M <= |z| <= 1/M.

    Base points are placed on the circles |a| = M and |a| = (M+1)/2 at
    golden-ratio angles; the fibers of their values are solved in one
    `fiber_solve` call, and of each, the members inside the annulus are kept
    together with their reflections across the circle, and the minimum
    pairwise distance within each equal-value group is recorded.  An order-1
    product has singleton fibers and reports delta = +inf with no witness pair.
    """
    zmax = max(abs(z) for z in B.zeros)
    if not zmax < M < 1.0:
        raise InvalidAnnulusError(
            f"need max|zeros| = {zmax} < M < 1, got M = {M}"
        )
    if samples < 1:
        raise ValueError("need at least one base point")
    circles = [M, 0.5 * (M + 1.0)]
    thetas = [2.0 * np.pi * (((i + 1) * GOLDEN_FRAC) % 1.0) for i in range(samples)]
    base = [circles[i % 2] * np.exp(1j * theta) for i, theta in enumerate(thetas)]
    best = math.inf
    witness = None
    keep_tol = M * (1.0 - 1e-12)
    for fiber in B.fiber_solve(B.eval(np.array(base))):
        kept = [v for v in fiber if abs(v) >= keep_tol]
        reflected = [1.0 / np.conj(v) for v in kept]
        for group in (kept, reflected):
            for s in range(len(group)):
                for t in range(s + 1, len(group)):
                    d = abs(group[s] - group[t])
                    if d < best:
                        best = d
                        witness = (group[s], group[t])
    return SeparationEstimate(M, best, witness, samples)


def density_family(a, b, exponent_pairs) -> list:
    """Third critical point of (a-power m) x (b-power n) products, with its
    hyperbolic collinearity residual against the base points.

    A zero of multiplicity m contributes the known critical point of
    multiplicity m - 1 at itself; the one remaining interior critical point
    c is extracted and must be distinguishable from a and b, otherwise an
    ExtractionAmbiguityError is raised.  The critical points of all pairs
    are found in one `critical_sets` call.
    """
    a, b = complex(a), complex(b)
    if abs(a - b) <= MATCH_TOL:
        raise ValueError("base points must be distinct")
    pairs = list(exponent_pairs)
    if any(m < 1 or n < 1 for m, n in pairs):
        raise ValueError("exponents must be positive")
    # two distinct zeros each: all pairs share one Aberth run
    products = [FiniteBlaschkeProduct(1.0, (a,) * m + (b,) * n) for m, n in pairs]
    out = []
    for (m, n), cs in zip(pairs, critical_sets(products)):
        remaining = []
        for p, mult in cs.interior:
            if abs(p - a) <= MATCH_TOL:
                mult -= m - 1
            elif abs(p - b) <= MATCH_TOL:
                mult -= n - 1
            if mult > 0:
                remaining.append((p, mult))
        if len(remaining) != 1 or remaining[0][1] != 1:
            raise ExtractionAmbiguityError(
                f"cannot isolate the extra critical point for (m, n) = ({m}, {n})"
            )
        c = remaining[0][0]
        if abs(c - a) <= MATCH_TOL or abs(c - b) <= MATCH_TOL:
            raise ExtractionAmbiguityError(
                f"extra critical point {c} coincides with a base point"
            )
        out.append((c, collinearity_residual(a, b, c)))
    return out


def density_family3(a, b, c, exponents) -> list:
    """Interior critical points of the three-factor power product and their
    membership in the hyperbolic hull of {a, b, c} (Klein tolerance 1e-8)."""
    a, b, c = complex(a), complex(b), complex(c)
    m, n, p = exponents
    if min(m, n, p) < 1:
        raise ValueError("exponents must be positive")
    if min(abs(a - b), abs(a - c), abs(b - c)) <= MATCH_TOL:
        raise ValueError("base points must be pairwise distinct")
    B = FiniteBlaschkeProduct(1.0, (a,) * m + (b,) * n + (c,) * p)
    hull = hyperbolic_convex_hull([a, b, c])
    return [
        (pt, hull_contains(hull, pt, 1e-8))
        for pt, _ in B.critical_points().interior
    ]


def random_product(rng: np.random.Generator, order: int, zero_radius: float = 0.9) -> FiniteBlaschkeProduct:
    """Product with zeros i.i.d. uniform on |z| <= zero_radius (rejection from
    the square) and gamma uniform on the circle.  Deterministic given the
    generator state; the documented suites use numpy's PCG64."""
    if order < 1:
        raise ValueError("order must be positive")
    if not 0.0 < zero_radius < 1.0 - ZERO_MARGIN:
        raise ValueError("zero radius must lie in (0, 1)")
    zeros = []
    while len(zeros) < order:
        x, y = rng.uniform(-zero_radius, zero_radius, size=2)
        if x * x + y * y <= zero_radius * zero_radius:
            zeros.append(complex(x, y))
    gamma = np.exp(2j * np.pi * rng.uniform())
    return FiniteBlaschkeProduct(gamma, tuple(zeros))
