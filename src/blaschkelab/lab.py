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

from .blaschke import FiniteBlaschkeProduct, critical_sets
from .errors import (
    ContourThroughFiberError,
    BoundaryProximityError,
    ExtractionAmbiguityError,
    InvalidAnnulusError,
    NonConvergenceError,
)
from .hyperbolic import collinearity_residual, hull_contains, hyperbolic_convex_hull
from .moebius import DiscAutomorphism, automorphism_eval

GOLDEN_FRAC = 0.6180339887498949
MATCH_TOL = 1e-7


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
    seq,
    r: float,
    grid: int = 24,
    gamma0=None,
) -> list:
    """Sup-norm drift of the renormalized conjugates toward the limiting rotation.

    seq is a SequenceSpec or an explicit list of (a_k, gamma_k) pairs; in the
    latter case gamma0 must be supplied (or is taken as the normalized last
    a_k gamma_k).  For each k the conjugate is evaluated by composition on a
    polar grid (grid radii x 4*grid angles, outer radius r) and compared with
    z -> rot * z where rot = B'(gamma0)/|B'(gamma0)|.
    """
    if not 0.0 < r <= 0.95:
        raise ValueError("compact radius r must lie in (0, 0.95]")
    if isinstance(seq, SequenceSpec):
        terms = seq.terms()
        g0 = seq.gamma0 if gamma0 is None else complex(gamma0)
    else:
        terms = [(complex(a), complex(g)) for a, g in seq]
        if gamma0 is None:
            last = terms[-1][0] * terms[-1][1]
            g0 = last / abs(last)
        else:
            g0 = complex(gamma0)
    rot = rotation_constant(B, g0)
    pts = _polar_grid(r, grid)
    records = []
    for k, (a, g) in enumerate(terms, start=1):
        vals = _nested_conjugate_values(B, a, g, pts, renormalize=True)
        dev = float(np.max(np.abs(vals - rot * pts)))
        records.append(ConvergenceRecord(k, a, g, dev, rot))
    return records


def counterexample_run(count: int, rate: float = 0.35) -> CounterexampleResult:
    """Alternating-sign family on B(z) = z**2 where renormalization matters.

    With gamma_k = (-1)**k and a_k = (1 - rate**k) gamma_k the products
    a_k gamma_k increase to 1, so the renormalized conjugates tend to the
    identity rotation; the un-renormalized conjugates split, the even ones
    tending to z and the odd ones to -z.  Returned are the sup deviations of
    the last even / odd un-renormalized iterates from z and -z on the
    compact |z| <= 0.5, plus the sup distance between the two final
    consecutive un-renormalized iterates measured on |z| <= 0.75 (where it
    approaches 2 * 0.75 and cleanly exceeds 1).
    """
    if count < 6:
        raise ValueError("count must be at least 6")
    B = FiniteBlaschkeProduct.monomial(2)
    spec = SequenceSpec(1.0, "alternating", rate, count)
    terms = spec.terms()

    pts_small = _polar_grid(0.5, 16)
    pts_osc = _polar_grid(0.75, 16)

    k_even = count if count % 2 == 0 else count - 1
    k_odd = count if count % 2 == 1 else count - 1

    a_e, g_e = terms[k_even - 1]
    even_vals = _nested_conjugate_values(B, a_e, g_e, pts_small, renormalize=False)
    even_dev = float(np.max(np.abs(even_vals - pts_small)))

    a_o, g_o = terms[k_odd - 1]
    odd_vals = _nested_conjugate_values(B, a_o, g_o, pts_small, renormalize=False)
    odd_dev = float(np.max(np.abs(odd_vals + pts_small)))

    a1, g1 = terms[count - 1]
    a2, g2 = terms[count - 2]
    osc = float(
        np.max(
            np.abs(
                _nested_conjugate_values(B, a1, g1, pts_osc, renormalize=False)
                - _nested_conjugate_values(B, a2, g2, pts_osc, renormalize=False)
            )
        )
    )
    return CounterexampleResult(even_dev, odd_dev, osc)


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


def valence(B: FiniteBlaschkeProduct, w, radius: float, samples: int = 4096) -> ValenceReport:
    """Winding count of B around w on |z| = radius by trapezoidal contour sum.

    The count equals the number of fiber points enclosed; with a radius
    enclosing the whole fiber it is the order of B.  The node count doubles
    once if the integer residual exceeds 0.05.
    """
    w = complex(w)
    if not abs(w) < 1.0:
        raise ValueError("target value must lie inside the disc")
    if not 0.0 < radius < 1.0:
        raise ValueError("contour radius must lie in (0, 1)")
    if samples < 16:
        raise ValueError("need at least 16 contour samples")

    def attempt(n):
        thetas = 2.0 * np.pi * np.arange(n) / n
        z = radius * np.exp(1j * thetas)
        bz, dz = B._value_and_derivative(z)
        gap = float(np.min(np.abs(bz - w)))
        if gap <= 1e-6:
            raise ContourThroughFiberError(
                f"contour |z|={radius} passes within {gap} of the fiber of {w}"
            )
        integrand = z * dz / (bz - w)
        return complex(np.mean(integrand))

    integral = attempt(samples)
    v = int(round(integral.real))
    residual = abs(integral - v)
    if residual > 0.05:
        integral = attempt(2 * samples)
        v = int(round(integral.real))
        residual = abs(integral - v)
        if residual > 0.05:
            raise NonConvergenceError(
                f"winding integral {integral} did not settle on an integer"
            )
    if v < 0:
        raise NonConvergenceError(f"negative winding count {v}")
    return ValenceReport(w, radius, integral, v, residual)


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
    if not 0.0 < zero_radius < 1.0 - 1e-12:
        raise ValueError("zero radius must lie in (0, 1)")
    zeros = []
    while len(zeros) < order:
        x, y = rng.uniform(-zero_radius, zero_radius, size=2)
        if x * x + y * y <= zero_radius * zero_radius:
            zeros.append(complex(x, y))
    gamma = np.exp(2j * np.pi * rng.uniform())
    return FiniteBlaschkeProduct(gamma, tuple(zeros))
