"""Geometry of the Poincare disc: geodesics, hulls, membership tests.

Hyperbolic convexity is computed by changing coordinates to the Klein model,
k = 2p / (1 + |p|^2), where geodesics become straight chords and the
hyperbolic convex hull is the plain Euclidean convex hull of the images.
Membership tolerances are Euclidean distances in the Klein model; a caller
who needs a tolerance in the Poincare model can convert with the local
distortion factor dk/dp = 2(1 - |p|^2)/(1 + |p|^2)^2, which lies in (0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import components

CROSS_TOL = 1e-12
DEDUP_TOL = 1e-12
DISTINCT_TOL = 1e-10


def pseudo_hyperbolic_distance(z1, z2) -> float:
    """|(z1 - z2) / (1 - conj(z1) z2)| for z1, z2 in the open disc, invariant
    under disc automorphisms."""
    z1, z2 = complex(z1), complex(z2)
    if not (abs(z1) < 1.0 and abs(z2) < 1.0):
        raise ValueError("points must lie strictly inside the unit disc")
    return abs((z1 - z2) / (1.0 - np.conj(z1) * z2))


def geodesic_point(z1, z2, t: float) -> complex:
    """Point at parameter t in [0, 1] on the hyperbolic segment from z1 to z2."""
    z1, z2 = complex(z1), complex(z2)
    if not np.isfinite([z1, z2, t]).all():
        raise ValueError("points and parameter must be finite")
    m = (z1 - z2) / (1.0 - np.conj(z1) * z2)
    return (z1 - m * t) / (1.0 - np.conj(z1) * m * t)


def collinearity_residual(z1, z2, z3) -> float:
    """0 iff the three points lie on one hyperbolic line.

    The test quantity is q = [(z1-z2)/(1-conj(z1)z2)] / [(z1-z3)/(1-conj(z1)z3)];
    the points are collinear exactly when q is real, and the returned residual
    is |Im q| / |q|.
    """
    z1, z2, z3 = complex(z1), complex(z2), complex(z3)
    if (
        pseudo_hyperbolic_distance(z1, z2) <= DISTINCT_TOL
        or pseudo_hyperbolic_distance(z1, z3) <= DISTINCT_TOL
        or pseudo_hyperbolic_distance(z2, z3) <= DISTINCT_TOL
    ):
        raise ValueError("collinearity test requires three pairwise distinct points")
    q = ((z1 - z2) / (1.0 - np.conj(z1) * z2)) / ((z1 - z3) / (1.0 - np.conj(z1) * z3))
    return abs(q.imag) / (abs(q) + 1e-300)


def poincare_to_klein(p) -> complex:
    p = complex(p)
    if not abs(p) < 1.0:
        raise ValueError("point must lie strictly inside the unit disc")
    return 2.0 * p / (1.0 + abs(p) ** 2)


def klein_to_poincare(k) -> complex:
    k = complex(k)
    if not abs(k) < 1.0:
        raise ValueError("point must lie strictly inside the unit disc")
    return k / (1.0 + math.sqrt(1.0 - abs(k) ** 2))


@dataclass(frozen=True)
class HyperbolicHull:
    """Convex hull with matched Poincare and Klein vertex lists (ccw order)."""

    poincare_vertices: tuple
    klein_vertices: tuple
    degenerate_kind: str  # "point" | "segment" | "polygon"


def _cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def euclidean_convex_hull(points: list) -> list:
    """Indices of the convex hull vertices, counterclockwise (monotone chain).

    Collinear points within the 1e-12 cross-product cutoff are dropped, so an
    all-collinear input yields its two extreme points.
    """
    idx = sorted(range(len(points)), key=lambda i: (points[i].real, points[i].imag))
    if len(idx) <= 2:
        return idx

    def chain(order):
        out = []
        for i in order:
            while len(out) >= 2 and _cross(points[out[-2]], points[out[-1]], points[i]) <= CROSS_TOL:
                out.pop()
            out.append(i)
        return out

    lower = chain(idx)
    upper = chain(idx[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # fully collinear input collapses to the extremes
        hull = [idx[0], idx[-1]]
    return hull


def hyperbolic_convex_hull(points: list) -> HyperbolicHull:
    """Hull of disc points: Klein-map, Euclidean hull, map the vertices back.

    Points within pseudo-hyperbolic distance DEDUP_TOL, directly or by a
    chain, are one (`components`), kept as the first of them."""
    pts = [complex(p) for p in points]
    if not pts:
        raise ValueError("hull of an empty point set is undefined")
    for p in pts:
        if not abs(p) < 1.0:
            raise ValueError(f"hull input {p} is not strictly inside the disc")
    z = np.array(pts)
    near = np.abs((z[:, None] - z) / (1.0 - np.conj(z)[:, None] * z)) <= DEDUP_TOL
    dedup = [q for q, first in zip(pts, components(near) == np.arange(len(pts))) if first]
    klein = [poincare_to_klein(p) for p in dedup]
    order = euclidean_convex_hull(klein)
    pv = tuple(dedup[i] for i in order)
    kv = tuple(klein[i] for i in order)
    if len(pv) == 1:
        kind = "point"
    elif len(pv) == 2:
        kind = "segment"
    else:
        kind = "polygon"
    return HyperbolicHull(pv, kv, kind)


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def hull_contains(hull: HyperbolicHull, z, tol: float) -> bool:
    """Membership of z in the hull, with Euclidean tolerance tol in the Klein model."""
    if not tol >= 0:
        raise ValueError("tolerance must be nonnegative")
    k = poincare_to_klein(z)
    kv = hull.klein_vertices
    if hull.degenerate_kind == "point":
        return abs(k - kv[0]) <= tol
    if hull.degenerate_kind == "segment":
        return _point_segment_distance(k, kv[0], kv[1]) <= tol
    m = len(kv)
    for i in range(m):
        a, b = kv[i], kv[(i + 1) % m]
        signed = _cross(a, b, k) / abs(b - a)
        if signed < -tol:
            return False
    return True
