"""Geometry of the Poincare disc: geodesics, hulls, membership tests.

Hyperbolic convexity is computed by changing coordinates to the Klein model,
k = 2p / (1 + |p|^2), where geodesics become straight chords and the
hyperbolic convex hull is the plain Euclidean convex hull of the images.
Membership tolerances are Euclidean distances in the Klein model; a caller
who needs a tolerance in the Poincare model can convert with the local
distortion factor dk/dp = 2(1 - |p|^2)/(1 + |p|^2)^2, which lies in (0, 2].

One set takes `hyperbolic_convex_hull` and `hull_contains`, whose plain
Python steps are the reference.  Many sets take the same steps on a row per
set (`_hull_rows`, `_contains_rows`): the duplicates of all rows found by
`components` over blocks of rows, Andrew's monotone chain (Inf. Process.
Lett. 9, 1979) run on every row at once, a row popping while its own last
turn is within CROSS_TOL, and the point, segment and polygon membership
rules as arrays, an edge at a time.  Each step does the one-set arithmetic
(the Klein map squares |p| by one multiplication in both), so the vertices
and verdicts are the one-set ones.  The row-wise steps cost more than the
plain ones for a single set: a caller with one set takes the plain ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _BLOCK, _blocked, components

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
    """Point at parameter t in [0, 1] on the hyperbolic segment from z1 to z2,
    both strictly inside the disc."""
    z1, z2 = complex(z1), complex(z2)
    if not (abs(z1) < 1.0 and abs(z2) < 1.0):
        raise ValueError("points must lie strictly inside the unit disc")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"parameter {t} is not in [0, 1]")
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
    h = abs(p)
    if not h < 1.0:
        raise ValueError("point must lie strictly inside the unit disc")
    # h * h, as `_klein_rows` squares: h ** 2 is libm's pow, off by an ulp on about 0.07% of points
    return 2.0 * p / (1.0 + h * h)


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
    h = abs(ab)
    denom = h * h
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


# ---------------------------------------------------------------------------
# many sets at once: the steps above on a row per set

def _klein_rows(z):
    """poincare_to_klein of every point of the complex array z, as arrays x, y
    of the images' parts, by the same arithmetic (np.hypot is abs() of a
    Python complex, and dividing each part is dividing by a real)."""
    h = np.hypot(z.real, z.imag)
    if not (h < 1.0).all():
        raise ValueError("point must lie strictly inside the unit disc")
    d = 1.0 + h * h
    return 2.0 * z.real / d, 2.0 * z.imag / d


def _chains(x, y, count, reverse: bool):
    """`euclidean_convex_hull`'s chain over the first count[r] points of each
    row of x + iy, in order or in reverse, for all rows at once: a row's
    step pops while its own last turn is within CROSS_TOL, then pushes.
    Returns (stack, size), row r's chain being stack[r, :size[r]], as
    positions in the row."""
    sets, n = x.shape
    stack, size = np.zeros((sets, n), dtype=np.intp), np.zeros(sets, dtype=np.intp)
    every = np.arange(sets)
    for i in range(n):
        live = i < count
        pos = np.where(live, count - 1 - i if reverse else i, 0)
        px, py = x[every, pos], y[every, pos]
        r = np.flatnonzero(live & (size >= 2))
        while r.size:
            o, a = stack[r, size[r] - 2], stack[r, size[r] - 1]
            ox, oy = x[r, o], y[r, o]
            r = r[(x[r, a] - ox) * (py[r] - oy) - (y[r, a] - oy) * (px[r] - ox) <= CROSS_TOL]
            size[r] -= 1
            r = r[size[r] >= 2]
        stack[live, size[live]] = pos[live]
        size += live
    return stack, size


def _hull_rows(z):
    """`hyperbolic_convex_hull` of each row of the (sets x n) disc points z,
    a row padded with copies of its first point, in array passes over all
    rows: `components` for the duplicates, one sort, and one monotone chain
    each way (`_chains`).  Returns (idx, count, x, y): row r's hull has the
    count[r] vertices idx[r, :count[r]], as indices into the row, and the
    Klein images x + iy of those; the later columns, one more than the
    widest hull needs, repeat the row's first vertex."""
    sets, n = z.shape
    x, y = _klein_rows(z)

    def near(b):
        return np.abs((b[:, :, None] - b[:, None, :]) / (1.0 - np.conj(b)[:, :, None] * b[:, None, :])) <= DEDUP_TOL
    # the (sets x n x n) links in blocks of at most _BLOCK entries
    keep = _blocked(sets, max(1, _BLOCK // n ** 2), lambda i, j: components(near(z[i:j]))) == np.arange(n)
    # each row's kept points by (re, im), ties in row order, then the others
    order = np.lexsort((y, x, ~keep))
    every = np.arange(sets)[:, None]
    sx, sy, distinct = x[every, order], y[every, order], keep.sum(axis=1)
    (lower, nl), (upper, nu) = (_chains(sx, sy, distinct, reverse) for reverse in (False, True))
    # lower[:-1] + upper[:-1]; a lone point is its own hull
    nl -= 1
    count = np.where(distinct == 1, 1, nl + nu - 1)
    j = np.arange(count.max() + 1)
    pos = np.where(j < nl[:, None], lower[every, np.minimum(j, n - 1)],
                   upper[every, np.clip(j - nl[:, None], 0, n - 1)])
    idx = order[every, np.where(j < count[:, None], pos, pos[:, :1])]
    return idx, count, x[every, idx], y[every, idx]


def _contains_rows(hulls, w, tol: float) -> np.ndarray:
    """`hull_contains` of each point of row r of the (sets x m) complex array
    w in the hull of row r of `_hull_rows` (hulls, its return), by the same
    point, segment and polygon rules and arithmetic, as a (sets x m)
    boolean array."""
    if not tol >= 0:
        raise ValueError("tolerance must be nonnegative")
    _, count, vx, vy = hulls
    kx, ky = _klein_rows(w)
    out = np.empty(w.shape, dtype=bool)
    rows = count == 1
    out[rows] = np.hypot(kx[rows] - vx[rows, :1], ky[rows] - vy[rows, :1]) <= tol
    rows = count == 2
    ax, ay, bx, by = vx[rows, :1], vy[rows, :1], vx[rows, 1:2], vy[rows, 1:2]
    px, py = kx[rows] - ax, ky[rows] - ay
    abx, aby = bx - ax, by - ay
    h = np.hypot(abx, aby)
    denom = h * h
    t = np.divide(px * abx + py * aby, denom, out=np.zeros(px.shape), where=denom != 0.0)
    t = np.minimum(1.0, np.maximum(0.0, t))
    out[rows] = np.hypot(kx[rows] - (ax + t * abx), ky[rows] - (ay + t * aby)) <= tol
    rows = count >= 3
    px, py = kx[rows], ky[rows]
    inside = np.ones(px.shape, dtype=bool)
    for e in range(vx.shape[1] - 1):
        # edge e from vertex e to vertex e + 1, the column after the last vertex repeating the first
        ax, ay, bx, by = vx[rows, e:e + 1], vy[rows, e:e + 1], vx[rows, e + 1:e + 2], vy[rows, e + 1:e + 2]
        ex, ey = bx - ax, by - ay
        signed = np.divide(ex * (py - ay) - ey * (px - ax), np.hypot(ex, ey), out=np.zeros(px.shape),
                           where=e < count[rows, None])
        inside &= ~(signed < -tol)
    out[rows] = inside
    return out
