"""All-roots polynomial solving by simultaneous Aberth-Ehrlich iteration.

Initial estimates are read off the Newton polygon of the coefficients (the
upper convex hull of (k, log|c_k|)): each polygon edge contributes a ring of
guesses at the classical root-modulus estimate, at equally spaced angles
with a fixed 0.4 rad offset.  This keeps every evaluation at the scale of
the actual roots; a single circle of Cauchy-bound radius overflows a
degree ~50 evaluation outright whenever the leading coefficient is small,
as happens for the mirror-root polynomials this package produces.  The
whole scheme is deterministic and seed-free.

After the coupled Newton sweeps each root is polished and near-coincident
roots are grouped into multiplicity clusters.

Residuals are scaled: for a root r of p with degree d,

    residual(r) = |p(r)| / (max_k |c_k| * max(1, |r|)^d).

For |r| <= 1 this is the plain coefficient-relative residual; beyond the
unit circle it is the residual of 1/r against the reversed polynomial,
which is the scale double precision can actually certify for the large
mirror roots that arise from reflecting critical points across the circle.

Multiplicity clustering cannot use one fixed tolerance: an m-fold root of a
polynomial whose coefficients carry relative rounding eps splits into a
cluster of diameter ~eps^(1/m), e.g. ~1e-5 for a triple root.  Clusters are
therefore formed by single linkage at a graduated ladder of tolerances
(floor 1e-7 x Cauchy bound) and a candidate clustering is accepted only if
the monic polynomial rebuilt from it reproduces the input coefficients to
1e-9 relative, which rejects accidental merges of genuinely distinct roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from ._util import coerce_points, uncoerce
from .errors import NonConvergenceError

TRIM_REL = 1e-14
RESIDUAL_TOL = 1e-8
POLISH_REL = 1e-12
MAX_SWEEPS = 200
CLUSTER_FLOOR_REL = 1e-7
RECONSTRUCT_REL = 1e-9

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Polynomial:
    """Dense polynomial with complex coefficients in ascending degree order.

    Coefficients whose modulus is below 1e-14 of the largest one are trimmed
    from the high-degree end on construction.
    """

    coeffs: tuple

    def __post_init__(self):
        cs = [complex(c) for c in self.coeffs]
        if not cs:
            raise ValueError("coefficient list must be nonempty")
        top = max(abs(c) for c in cs)
        if top == 0.0 or not np.isfinite(top):
            raise ValueError("polynomial must have a nonzero finite coefficient")
        while len(cs) > 1 and abs(cs[-1]) < TRIM_REL * top:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def max_coeff(self) -> float:
        return max(abs(c) for c in self.coeffs)

    def __call__(self, z):
        zz, scalar = coerce_points(z)
        return uncoerce(npoly.polyval(zz, np.array(self.coeffs)), scalar)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            raise ValueError("derivative of a constant is the zero polynomial")
        return Polynomial(tuple(npoly.polyder(np.array(self.coeffs))))

    def cauchy_radius(self) -> float:
        """Upper bound 1 + max|c_k/c_d| on the modulus of every root."""
        if self.degree == 0:
            return 1.0
        lead = abs(self.coeffs[-1])
        return 1.0 + max(abs(c) for c in self.coeffs[:-1]) / lead


@dataclass(frozen=True)
class RootSet:
    """Clustered roots (location, multiplicity) plus scaled residuals."""

    roots: tuple          # tuple of (complex, int)
    residuals: tuple      # tuple of float, parallel to roots

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)

    def locations(self) -> list:
        """Root locations expanded with multiplicity."""
        out = []
        for r, m in self.roots:
            out.extend([r] * m)
        return out


class PolishResult(NamedTuple):
    root: complex
    stalled: bool


def scaled_residual(p: Polynomial, z: complex) -> float:
    z = complex(z)
    return abs(p(z)) / (p.max_coeff * max(1.0, abs(z)) ** p.degree)


def _newton_refine(coeffs: np.ndarray, z: complex, iters: int = 60) -> complex:
    """Plain Newton iteration; stops at evaluation-noise level."""
    dcoeffs = npoly.polyder(coeffs)
    mags = np.abs(coeffs)
    for _ in range(iters):
        pv = npoly.polyval(z, coeffs)
        noise = 4.0 * _EPS * npoly.polyval(abs(z), mags)
        if abs(pv) <= noise:
            break
        dv = npoly.polyval(z, dcoeffs)
        if dv == 0:
            break
        step = pv / dv
        z = z - step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def _polish_point(coeffs: np.ndarray, z: complex) -> complex:
    """Newton-refine z; roots beyond the unit circle are polished as
    reciprocal roots of the reversed polynomial for accuracy."""
    if abs(z) > 1.0:
        rev = coeffs[::-1].copy()
        y = _newton_refine(rev, 1.0 / z)
        return 1.0 / y if y != 0 else z
    return _newton_refine(coeffs, z)


def polish_root(p: Polynomial, guess) -> PolishResult:
    """Newton polishing toward residual <= 1e-12 relative.

    Returns the refined root, or the unchanged guess with ``stalled=True``
    when the target residual is not reached (typical of multiple roots).
    """
    z = _polish_point(np.array(p.coeffs), complex(guess))
    if scaled_residual(p, z) <= POLISH_REL:
        return PolishResult(z, False)
    return PolishResult(complex(guess), True)


def _initial_guesses(work: np.ndarray) -> np.ndarray:
    """Ring-wise starting points from the Newton polygon of the coefficients.

    For consecutive upper-hull vertices (k1, log|c_k1|) and (k2, log|c_k2|)
    the k2 - k1 roots of matching magnitude are started on the ring of
    radius (|c_k1|/|c_k2|)**(1/(k2-k1)).
    """
    d = len(work) - 1
    mags = np.abs(work)
    finite = mags > 0
    logs = np.full(d + 1, -np.inf)
    logs[finite] = np.log(mags[finite])

    hull = []  # indices of upper-hull vertices, left to right
    for i in range(d + 1):
        if not np.isfinite(logs[i]):
            continue
        while len(hull) >= 2:
            i1, i2 = hull[-2], hull[-1]
            cross = (i2 - i1) * (logs[i] - logs[i2]) - (logs[i2] - logs[i1]) * (i - i2)
            if cross >= 0:  # i2 lies on or below the segment i1 -> i
                hull.pop()
            else:
                break
        hull.append(i)

    out = np.empty(d, dtype=complex)
    pos = 0
    for k1, k2 in zip(hull, hull[1:]):
        radius = math.exp((logs[k1] - logs[k2]) / (k2 - k1))
        for j in range(k2 - k1):
            theta = 2.0 * np.pi * (pos + j) / d + 0.4 + 0.1 * k1
            out[pos + j] = radius * np.exp(1j * theta)
        pos += k2 - k1
    return out


def _aberth(work: np.ndarray) -> np.ndarray:
    """Simultaneous iteration for all roots of the monic polynomial `work`."""
    d = len(work) - 1
    if d == 1:
        return np.array([-work[0] / work[1]])
    z = _initial_guesses(work)
    scale = float(np.max(np.abs(z)))
    dwork = npoly.polyder(work)
    frozen = np.zeros(d, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(MAX_SWEEPS):
            # resolve exact collisions deterministically before forming 1/(z_i - z_j)
            probe = z[:, None] - z[None, :]
            np.fill_diagonal(probe, 1.0)
            if np.any(probe == 0):
                for i in range(d):
                    for j in range(i + 1, d):
                        if z[i] == z[j]:
                            z[j] = z[j] + 1e-12 * scale * (1.0 + 1j) * (j + 1)
            pv = npoly.polyval(z, work)
            dv = npoly.polyval(z, dwork)
            dv = np.where(dv == 0, _EPS, dv)
            newton = pv / dv
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            coupling = np.sum(1.0 / diff, axis=1) - 1.0  # subtract the diagonal 1/1
            denom = 1.0 - newton * coupling
            corr = np.where(np.abs(denom) > 1e-290, newton / denom, newton)
            corr = np.where(np.isfinite(corr), corr, newton)
            # a non-finite correction means the evaluation overflowed out at
            # this iterate; contract it toward the origin instead
            corr = np.where(np.isfinite(corr), corr, 0.3 * z)
            corr = np.where(frozen, 0.0, corr)
            z = z - corr
            z = np.where(np.isfinite(z), z, 0.5 * scale)
            frozen = frozen | (np.abs(corr) <= 1e-15 * np.maximum(1.0, np.abs(z)))
            if np.all(frozen):
                break
    return z


def _single_linkage(points: list, tol: float) -> list:
    """Cluster points by single linkage at distance tol; returns lists of indices."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def _monic_from_clusters(clusters: list) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for centre, mult in clusters:
        for _ in range(mult):
            out = np.convolve(out, np.array([-centre, 1.0 + 0j]))
    return out


def _refine_multiple(monic: np.ndarray, centre: complex, mult: int) -> complex:
    """Sharpen an m-fold root estimate via Newton on the (m-1)-th derivative.

    An m-fold root of p is a simple, well-conditioned root of p^(m-1); the
    raw cluster centroid is only accurate to ~eps^(1/m), while this recovers
    it to near machine precision when the multiplicity really is m.
    """
    dcoeffs = monic
    for _ in range(mult - 1):
        dcoeffs = npoly.polyder(dcoeffs)
    return _newton_refine(dcoeffs, centre)


def _cluster_roots(points: list, monic_ascending: np.ndarray, radius: float) -> list:
    """Group root approximations into multiplicity clusters.

    Tolerances go from coarse (suited to high multiplicities, whose
    approximations scatter like eps^(1/m)) down to the 1e-7 x Cauchy-bound
    floor.  Candidate cluster centres are refined through the derivative
    structure, and the first clustering whose rebuilt monic polynomial
    matches the input within 1e-9 relative wins; the refinement is what
    makes that test sharp enough to reject merges of genuinely distinct
    roots.  The all-simple fallback is always consistent.
    """
    pts = sorted(points, key=lambda w: (w.real, w.imag))
    d = len(pts)
    if d == 0:
        return []
    ladder = []
    for m in range(d, 1, -1):
        ladder.append(max(CLUSTER_FLOOR_REL * radius, 25.0 * radius * _EPS ** (1.0 / (m + 1))))
    ladder.append(CLUSTER_FLOOR_REL * radius)
    ladder = sorted(set(ladder), reverse=True)
    scale = max(1.0, np.max(np.abs(monic_ascending)))
    for tol in ladder:
        groups = _single_linkage(pts, tol)
        clusters = []
        # a wrong multiplicity can overflow the derivative coefficients and
        # send the candidate centre to inf or nan; such a candidate fails the
        # rebuild test below and is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            for g in groups:
                centre = sum(pts[i] for i in g) / len(g)
                if len(g) > 1:
                    centre = _refine_multiple(monic_ascending, centre, len(g))
                clusters.append((complex(centre), len(g)))
            rebuilt = _monic_from_clusters(clusters)
            if len(rebuilt) == len(monic_ascending) and np.max(
                np.abs(rebuilt - monic_ascending)
            ) <= RECONSTRUCT_REL * scale:
                return clusters
    return [(p, 1) for p in pts]


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of p with multiplicities and scaled residuals.

    Deterministic for a fixed input.  Raises NonConvergenceError when any
    clustered root fails the 1e-8 scaled-residual gate.
    """
    d = p.degree
    if d < 1:
        raise ValueError("find_roots requires degree >= 1")
    coeffs = np.array(p.coeffs)
    top = p.max_coeff

    # exact (to trimming tolerance) roots at the origin are deflated first
    m0 = 0
    while m0 < d and abs(coeffs[m0]) <= TRIM_REL * top:
        m0 += 1
    work = coeffs[m0:]

    found: list = []
    if len(work) > 1:
        monic = work / work[-1]
        raw = _aberth(monic)
        found = [_polish_point(monic, complex(z)) for z in raw]

    all_pts = [0j] * m0 + found
    full_monic = coeffs / coeffs[-1]
    radius = p.cauchy_radius()
    clusters = _cluster_roots(all_pts, full_monic, radius)

    # centroids indistinguishable from the origin are snapped to exactly 0
    clusters = [((0j, m) if abs(c) <= TRIM_REL * radius else (c, m)) for c, m in clusters]
    clusters.sort(key=lambda cm: (cm[0].real, cm[0].imag))

    residuals = [scaled_residual(p, c) for c, _ in clusters]
    bad = [i for i, r in enumerate(residuals) if r > RESIDUAL_TOL]
    if bad:
        worst = max(residuals[i] for i in bad)
        raise NonConvergenceError(
            f"{len(bad)} root(s) failed the residual gate (worst {worst:.3e} > {RESIDUAL_TOL})"
        )
    if sum(m for _, m in clusters) != d:
        raise NonConvergenceError("root count with multiplicity does not match the degree")
    return RootSet(tuple(clusters), tuple(residuals))
