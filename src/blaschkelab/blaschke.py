"""Finite Blaschke products: evaluation, derivatives, critical points, fibers.

A product of order n is gamma * prod_k (z_k - z)/(1 - conj(z_k) z) with all
zeros z_k strictly inside the disc and |gamma| = 1.  The zero multiset plus
gamma is the only stored representation: values and derivatives are
accumulated factor by factor over the zeros, vectorized over the points, and
the polynomials handed to the root finder are built where they are needed.
Instances are immutable and all operations are pure.

Evaluation is defined on the whole plane minus the poles 1/conj(z_k); the
self-map guarantees (|B| < 1 inside, |B| = 1 on the circle) hold on the
closed disc, and outside the disc the values satisfy the reflection identity
B(z) * conj(B(1/conj(z))) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import coerce_points, uncoerce
from .errors import (
    CircleStraddleError,
    NonConvergenceError,
    PoleProximityError,
    ZeroProximityError,
)
from .moebius import DiscAutomorphism, automorphism_eval, automorphism_inverse
from .polyroots import Polynomial, find_roots

ZERO_MARGIN = 1e-12
POLE_TOL = 1e-14
ZERO_TOL = 1e-12
CIRCLE_BAND = 1e-9
DISTINCT_ZERO_TOL = 1e-12
FIBER_EVAL_TOL = 1e-8
# gamma recovery probes for conjugated products; the second is used when the
# first sits on a zero of the target
GAMMA_PROBES = (0j, 0.37 + 0.11j)


@dataclass(frozen=True)
class CriticalSet:
    """Zeros of B' split by position: inside the open disc and outside.

    Interior multiplicities sum to order - 1; exterior points are the
    reflections 1/conj(w) of interior ones, except that reflections of
    interior critical points at the origin escape to infinity and are not
    listed.
    """

    interior: tuple   # tuple of (complex, int)
    exterior: tuple   # tuple of (complex, int)


@dataclass(frozen=True)
class FiniteBlaschkeProduct:
    """Unimodular constant plus zero multiset, all zeros with |z| < 1 - 1e-12."""

    gamma: complex
    zeros: tuple

    def __post_init__(self):
        zs = tuple(complex(z) for z in self.zeros)
        if not zs:
            raise ValueError("a finite Blaschke product needs at least one zero")
        for z in zs:
            if abs(z) >= 1.0 - ZERO_MARGIN:
                raise ValueError(f"zero {z} is not strictly inside the disc")
        g = complex(self.gamma)
        mod = abs(g)
        if not np.isfinite(mod) or mod == 0.0:
            raise ValueError("gamma must be finite and nonzero")
        object.__setattr__(self, "gamma", g / mod)
        object.__setattr__(self, "zeros", zs)

    @classmethod
    def monomial(cls, n: int) -> "FiniteBlaschkeProduct":
        """The product equal to z**n: n zeros at the origin, gamma = (-1)**n."""
        if n < 1:
            raise ValueError("order must be at least 1")
        return cls((-1.0) ** n, (0j,) * n)

    @property
    def order(self) -> int:
        return len(self.zeros)

    def _check_poles(self, zz: np.ndarray) -> None:
        # Zeros satisfy |z_k| < 1 - ZERO_MARGIN, so on the closed disc
        # |1 - conj(z_k) z| >= 1 - |z_k| > POLE_TOL: only points outside the
        # disc can come near a pole 1/conj(z_k).
        outside = zz[np.abs(zz) > 1.0]
        if outside.size == 0:
            return
        for z_k in self.zeros:
            if np.any(np.abs(1.0 - np.conj(z_k) * outside) < POLE_TOL):
                raise PoleProximityError(
                    f"evaluation point too close to the pole 1/conj({z_k})"
                )

    def eval(self, z):
        """Product-formula value at z (scalar or ndarray)."""
        zz, scalar = coerce_points(z)
        self._check_poles(zz)
        out = np.full(zz.shape, self.gamma, dtype=complex)
        for z_k in self.zeros:
            out = out * (z_k - zz) / (1.0 - np.conj(z_k) * zz)
        return uncoerce(out, scalar)

    __call__ = eval

    def derivative(self, z):
        """B'(z) by the product rule, accumulated alongside the product.

        Each factor b_k = (z_k - z)/(1 - conj(z_k) z) has derivative
        -(1 - |z_k|^2)/(1 - conj(z_k) z)**2, so no step divides by z - z_k
        and the value is exact at the zeros too.
        """
        zz, scalar = coerce_points(z)
        self._check_poles(zz)
        val = np.full(zz.shape, self.gamma, dtype=complex)
        out = np.zeros(zz.shape, dtype=complex)
        for z_k in self.zeros:
            den = 1.0 - np.conj(z_k) * zz
            b = (z_k - zz) / den
            out = out * b - val * (1.0 - abs(z_k) ** 2) / den ** 2
            val = val * b
        return uncoerce(out, scalar)

    def log_derivative(self, z):
        """B'/B at z via the zero-by-zero sum; z must avoid zeros and poles."""
        zz, scalar = coerce_points(z)
        self._check_poles(zz)
        out = np.zeros(zz.shape, dtype=complex)
        for z_k in self.zeros:
            gap = zz - z_k
            if np.any(np.abs(gap) <= ZERO_TOL):
                raise ZeroProximityError(f"log derivative undefined at the zero {z_k}")
            out = out + (1.0 - abs(z_k) ** 2) / ((1.0 - np.conj(z_k) * zz) * gap)
        return uncoerce(out, scalar)

    def boundary_derivative_modulus(self, theta):
        """|B'(exp(i theta))| = sum_k (1 - |z_k|^2) / |exp(i theta) - z_k|^2.

        Strictly positive for every angle, which is what rules out critical
        points on the circle.
        """
        tt, scalar = coerce_points(theta)
        w = np.exp(1j * tt.real)
        out = np.zeros(w.shape, dtype=float)
        for z_k in self.zeros:
            out = out + (1.0 - abs(z_k) ** 2) / np.abs(w - z_k) ** 2
        return float(out) if scalar else out

    def _distinct_zeros(self) -> list:
        """Group the zero multiset into (representative, multiplicity) pairs."""
        groups: list = []
        for z in self.zeros:
            for i, (u, m) in enumerate(groups):
                if abs(z - u) <= DISTINCT_ZERO_TOL:
                    groups[i] = (u, m + 1)
                    break
            else:
                groups.append((z, 1))
        return groups

    def critical_points(self) -> CriticalSet:
        """All zeros of B', split into interior and exterior points.

        Repeated zeros of B contribute critical points symbolically: a zero
        of multiplicity m is a critical point of multiplicity m - 1 (and so
        is its reflection).  The remaining critical points are the roots of
        the reduced equation sum_k m_k (1-|u_k|^2) / ((1-conj(u_k) z)(z-u_k)) = 0
        cleared of denominators, which keeps the root finding well
        conditioned even for the deliberately multiple configurations.  The
        combined root multiset coincides with that of the raw numerator
        P'Q - PQ'.
        """
        groups = self._distinct_zeros()
        interior: list = []
        exterior: list = []
        for u, m in groups:
            if m >= 2:
                interior.append((u, m - 1))
                if abs(u) > 0:
                    exterior.append((1.0 / np.conj(u), m - 1))

        if len(groups) >= 2:
            factors = []
            for u, _ in groups:
                factors.append(np.convolve(np.array([-u, 1.0 + 0j]),
                                           np.array([1.0 + 0j, -np.conj(u)])))
            reduced = np.zeros(2 * len(groups) - 1, dtype=complex)
            for k, (u, m) in enumerate(groups):
                term = np.array([m * (1.0 - abs(u) ** 2) + 0j])
                for j, f in enumerate(factors):
                    if j != k:
                        term = np.convolve(term, f)
                reduced[: len(term)] += term
            roots = find_roots(Polynomial(tuple(reduced)))
            for loc, mult in roots.roots:
                r = abs(loc)
                if abs(r - 1.0) < CIRCLE_BAND:
                    raise CircleStraddleError(
                        f"critical point {loc} straddles the unit circle"
                    )
                if r < 1.0:
                    interior.append((loc, mult))
                else:
                    exterior.append((loc, mult))

        interior.sort(key=lambda cm: (cm[0].real, cm[0].imag))
        exterior.sort(key=lambda cm: (cm[0].real, cm[0].imag))
        count = sum(m for _, m in interior)
        if count != self.order - 1:
            raise NonConvergenceError(
                f"found {count} interior critical points, expected {self.order - 1}"
            )
        return CriticalSet(tuple(interior), tuple(exterior))

    def fiber_solve(self, c) -> list:
        """All order-many solutions of B(w) = c inside the disc (|c| < 1).

        Solutions are the roots of P(w) - c Q(w); multiplicities are expanded
        in the returned list, sorted by (re, im).
        """
        c = complex(c)
        if abs(c) >= 1.0:
            raise ValueError("fiber value must lie strictly inside the disc")
        # ascending coefficients of P(w) = gamma prod (z_k - w) and of
        # Q(w) = prod (1 - conj(z_k) w)
        p = self.gamma * (-1.0) ** self.order * np.poly(self.zeros)[::-1]
        q = np.poly(np.conj(self.zeros))
        roots = find_roots(Polynomial(tuple(p - c * q)))
        sols = roots.locations()
        if len(sols) != self.order:
            raise NonConvergenceError(
                f"fiber of {c} has {len(sols)} roots, expected {self.order}"
            )
        for w in sols:
            if abs(w) >= 1.0:
                raise NonConvergenceError(f"fiber point {w} escaped the open disc")
            if abs(self.eval(w) - c) > FIBER_EVAL_TOL * (1.0 + abs(c)):
                raise NonConvergenceError(f"fiber point {w} fails re-evaluation")
        return sorted(sols, key=lambda w: (w.real, w.imag))

    def conjugate_by(
        self, inner: DiscAutomorphism, outer: DiscAutomorphism
    ) -> "FiniteBlaschkeProduct":
        """The product equal to outer(B(inner(z))), built exactly.

        Zeros are inner^{-1} applied to the fiber of outer^{-1}(0); the
        unimodular constant is recovered by matching the value at a probe
        point away from the zeros.
        """
        target0 = automorphism_eval(automorphism_inverse(outer), 0.0)
        fiber = self.fiber_solve(target0)
        inv_inner = automorphism_inverse(inner)
        new_zeros = tuple(automorphism_eval(inv_inner, w) for w in fiber)

        probe = None
        for cand in GAMMA_PROBES:
            if min(abs(cand - z) for z in new_zeros) > 1e-6:
                probe = cand
                break
        if probe is None:
            raise NonConvergenceError("no admissible probe point for gamma recovery")
        target_val = automorphism_eval(outer, self.eval(automorphism_eval(inner, probe)))
        base = FiniteBlaschkeProduct(1.0, new_zeros).eval(probe)
        return FiniteBlaschkeProduct(target_val / base, new_zeros)
