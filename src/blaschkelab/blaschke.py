"""Finite Blaschke products: evaluation, derivatives, critical points, fibers.

A product of order n is gamma * prod_k (z_k - z)/(1 - conj(z_k) z) with all
zeros z_k strictly inside the disc and |gamma| = 1.  The zero multiset plus
gamma is the only stored representation: values and derivatives are
accumulated factor by factor over the zeros, on fixed-size blocks of points.
Critical points and fibers are found by `polyroots` from the zeros and
gamma, without expanding any polynomial; the solver's module holds the one
block size, _BLOCK, that evaluation here shares with it.  This module
splits off the symbolic critical points of repeated zeros and checks what
the root finder returns.  `critical_sets` finds the critical points of many
products in shared Aberth runs, and `critical_points` is its one-product
case.  Instances are immutable and all operations are pure.

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
from .polyroots import _BLOCK, _Unresolved, critical_roots, fiber_roots

ZERO_MARGIN = 1e-12
POLE_TOL = 1e-14
ZERO_TOL = 1e-12
CIRCLE_BAND = 1e-9
DISTINCT_ZERO_TOL = 1e-12
FIBER_EVAL_TOL = 1e-8
# gamma recovery probes for conjugated products; the second is used when the
# first sits on a zero of the target
GAMMA_PROBES = (0j, 0.37 + 0.11j)


def _by_blocks(body):
    """body(self, zz), an array or a tuple of them, computed on consecutive
    blocks of _BLOCK points of the flattened zz into outputs of zz's shape."""
    def walk(self, zz):
        if zz.size <= _BLOCK:
            return body(self, zz)
        flat, outs = zz.reshape(-1), None
        for i in range(0, flat.size, _BLOCK):
            part = body(self, flat[i:i + _BLOCK])
            parts = part if isinstance(part, tuple) else (part,)
            outs = outs or [np.empty(zz.shape, dtype=complex) for _ in parts]
            for out, p in zip(outs, parts):
                out.reshape(-1)[i:i + _BLOCK] = p
        return tuple(outs) if isinstance(part, tuple) else outs[0]
    return walk


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
            if not abs(z) < 1.0 - ZERO_MARGIN:
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
        return uncoerce(self._eval(zz), scalar)

    __call__ = eval

    @_by_blocks
    def _eval(self, zz: np.ndarray) -> np.ndarray:
        out = np.full(zz.shape, self.gamma, dtype=complex)
        for z_k in self.zeros:
            out = out * (z_k - zz) / (1.0 - np.conj(z_k) * zz)
        return out

    def derivative(self, z):
        """B'(z) by the product rule, accumulated alongside the product.

        Each factor b_k = (z_k - z)/(1 - conj(z_k) z) has derivative
        -(1 - |z_k|^2)/(1 - conj(z_k) z)**2, so no step divides by z - z_k
        and the value is exact at the zeros too.
        """
        zz, scalar = coerce_points(z)
        self._check_poles(zz)
        return uncoerce(self._value_and_derivative(zz)[1], scalar)

    def log_derivative(self, z):
        """B'/B at z via the zero-by-zero sum; z must avoid zeros and poles."""
        zz, scalar = coerce_points(z)
        self._check_poles(zz)
        return uncoerce(self._log_derivative(zz), scalar)

    @_by_blocks
    def _log_derivative(self, zz: np.ndarray) -> np.ndarray:
        out = np.zeros(zz.shape, dtype=complex)
        for z_k in self.zeros:
            gap = zz - z_k
            if np.any(np.abs(gap) <= ZERO_TOL):
                raise ZeroProximityError(f"log derivative undefined at the zero {z_k}")
            out = out + (1.0 - abs(z_k) ** 2) / ((1.0 - np.conj(z_k) * zz) * gap)
        return out

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

    def _distinct_zeros(self):
        """The distinct zeros u and their multiplicities m, as arrays (m in
        floats, as the secular sum takes them).

        Each zero joins the group of the first zero within DISTINCT_ZERO_TOL
        of it, and a chain of such zeros joins the group at its head, so the
        multiplicities always sum to the order.
        """
        a = np.array(self.zeros)
        first = (np.abs(a[:, None] - a) <= DISTINCT_ZERO_TOL).argmax(axis=1)
        while (first[first] != first).any():
            first = first[first]
        head = first == np.arange(a.size)
        return a[head], np.bincount(first, minlength=a.size)[head].astype(float)

    def critical_points(self) -> CriticalSet:
        """All zeros of B', split into interior and exterior points: the one
        entry of `critical_sets([self])`."""
        return critical_sets([self])[0]

    @_by_blocks
    def _value_and_derivative(self, zz: np.ndarray):
        """(B, B') at the points zz by the product rule, in one pass."""
        val = np.full(zz.shape, self.gamma, dtype=complex)
        out = np.zeros(zz.shape, dtype=complex)
        for z_k in self.zeros:
            den = 1.0 - z_k.conjugate() * zz
            b = (z_k - zz) / den
            out = out * b - val * (1.0 - abs(z_k) ** 2) / den ** 2
            val = val * b
        return val, out

    def fiber_solve(self, c) -> list:
        """All order-many solutions of B(w) = c inside the disc (|c| < 1).

        A scalar c gives one list sorted by (re, im), an array one such list
        per target (flattened).  Solutions are the roots of Q (B - c),
        Q(w) = prod_k (1 - conj(z_k) w), found by Aberth iteration on B - c
        with B, B' and Q'/Q from one blocked pass over (roots x zeros), all
        targets in one run; for c = 0 they are the zeros.  Multiplicities
        are expanded.
        """
        cc = coerce_points(c)[0]
        targets = cc.ravel().tolist()
        if not all(abs(x) < 1.0 for x in targets):
            raise ValueError("fiber value must lie strictly inside the disc")
        fibers = [list(self.zeros)] * len(targets)
        todo = [t for t, x in enumerate(targets) if x != 0]
        if todo:
            cs = cc.ravel()[todo]
            try:
                found = fiber_roots(np.array(self.zeros), self.gamma, cs, self._distinct_zeros, FIBER_EVAL_TOL)
            except _Unresolved as exc:
                raise exc.renamed("targets", todo) from None
            escaped = ~(np.abs(found) < 1.0)
            if escaped.any():
                t, k = np.argwhere(escaped)[0]
                raise NonConvergenceError(f"fiber point {complex(found[t, k])} of {targets[todo[t]]} "
                                          "escaped the open disc")
            defect = np.abs(self.eval(found) - cs[:, None])
            bad = defect > FIBER_EVAL_TOL * (1.0 + np.abs(cs[:, None]))
            if bad.any():
                t, k = np.unravel_index(np.argmax(np.where(bad, defect, -1.0)), bad.shape)
                raise NonConvergenceError(f"fiber point {complex(found[t, k])} of {cs[t]} fails re-evaluation")
            for t, sols in zip(todo, found.tolist()):
                fibers[t] = sols
        out = [sorted(f, key=lambda w: (w.real, w.imag)) for f in fibers]
        return out[0] if cc.ndim == 0 else out

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


def critical_sets(products) -> list:
    """The CriticalSet of each product, in order: all zeros of B', split into
    interior and exterior points.

    Repeated zeros of B contribute critical points symbolically: a zero of
    multiplicity m is a critical point of multiplicity m - 1 (and so is its
    reflection).  The remaining ones are the zeros of the secular sum
    S(z) = B'/B = sum_k m_k (1-|u_k|^2) / ((1-conj(u_k) z)(z-u_k)) over the g
    distinct zeros u_k: g - 1 inside the disc, found by Aberth iteration
    started next to the zeros, and their reflections outside, which enter
    the coupling without being iterated.  Iterates that rounding cannot tell
    apart from a multiple root are merged, and a point whose error bound
    reaches the origin is exactly 0.

    Products with the same g share one Aberth run, a row each, in chunks of
    at most _BLOCK // g**2 rows so that the (roots x zeros) temporaries stay
    the size of an evaluation block.  Every product is solved before any is
    checked.  Raises NonConvergenceError, naming the products, when a root
    is still moving after the sweep cap.
    """
    products = list(products)
    distinct = [B._distinct_zeros() for B in products]
    by_count: dict = {}
    for i, (u, _) in enumerate(distinct):
        if len(u) >= 2:
            by_count.setdefault(len(u), []).append(i)
    found: list = [[] for _ in products]
    for g, members in by_count.items():
        step = max(1, _BLOCK // g ** 2)
        for start in range(0, len(members), step):
            chunk = members[start:start + step]
            u = np.array([distinct[i][0] for i in chunk])
            m = np.array([distinct[i][1] for i in chunk])
            try:
                roots = critical_roots(u, m)
            except _Unresolved as exc:
                raise exc.renamed("products", chunk) from None
            for i, pts in zip(chunk, roots):
                found[i] = pts
    return [_critical_set(B, u, m, pts) for B, (u, m), pts in zip(products, distinct, found)]


def _critical_set(B: FiniteBlaschkeProduct, u, m, found) -> CriticalSet:
    """B's CriticalSet from its distinct zeros u, multiplicities m and the
    interior zeros `found` of its secular sum, checked."""
    interior: list = [(complex(x), int(k) - 1) for x, k in zip(u, m) if k >= 2]
    for loc, mult in found:
        if abs(abs(loc) - 1.0) < CIRCLE_BAND:
            raise CircleStraddleError(f"critical point {loc} straddles the unit circle")
        interior.append((loc, mult))
    interior.sort(key=lambda cm: (cm[0].real, cm[0].imag))
    exterior = [(1.0 / p.conjugate(), k) for p, k in interior if p != 0]
    exterior.sort(key=lambda cm: (cm[0].real, cm[0].imag))
    count = sum(k for _, k in interior)
    if count != B.order - 1:
        raise NonConvergenceError(f"found {count} interior critical points, expected {B.order - 1}")
    return CriticalSet(tuple(interior), tuple(exterior))
