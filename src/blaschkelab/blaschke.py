"""Finite Blaschke products: evaluation, derivatives, critical points, fibers.

A product of order n is gamma * prod_k (z_k - z)/(1 - conj(z_k) z) with all
zeros z_k strictly inside the disc and |gamma| = 1.  The zero multiset plus
gamma is the only stored representation: values and derivatives are
multiplied out over a common denominator for each chunk of _CHUNK zeros and
divided in once per chunk, on fixed-size blocks of points.
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
from functools import cached_property

import numpy as np

from ._util import coerce_points, components, uncoerce
from .errors import (
    CircleStraddleError,
    NonConvergenceError,
    PoleProximityError,
    ZeroProximityError,
)
from .moebius import DiscAutomorphism, automorphism_eval, automorphism_inverse
from .polyroots import _BLOCK, critical_roots, fiber_roots

ZERO_MARGIN = 1e-12
POLE_TOL = 1e-14
ZERO_TOL = 1e-12
CIRCLE_BAND = 1e-9
DISTINCT_ZERO_TOL = 1e-12
FIBER_EVAL_TOL = 1e-8
# gamma recovery probes for conjugated products; the second is used when the
# first sits on a zero of the target
GAMMA_PROBES = (0j, 0.37 + 0.11j)


# A chunk multiplies 8 factors z_k - z and 1 - conj(z_k) z (16 for B', B'/B)
# before it divides.  A factor is at most 1 + |z|, and one that divides is
# above 1e-14 (the pole check, and the zero check of B'/B), so up to
# |z| = _FAR no product overflows and no denominator underflows (1e-224 to
# 1e199).  Beyond _FAR a point takes one zero per chunk, and B' and B'/B
# divide by one factor at a time.  These bounds fix both constants.
_CHUNK, _FAR = 8, 2.0 ** 40


def _by_blocks(body):
    """body(self, zz, chunk), an array or a tuple of them, computed on
    consecutive blocks of _BLOCK points of the flattened zz into outputs of
    zz's shape.  A point takes chunks of _CHUNK zeros, or of one beyond
    _FAR, whatever the other points of its array."""
    def put(shape, pieces):
        outs = None
        for index, part in pieces:
            parts = part if isinstance(part, tuple) else (part,)
            outs = outs or [np.empty(shape, dtype=complex) for _ in parts]
            for out, p in zip(outs, parts):
                out.reshape(-1)[index] = p
        return tuple(outs) if isinstance(part, tuple) else outs[0]

    def split(self, zz):
        far = np.abs(zz) > _FAR
        count = np.count_nonzero(far)
        if count in (0, zz.size):
            # a scalar runs as a numpy scalar, whose arithmetic skips the ufunc machinery
            return body(self, zz[()] if zz.ndim == 0 else zz, 1 if count else _CHUNK)
        flat, far = zz.reshape(-1), far.reshape(-1)
        return put(zz.shape, [(~far, body(self, flat[~far], _CHUNK)), (far, body(self, flat[far], 1))])

    def walk(self, zz):
        if zz.size <= _BLOCK:
            return split(self, zz)
        flat = zz.reshape(-1)
        return put(zz.shape, ((slice(i, i + _BLOCK), split(self, flat[i:i + _BLOCK]))
                              for i in range(0, flat.size, _BLOCK)))
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

    @cached_property
    def _factors(self) -> tuple:
        """(z_k, conj(z_k), 1 - |z_k|^2) for each zero z_k."""
        return tuple((z, z.conjugate(), 1.0 - abs(z) ** 2) for z in self.zeros)

    def _chunks(self, chunk: int) -> list:
        """(first factor, the others) of each run of `chunk` zeros."""
        f = self._factors
        return [(f[i], f[i + 1:i + chunk]) for i in range(0, len(f), chunk)]

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
    def _eval(self, zz: np.ndarray, chunk: int) -> np.ndarray:
        """gamma prod N/D over the chunks, N = prod (z_k - z), D = prod (1 - conj(z_k) z)."""
        out = np.full(zz.shape, self.gamma, dtype=complex)
        for (a, c, _), rest in self._chunks(chunk):
            num, den = a - zz, 1.0 - c * zz
            for a, c, _ in rest:
                num, den = num * (a - zz), den * (1.0 - c * zz)
            # a lone far factor divides first: out * num can overflow there
            out = out * (num / den) if chunk == 1 else out * num / den
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
        """B'/B at z, the sum of (1 - |z_k|^2)/w_k with w_k = (1 - conj(z_k) z)(z - z_k);
        z must avoid zeros and poles."""
        zz, scalar = coerce_points(z)
        self._check_poles(zz)
        return uncoerce(self._log_derivative(zz), scalar)

    @_by_blocks
    def _log_derivative(self, zz: np.ndarray, chunk: int) -> np.ndarray:
        """sum t_k/w_k, t_k = 1 - |z_k|^2, as one fraction over prod w_k per chunk."""
        self._check_zero_proximity(zz)
        out = np.zeros(zz.shape, dtype=complex)
        for (a, c, t), rest in self._chunks(chunk):
            q, gap = 1.0 - c * zz, zz - a
            # a lone factor keeps q and gap apart: at far points q * gap overflows
            num, den = (t, q * gap) if rest else (t / q, gap)
            for a, c, t in rest:
                w = (1.0 - c * zz) * (zz - a)
                num, den = num * w + t * den, den * w
            out = out + num / den
        return out

    @cached_property
    def _real_parts(self) -> np.ndarray:
        return np.sort(np.array(self.zeros).real)

    def _check_zero_proximity(self, zz) -> None:
        """ZeroProximityError where |z - z_k| <= ZERO_TOL, tested at the points
        with a Re z_k within 2 ZERO_TOL of Re z (a margin for rounding)."""
        lo = np.searchsorted(self._real_parts, zz.real - 2.0 * ZERO_TOL)
        hi = np.searchsorted(self._real_parts, zz.real + 2.0 * ZERO_TOL, "right")
        near = np.reshape(zz, -1)[np.reshape(lo < hi, -1)]
        if near.size == 0:
            return
        for z_k in self.zeros:
            if np.any(np.abs(near - z_k) <= ZERO_TOL):
                raise ZeroProximityError(f"log derivative undefined at the zero {z_k}")

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

    @cached_property
    def _distinct_zeros(self) -> tuple:
        """The distinct zeros u and their multiplicities m, as arrays (m in
        floats, as the secular sum takes them).

        Zeros within DISTINCT_ZERO_TOL, directly or by a chain, are one
        repeated zero (`components`) at their first, in any order, so the
        multiplicities always sum to the order.
        """
        a = np.array(self.zeros)
        label = components(np.abs(a[:, None] - a) <= DISTINCT_ZERO_TOL)
        head = label == np.arange(a.size)
        return a[head], np.bincount(label, minlength=a.size)[head].astype(float)

    def critical_points(self) -> CriticalSet:
        """All zeros of B', split into interior and exterior points: the one
        entry of `critical_sets([self])`."""
        return critical_sets([self])[0]

    @_by_blocks
    def _value_and_derivative(self, zz: np.ndarray, chunk: int):
        """(B, B') at the points zz by the product rule, in one pass: with N, D
        as in _eval, a chunk's derivative is M/D**2, and each zero adds the
        product rule's term, M <- M (z_k - z)(1 - conj(z_k) z) - t_k N D."""
        val = np.full(zz.shape, self.gamma, dtype=complex)
        der = np.zeros(zz.shape, dtype=complex)
        for (a, c, t), rest in self._chunks(chunk):
            num, den, m = a - zz, 1.0 - c * zz, -t
            for a, c, t in rest:
                e, q = a - zz, 1.0 - c * zz
                m = m * e * q - t * num * den
                num, den = num * e, den * q
            r = 1.0 / den
            b = num * r
            der = der * b + val * (m * r) * r
            val = val * b
        return val, der

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
            found = fiber_roots(np.array(self.zeros), self.gamma, cs, self._distinct_zeros, FIBER_EVAL_TOL,
                                ("targets", todo))
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
    distinct = [B._distinct_zeros for B in products]
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
            for i, pts in zip(chunk, critical_roots(u, m, ("products", chunk))):
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
