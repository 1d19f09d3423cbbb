"""Finite Blaschke products: evaluation, derivatives, critical points, fibers.

A product of order n is gamma * prod_k (z_k - z)/(1 - conj(z_k) z) with all
zeros z_k strictly inside the disc and |gamma| = 1.  The zero multiset plus
gamma is the only stored representation: values and derivatives are
multiplied out in place over a common denominator for each chunk of _CHUNK
zeros, operands in the order of the formulas (numpy's complex multiply is
not commutative bit for bit), and divided in once per chunk, on blocks.
Critical points and fibers are found by `polyroots` from the zeros and
gamma, without expanding any polynomial; the solver's module holds the one
block size, _BLOCK, that evaluation here shares with it.  This module
splits off the symbolic critical points of repeated zeros and checks what
the root finder returns.  `critical_sets` finds the critical points of many
products in one Aberth run, and `critical_points` is its one-product
case; `fiber_sets` does the same for fibers, one run per order, and
`fiber_solve` is its one-product case.  Instances are immutable and all
operations are pure.

Evaluation is defined on the whole plane minus the poles 1/conj(z_k); the
self-map guarantees (|B| < 1 inside, |B| = 1 on the circle) hold on the
closed disc, and outside the disc the values satisfy the reflection identity
B(z) * conj(B(1/conj(z))) = 1.
"""

from __future__ import annotations

import math
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
from .moebius import POLE_TOL, DiscAutomorphism, automorphism_eval, automorphism_inverse
from .polyroots import _BLOCK, critical_roots, fiber_roots

ZERO_MARGIN = 1e-12
ZERO_TOL = 1e-12
CIRCLE_BAND = 1e-9
DISTINCT_ZERO_TOL = 1e-12
FIBER_EVAL_TOL = 1e-8
# gamma recovery probes for conjugated products; the second is used when the
# first sits on a zero of the target
GAMMA_PROBES = (0j, 0.37 + 0.11j)


# From |z_k| = _SMALL up, a zero's factor 1 - conj(z_k) z is conj(z_k) (r_k - z),
# r_k = 1/conj(z_k): one array pass fewer.  Up to |z| = _FAR every factor is at
# most 2 _FAR and every constant at most 1/_SMALL = _FAR: the 2 _CHUNK factors of
# a chunk of B' or B'/B stay below 16 (2 _FAR)**32 = 2**996.  A factor that divides
# is above 1e-14 (the pole check): a chunk's denominator in B, B' is above 1e-224;
# in B'/B one of z - z_k, z - r_k is (or the zero check's 1e-12), the other above
# t_k/(2 |z_k|), so it is normal up to |z_k| = 1 - 6e-6, and over _CHUNK/2 zeros
# for any (1e-208).  Beyond _FAR a point takes chunks of one zero, one division each.
_CHUNK, _FAR = 16, 2.0 ** 30
_SMALL = 1.0 / _FAR


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

    def run(self, zz, chunk):  # a lone point runs as two
        if zz.size != 1:
            return body(self, zz, chunk)
        # numpy takes an in-place multiply of one element for a reduction, which rounds otherwise
        part = body(self, np.repeat(zz, 2), chunk)
        return tuple(p[:1].reshape(zz.shape) for p in part) if isinstance(part, tuple) else part[:1].reshape(zz.shape)

    def split(self, zz):
        far = np.abs(zz) > _FAR
        count = np.count_nonzero(far)
        if count in (0, zz.size):
            # a scalar runs as a numpy scalar, whose arithmetic skips the ufunc machinery
            chunk = 1 if count else _CHUNK
            return body(self, zz[()], chunk) if zz.ndim == 0 else run(self, zz, chunk)
        flat, far = zz.reshape(-1), far.reshape(-1)
        return put(zz.shape, [(~far, run(self, flat[~far], _CHUNK)), (far, run(self, flat[far], 1))])

    def walk(self, zz):
        if zz.size <= _BLOCK:
            return split(self, zz)
        flat = zz.reshape(-1)
        return put(zz.shape, ((slice(i, i + _BLOCK), split(self, flat[i:i + _BLOCK]))
                              for i in range(0, flat.size, _BLOCK)))
    return walk


def _chunk_factors(zeros, sizes) -> dict:
    """{size: runs of size zeros (of size/2 if a zero lies past 1 - 6e-6)} for each of sizes, each run
    (s, factors).  From _SMALL up a zero gives (z_k, r_k, None, d_k, C d_k): pole factor r_k - z,
    r_k = 1/conj(z_k), d_k = -t_k/conj(z_k), t_k = 1 - |z_k|^2; below (z_k, None, c_k, -t_k, C d_k):
    1 - c_k z, c_k = conj(z_k).  s = 1/C, C the product of the run's conj(z_k) of r_k - z.  A zero is a
    number, or a (rows, 1) column of one zero per row of points, whose constants are then columns too:
    it takes the pole factor r_k - z where every row's zero is at least _SMALL."""
    zs = np.array(zeros)
    mods = np.hypot(zs.real, zs.imag).reshape(len(zs), -1)  # abs() of a Python complex, a row per zero
    f = [(z, 1.0 / z.conjugate(), None, (abs(z) ** 2 - 1.0) / z.conjugate()) if low >= _SMALL
         else (z, None, z.conjugate(), abs(z) ** 2 - 1.0) for z, low in zip(zeros, mods.min(axis=1).tolist())]
    near = mods.max() > 1.0 - 6e-6
    runs = {size: [] for size in sizes}
    for size, m in ((size, (size + 1) // 2 if near else size) for size in sizes):
        for run in (f[i:i + m] for i in range(0, len(f), m)):
            C = math.prod(z.conjugate() for z, r, _, _ in run if r is not None)
            runs[size].append((1.0 / C, tuple(x + (C * x[3],) for x in run)))
    return runs


def _product(gamma, runs, zz: np.ndarray) -> np.ndarray:
    """gamma prod s N/D over the runs (`_chunk_factors`), N = prod (z_k - z), D = prod p_k: of zz's
    shape, or (rows, points) for runs of columns and points zz of one dimension."""
    out = np.full(zz.shape, gamma, dtype=complex)
    for s, ((a, r, c, _, _), *rest) in runs:
        num, den = a - zz, r - zz if c is None else 1.0 - c * zz
        for a, r, c, _, _ in rest:
            num *= a - zz
            den *= r - zz if c is None else 1.0 - c * zz
        # the chunk's value first: out * num can overflow where it does not
        num *= s / den
        out = out * num
    return out


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
    def _chunks(self) -> dict:
        """{1: runs of one zero, _CHUNK: runs of _CHUNK} (`_chunk_factors`)."""
        return _chunk_factors(self.zeros, (1, _CHUNK))

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

    _eval = _by_blocks(lambda self, zz, chunk: _product(self.gamma, self._chunks[chunk], zz))

    def derivative(self, z):
        """B'(z) by the product rule, accumulated alongside the product.

        Each factor b_k = (z_k - z)/(1 - conj(z_k) z) has derivative
        -(1 - |z_k|^2)/(1 - conj(z_k) z)**2, so no step divides by z - z_k
        and the value is exact at the zeros too.
        """
        zz, scalar = coerce_points(z)
        self._check_poles(zz)
        return uncoerce(self._derivative(zz), scalar)

    def log_derivative(self, z):
        """B'/B at z, the sum of (1 - |z_k|^2)/w_k with w_k = (1 - conj(z_k) z)(z - z_k);
        z must avoid zeros and poles."""
        zz, scalar = coerce_points(z)
        self._check_poles(zz)
        return uncoerce(self._log_derivative(zz), scalar)

    @_by_blocks
    def _log_derivative(self, zz: np.ndarray, chunk: int) -> np.ndarray:
        """sum d_k/w_k, w_k = (z_k - z) p_k (_chunks), as one fraction over prod w_k per chunk."""
        self._check_zero_proximity(zz)
        out = 0.0
        for _, ((a, r, c, d, _), *rest) in self._chunks[chunk]:
            e, p = a - zz, r - zz if c is None else 1.0 - c * zz
            # a lone factor keeps e and p apart: at far points e * p overflows
            num, den = (d, e * p) if rest else (d / p, e)
            for a, r, c, d, _ in rest:
                w = (a - zz) * (r - zz if c is None else 1.0 - c * zz)
                num *= w
                num += d * den
                den *= w
            out += num / den
        return out

    @cached_property
    def _real_parts(self) -> np.ndarray:
        return np.append(np.sort(np.array(self.zeros).real), np.inf)

    def _near_real_parts(self, x):
        """Whether a Re z_k lies within 2 ZERO_TOL of x: the first from x - 2 ZERO_TOL on (inf if none)."""
        return self._real_parts[np.searchsorted(self._real_parts, x - 2.0 * ZERO_TOL)] <= x + 2.0 * ZERO_TOL

    def _check_zero_proximity(self, zz) -> None:
        """ZeroProximityError where |z - z_k| <= ZERO_TOL, tested at the points
        with a Re z_k within 2 ZERO_TOL of Re z (a margin for rounding)."""
        near = np.reshape(zz, -1)[np.reshape(self._near_real_parts(zz.real), -1)]
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
        out = 0.0
        for z_k in self.zeros:
            out += (1.0 - abs(z_k) ** 2) / np.abs(w - z_k) ** 2
        return float(out) if scalar else out

    @cached_property
    def _distinct_zeros(self) -> tuple:
        """The distinct zeros u and their multiplicities m, as arrays (m in
        floats, as the secular sum takes them): the one-row case of
        `_distinct_rows`."""
        return _distinct_rows(np.array([self.zeros]))[0]

    def critical_points(self) -> CriticalSet:
        """All zeros of B', split into interior and exterior points: the one
        entry of `critical_sets([self])`."""
        return critical_sets([self])[0]

    def _product_rule(self, zz: np.ndarray, chunk: int):
        """(B, B') at the points zz by the product rule, in one pass: with N, D
        and s as in `_product`, a chunk's B' is s M/D**2, and each zero adds the
        product rule's term to M = N'D - ND', M <- M (z_k - z) p_k + d_k N D,
        kept times C = 1/s so that s/D serves both: B' = (C M) (s/D)**2."""
        val = np.full(zz.shape, self.gamma, dtype=complex)
        der = np.zeros(zz.shape, dtype=complex)
        for s, ((a, r, c, _, dc), *rest) in self._chunks[chunk]:
            num, den, m = a - zz, r - zz if c is None else 1.0 - c * zz, dc
            for a, r, c, _, dc in rest:
                e, p = a - zz, r - zz if c is None else 1.0 - c * zz
                m *= e
                m *= p
                m += dc * num * den
                num *= e
                den *= p
            inv = s / den
            b = num * inv
            der = der * b + val * (m * inv) * inv
            val = val * b
        return val, der

    _value_and_derivative = _by_blocks(_product_rule)
    _derivative = _by_blocks(lambda self, zz, chunk: self._product_rule(zz, chunk)[1])

    def fiber_solve(self, c) -> list:
        """All order-many solutions of B(w) = c inside the disc (|c| < 1):
        the one entry of `fiber_sets([self], [c])`.

        A scalar c gives one list sorted by (re, im), an array one such list
        per target (flattened).  For c = 0 they are the zeros, and
        multiplicities are expanded.
        """
        return fiber_sets([self], [c])[0]

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

    All products with g >= 2 share one Aberth run, a row each, the rows
    with fewer distinct zeros than the widest padded with weight-0 copies
    of one of their own (`critical_roots`).  The distinct zeros of the
    products of one order are found in one pass (`_distinct_rows`).  Every
    product is solved before any is checked.  Raises NonConvergenceError,
    naming the products, when a root is still moving after the sweep cap.
    """
    products = list(products)
    distinct = _distinct_sets(products)
    rows = [i for i, (u, _) in enumerate(distinct) if len(u) >= 2]
    found: list = [[] for _ in products]
    if rows:
        for i, pts in zip(rows, critical_roots([distinct[i] for i in rows], ("products", rows))):
            found[i] = pts
    return [_critical_set(B, u, m, pts) for B, (u, m), pts in zip(products, distinct, found)]


def _distinct_sets(products) -> list:
    """B._distinct_zeros of each product; those not yet found take one
    `_distinct_rows` pass per order, and keep it."""
    by_order: dict = {}
    for B in products:
        if "_distinct_zeros" not in vars(B):
            by_order.setdefault(B.order, []).append(B)
    for group in by_order.values():
        for B, pair in zip(group, _distinct_rows(np.array([B.zeros for B in group]))):
            vars(B)["_distinct_zeros"] = pair
    return [B._distinct_zeros for B in products]


def _distinct_rows(a) -> list:
    """The distinct zeros u and their multiplicities m (in floats, as the
    secular sum takes them) of each row of the (products x n) zeros a, an
    array of the caller's own, which it makes read-only.

    Zeros within DISTINCT_ZERO_TOL, directly or by a chain, are one
    repeated zero (`components` over (products x n x n) links, in blocks of
    at most _BLOCK entries), so the multiplicities always sum to the order.
    It sits at h + mean(members - h), with the members in (re, im) order and
    h the first of them: the same bits in any order of the zeros, and an
    exact repeat's own bits.
    """
    n = a.shape[1]
    step = max(1, _BLOCK // n ** 2)
    blocks = [components(np.abs(a[i:i + step, :, None] - a[i:i + step, None, :]) <= DISTINCT_ZERO_TOL)
              for i in range(0, len(a), step)]
    labels = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    heads = labels == np.arange(n)
    # rows of simple zeros are read-only views of a
    m = np.ones(a.shape)
    a.flags.writeable = m.flags.writeable = False
    out = list(zip(a, m))
    for r in [r for r, simple in enumerate(heads.all(axis=1).tolist()) if not simple]:
        row, label, head = a[r], labels[r], heads[r]
        u, m = row[head], np.bincount(label, minlength=n)[head].astype(float)
        for j, k in enumerate(np.flatnonzero(head)):
            members = sorted(row[label == k].tolist(), key=lambda x: (x.real, x.imag))
            shift = sum(x - members[0] for x in members) / len(members)
            u[j] = members[0] + shift if shift else members[0]
        out[r] = u, m
    return out


def fiber_sets(products, targets) -> list:
    """For each product B and its targets c, in order, what B.fiber_solve(c)
    returns: all order-many solutions of B(w) = c inside the disc (|c| < 1),
    one list sorted by (re, im) for a scalar c and one such list per target
    (flattened) for an array.

    Solutions are the roots of Q (B - c), Q(w) = prod_k (1 - conj(z_k) w),
    found by Aberth iteration on B - c with B, B' and Q'/Q from one blocked
    pass over (roots x zeros); for c = 0 they are the zeros.  Multiplicities
    are expanded.  The nonzero targets of all products of one order share
    one Aberth run, a row each: under the product's zeros where the order
    has one product, with a row of zeros per target otherwise.  Every fiber
    is solved before any is checked.  Raises NonConvergenceError when a root
    is still moving after the sweep cap, naming the targets (with their
    products, if there are several), and when a fiber point leaves the open
    disc or fails re-evaluation.
    """
    products, points = list(products), [coerce_points(c)[0] for c in targets]
    if len(points) != len(products):
        raise ValueError("need one target, or one array of targets, per product")
    values = [cc.ravel().tolist() for cc in points]
    if not all(abs(x) < 1.0 for xs in values for x in xs):
        raise ValueError("fiber value must lie strictly inside the disc")
    todo = [[t for t, x in enumerate(xs) if x != 0] for xs in values]
    by_order: dict = {}
    for i, B in enumerate(products):
        if todo[i]:
            by_order.setdefault(B.order, []).append(i)
    found: dict = {}
    for members in by_order.values():
        rows = [(i, t) for i in members for t in todo[i]]
        c = np.array([values[i][t] for i, t in rows])
        names = ("targets", [t if len(products) == 1 else f"{t} of product {i}" for i, t in rows])
        if len(members) == 1:
            B = products[members[0]]
            w = fiber_roots(np.array(B.zeros), B.gamma, c, B._distinct_zeros, FIBER_EVAL_TOL, names)
        else:
            owners = [products[i] for i, _ in rows]
            w = fiber_roots(np.array([B.zeros for B in owners]), np.array([B.gamma for B in owners]), c,
                            [B._distinct_zeros for B in owners], FIBER_EVAL_TOL, names)
        # a product's rows are consecutive, in the order of its targets
        end = 0
        for i in members:
            found[i], end = w[end:end + len(todo[i])], end + len(todo[i])
    out = []
    for i, (B, cc) in enumerate(zip(products, points)):
        fibers, cs = found.get(i), cc.ravel()
        if fibers is None or len(fibers) < cs.size:
            # the fiber of 0 is the zero multiset, which passes the checks below
            fibers, solved = np.repeat(np.array([B.zeros]), cs.size, axis=0), fibers
            if todo[i]:
                fibers[todo[i]] = solved
        if todo[i]:
            escaped = ~(np.abs(fibers) < 1.0)
            if escaped.any():
                t, k = np.argwhere(escaped)[0]
                raise NonConvergenceError(f"fiber point {complex(fibers[t, k])} of {cs[t]} escaped the open disc")
            defect = np.abs(B.eval(fibers) - cs[:, None])
            bad = defect > FIBER_EVAL_TOL * (1.0 + np.abs(cs[:, None]))
            if bad.any():
                t, k = np.unravel_index(np.argmax(np.where(bad, defect, -1.0)), bad.shape)
                raise NonConvergenceError(f"fiber point {complex(fibers[t, k])} of {cs[t]} fails re-evaluation")
        # a stable sort of complex numbers orders them by (re, im), as sorted() by that key
        fibers = np.sort(fibers, axis=1, kind="stable").tolist()
        out.append(fibers[0] if cc.ndim == 0 else fibers)
    return out


def _critical_set(B: FiniteBlaschkeProduct, u, m, found) -> CriticalSet:
    """B's CriticalSet from its distinct zeros u, multiplicities m and the
    interior zeros `found` of its secular sum, checked."""
    for loc, _ in found:
        if abs(abs(loc) - 1.0) < CIRCLE_BAND:
            raise CircleStraddleError(f"critical point {loc} straddles the unit circle")
    interior = [(x, int(k) - 1) for x, k in zip(u.tolist(), m.tolist()) if k >= 2] + found
    interior.sort(key=lambda cm: (cm[0].real, cm[0].imag))
    exterior = [(1.0 / p.conjugate(), k) for p, k in interior if p != 0]
    exterior.sort(key=lambda cm: (cm[0].real, cm[0].imag))
    count = sum(k for _, k in interior)
    if count != B.order - 1:
        raise NonConvergenceError(f"found {count} interior critical points, expected {B.order - 1}")
    return CriticalSet(tuple(interior), tuple(exterior))
