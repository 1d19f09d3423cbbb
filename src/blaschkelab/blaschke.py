"""Finite Blaschke products: evaluation, derivatives, critical points, fibers.

A product of order n is gamma * prod_k (z_k - z)/(1 - conj(z_k) z) with all
zeros z_k strictly inside the disc and |gamma| = 1.  The zero multiset plus
gamma is the only stored representation: values and derivatives are
accumulated factor by factor over the zeros, vectorized over the points, and
critical points and fibers come from Aberth iteration on the secular sum
B'/B and on B - c, at O(order) per point, without expanding any polynomial.
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

ZERO_MARGIN = 1e-12
POLE_TOL = 1e-14
ZERO_TOL = 1e-12
CIRCLE_BAND = 1e-9
DISTINCT_ZERO_TOL = 1e-12
FIBER_EVAL_TOL = 1e-8
# gamma recovery probes for conjugated products; the second is used when the
# first sits on a zero of the target
GAMMA_PROBES = (0j, 0.37 + 0.11j)


_EPS = np.finfo(float).eps
# sweeps after which an Aberth root that has not met its stopping test is a failure
_MAX_SWEEPS = 200


def _aberth(z, newton, mirrored: bool) -> np.ndarray:
    """Simultaneous Aberth iteration for all roots of f from the starts z.

    newton(z) returns (f/f', |f|, rounding bound of f) at the points z.  A root
    stops, after taking that sweep's correction, once |f| is within its
    rounding bound, and stays in the coupling.
    With `mirrored` the roots of f are the iterates together with their
    reflections 1/conj(z): those enter the coupling without being iterated,
    and an iterate that leaves the disc is replaced by its reflection.
    """
    z = np.array(z, dtype=complex)
    live = np.arange(z.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_SWEEPS):
            zl = z[live]
            step, size, noise = newton(zl)
            done = (size <= noise) & np.isfinite(noise)
            diff = zl[:, None] - z
            diff[np.arange(live.size), live] = np.inf
            pull = np.sum(1.0 / diff, axis=1)
            if mirrored:
                w = np.conj(z)
                pull = pull + np.sum(w / (w * zl[:, None] - 1.0), axis=1)
            corr = step / (1.0 - step * pull)
            # a root that stops takes its last correction too; a non-finite
            # correction (an iterate on a pole of f) is not taken, so such a
            # root ends at the sweep cap
            z[live] = np.where(np.isfinite(corr), zl - corr, zl)
            if mirrored:
                out = np.abs(z) > 1.0
                z[out] = 1.0 / np.conj(z[out])
            live = live[~done]
            if live.size == 0:
                return z
    raise NonConvergenceError(
        f"{live.size} of {z.size} roots unresolved after {_MAX_SWEEPS} Aberth sweeps"
    )


def _secular(z, u, m):
    """(S, S', rounding bound of S, (T, P, R)) at the points z.

    S = B'/B = sum_k T_k over the distinct zeros u_k of multiplicity m_k, with
    T_k = m_k (1-|u_k|^2) / ((1-conj(u_k) z)(z-u_k)) and
    d/dz log T_k = P_k - R_k, P_k = conj(u_k)/(1-conj(u_k) z), R_k = 1/(z-u_k);
    T, P and R are (points x zeros) arrays.  The bound is 4 eps times the
    size of the summands plus the rounding of z itself, |z| sum_k |T_k'|.
    """
    # in place where possible: at order 128 each (points x zeros) array is
    # a quarter megabyte
    q = np.subtract(1.0, np.conj(u) * z[:, None])
    d = np.subtract(z[:, None], u)
    t = np.divide(m * (1.0 - np.abs(u) ** 2), q * d)
    p = np.divide(np.conj(u), q, out=q)
    r = np.divide(1.0, d, out=d)
    dt = p - r
    dt *= t
    noise = 4.0 * _EPS * (np.abs(t).sum(axis=1) + np.abs(z) * np.abs(dt).sum(axis=1))
    return t.sum(axis=1), dt.sum(axis=1), noise, (t, p, r)


def _critical_newton(z, u, m):
    """(N/N', |S|, rounding bound of S) at the points z.

    N = S prod_k (1 - conj(u_k) z)(z - u_k) is the polynomial whose roots are
    the critical points that S accounts for, so N'/N = S'/S - sum_k d log T_k.
    """
    s, ds, noise, (_, p, r) = _secular(z, u, m)
    return s / (ds - s * (p - r).sum(axis=1)), np.abs(s), noise


def _next_to(points: np.ndarray) -> np.ndarray:
    """Starts 1e-3 off the given points, at distinct angles, so that
    coincident or nearly coincident points give distinct starts."""
    return points + 1e-3 * np.exp(2j * np.pi * np.arange(len(points)) / len(points))


def _critical_starts(u: np.ndarray) -> np.ndarray:
    """Starts for the g - 1 interior critical points: next to the distinct
    zeros, all but the one nearest the origin."""
    return _next_to(u[sorted(range(len(u)), key=lambda k: abs(u[k]))[1:]])


def _fiber_starts(a: np.ndarray, c: complex) -> np.ndarray:
    """Starts for the fiber of c.

    The fiber point that leaves the zero a_k as the target grows from 0 to c
    stays near it while |a_k| exceeds the radius r at which the circle mean
    of log|B|, sum_k log max(r, |a_k|) (Jensen), reaches log|c|; the others
    start evenly spread on that circle.
    """
    a = a[sorted(range(len(a)), key=lambda k: abs(a[k]))]
    mods = np.abs(a)
    logs = np.log(np.where(mods > 0.0, mods, 1e-300))
    above = np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])
    # the circle mean at r = |a_j| (sorted) is j log|a_j| + sum_{i >= j} log|a_i|
    k = int(np.sum(np.arange(len(a)) * logs + above[:-1] < np.log(abs(c))))
    out = _next_to(a)
    if k:
        r = np.exp((np.log(abs(c)) - above[k]) / k)
        out[:k] = r * np.exp(1j * (2.0 * np.pi * np.arange(k) / k + 0.4))
    return out


def _rounding_groups(z, noise, d1) -> list:
    """Index lists of the converged roots z of f that rounding cannot tell
    apart, and singletons for the others; noise and d1 = f' are given at z.

    A root z_i is uncertain by about noise_i/|f'(z_i)|, the first-order
    radius within which |f| stays below its rounding bound.  Near an m-fold
    root q, f ~ c (z - q)^m, the parts that rounding splits it into stop
    where |f| meets that bound, so each lies within m noise/|f'| of q and its
    neighbours on that ring within 2 pi noise/|f'|.  Roots closer than 8
    times the sum of their radii are grouped: two simple roots that close
    have |f| <= 4 noise at their midpoint, as near a double root.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = noise / np.abs(d1)
    radius = np.where(np.isfinite(radius), radius, 0.0)
    links = np.abs(z[:, None] - z) <= 8.0 * (radius[:, None] + radius)
    label = list(range(len(z)))
    for i, j in zip(*np.nonzero(np.triu(links, 1))):
        if label[i] != label[j]:
            old = label[j]
            label = [label[i] if x == old else x for x in label]
    groups: dict = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    return list(groups.values())


def _merge_critical(z, u, m) -> list:
    """(point, multiplicity) for the converged interior iterates z.

    The iterates of one group (`_rounding_groups`) are one multiple point at
    their centroid, which rounding perturbs far less than the members.  A
    point whose error bound (noise/|S'| for a simple one, the spread of a
    group) reaches the origin is reported as exactly 0, and all such points
    as one.
    """
    _, ds, noise, _ = _secular(z, u, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = noise / np.abs(ds)
    out: dict = {}
    for idx in _rounding_groups(z, noise, ds):
        if len(idx) == 1:
            loc, bound = complex(z[idx[0]]), err[idx[0]]
        else:
            loc = complex(np.mean(z[idx]))
            bound = max(abs(z[i] - loc) for i in idx)
        loc = 0j if abs(loc) <= bound else loc
        out[loc] = out.get(loc, 0) + len(idx)
    return list(out.items())


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
        return uncoerce(self._value_and_derivative(zz)[1], scalar)

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

    def _secular_zeros(self):
        """The distinct zeros and their multiplicities, as `_secular` takes them."""
        groups = self._distinct_zeros()
        return np.array([g[0] for g in groups]), np.array([float(g[1]) for g in groups])

    def critical_points(self) -> CriticalSet:
        """All zeros of B', split into interior and exterior points.

        Repeated zeros of B contribute critical points symbolically: a zero
        of multiplicity m is a critical point of multiplicity m - 1 (and so
        is its reflection).  The remaining ones are the zeros of the secular
        sum S(z) = B'/B = sum_k m_k (1-|u_k|^2) / ((1-conj(u_k) z)(z-u_k)) over
        the g distinct zeros u_k: g - 1 inside the disc, found by Aberth
        iteration started next to the zeros, and their reflections outside,
        which enter the coupling without being iterated.  Iterates that
        rounding cannot tell apart from a multiple root are merged, and a
        point whose error bound reaches the origin is exactly 0.
        """
        u, m = self._secular_zeros()
        interior: list = [(complex(x), int(k) - 1) for x, k in zip(u, m) if k >= 2]
        if len(u) >= 2:
            found = _aberth(_critical_starts(u), lambda z: _critical_newton(z, u, m), True)
            for loc, mult in _merge_critical(found, u, m):
                if abs(abs(loc) - 1.0) < CIRCLE_BAND:
                    raise CircleStraddleError(
                        f"critical point {loc} straddles the unit circle"
                    )
                interior.append((loc, mult))

        interior.sort(key=lambda cm: (cm[0].real, cm[0].imag))
        exterior = [(1.0 / p.conjugate(), m) for p, m in interior if p != 0]
        exterior.sort(key=lambda cm: (cm[0].real, cm[0].imag))
        count = sum(m for _, m in interior)
        if count != self.order - 1:
            raise NonConvergenceError(
                f"found {count} interior critical points, expected {self.order - 1}"
            )
        return CriticalSet(tuple(interior), tuple(exterior))

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

        Solutions are the roots of Q (B - c), Q(w) = prod_k (1 - conj(z_k) w),
        found by Aberth iteration on B - c with B and B' from the product
        rule; for c = 0 they are the zeros.  Multiplicities are expanded in
        the returned list, sorted by (re, im).
        """
        c = complex(c)
        if abs(c) >= 1.0:
            raise ValueError("fiber value must lie strictly inside the disc")
        if c == 0:
            return sorted(self.zeros, key=lambda w: (w.real, w.imag))
        a = np.array(self.zeros)
        ac = a.conj()

        def newton(w):
            val, der, noise = self._fiber_terms(w, c)
            f = val - c
            qlog = np.sum(ac / (ac * w[:, None] - 1.0), axis=1)
            return f / (der + f * qlog), np.abs(f), noise

        sols = self._merge_fiber(_aberth(_fiber_starts(a, c), newton, False), c)
        for w in sols:
            if abs(w) >= 1.0:
                raise NonConvergenceError(f"fiber point {w} escaped the open disc")
        defect = np.abs(self.eval(np.array(sols)) - c)
        if np.max(defect) > FIBER_EVAL_TOL * (1.0 + abs(c)):
            w = sols[int(np.argmax(defect))]
            raise NonConvergenceError(f"fiber point {w} fails re-evaluation")
        return sorted(sols, key=lambda w: (w.real, w.imag))

    def _fiber_terms(self, w: np.ndarray, c: complex):
        """(B, B', rounding bound of B - c) at the points w."""
        val, der = self._value_and_derivative(w)
        return val, der, 2.0 * _EPS * (self.order * np.abs(val) + abs(c) + np.abs(w) * np.abs(der))

    def _merge_fiber(self, w: np.ndarray, c: complex) -> list:
        """The converged fiber iterates w, with multiple roots merged.

        The iterates of one group (`_rounding_groups`) are one multiple root
        on a critical point p: the centroid, refined by Newton's method on S
        for a double root, where p is a simple critical point.  They move onto
        p only where each lies within the reach sqrt(2 tol (1+|c|)/|B''(p)|)
        by which the re-evaluation tolerance lets a double root split.
        """
        _, der, noise = self._fiber_terms(w, c)
        out = [complex(x) for x in w]
        for idx in _rounding_groups(w, noise, der):
            if len(idx) < 2:
                continue
            u, m = self._secular_zeros()
            loc = complex(np.mean(w[idx]))
            if len(idx) == 2:
                crit = _aberth(np.array([loc]), lambda z: _critical_newton(z, u, m), False)
                (loc, _), = _merge_critical(crit, u, m)
            elif abs(loc) <= max(abs(w[i] - loc) for i in idx):
                loc = 0j
            p = np.array([loc])
            val, der_p = self._value_and_derivative(p)
            s, ds, _, _ = _secular(p, u, m)
            # B'' = B' S + B S'
            with np.errstate(divide="ignore"):
                allowed = np.sqrt(2.0 * FIBER_EVAL_TOL * (1.0 + abs(c)) / abs(der_p[0] * s[0] + val[0] * ds[0]))
            if all(abs(w[i] - loc) <= allowed for i in idx):
                for i in idx:
                    out[i] = loc
        return out

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
