"""Critical points and fibers of a finite Blaschke product by Aberth iteration.

Both root finders run simultaneous Aberth-Ehrlich sweeps on quantities that
cost O(order) per point and never expand a polynomial: critical points are
the zeros of the secular sum S = B'/B over the distinct zeros (only the
interior ones are iterated; their reflections 1/conj(w) enter the coupling),
and the fiber of c is the root set of Q (B - c), Q = prod_k (1 - conj(a_k) w),
with B and B' from the caller's product-rule pass.  A root stops once its
residual is within the rounding bound of its evaluation, and roots that
rounding cannot tell apart are merged into one multiple root.  The module
works on plain arrays; `critical_roots` and `fiber_roots` are its only entry
points.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergenceError

_EPS = np.finfo(float).eps
# sweeps after which an Aberth root that has not met its stopping test is a failure
_MAX_SWEEPS = 200


def critical_roots(u: np.ndarray, m: np.ndarray) -> list:
    """(point, multiplicity) for the interior zeros of S = B'/B.

    u holds the g >= 2 distinct zeros of B and m their multiplicities; the
    multiplicities of the returned points sum to g - 1.  Iterates that
    rounding cannot tell apart from a multiple root are merged, and a point
    whose error bound reaches the origin is exactly 0.  Raises
    NonConvergenceError when a root is still moving after the sweep cap.
    """
    found = _aberth(_critical_starts(u), lambda z: _critical_newton(z, u, m), True)
    return _merge_critical(found, u, m)


def fiber_roots(a: np.ndarray, c: complex, value_and_derivative, distinct_zeros, tol: float) -> list:
    """All len(a) roots of Q (B - c), multiplicities expanded, unsorted.

    a holds the zeros of B with repeats, value_and_derivative(w) returns
    (B(w), B'(w)), and distinct_zeros() the distinct zeros and their
    multiplicities; it is called once, and only when some iterates merge.  A
    group of iterates that rounding cannot tell apart moves onto the multiple
    root under it only where each lies within the reach by which a double
    root splits at re-evaluation tolerance tol.  Raises NonConvergenceError
    when a root is still moving after the sweep cap.
    """
    ac = a.conj()

    def terms(w):
        """(B, B', rounding bound of B - c) at the points w."""
        val, der = value_and_derivative(w)
        return val, der, 2.0 * _EPS * (len(a) * np.abs(val) + abs(c) + np.abs(w) * np.abs(der))

    def newton(w):
        val, der, noise = terms(w)
        f = val - c
        qlog = np.sum(ac / (ac * w[:, None] - 1.0), axis=1)
        return f / (der + f * qlog), np.abs(f), noise

    return _merge_fiber(_aberth(_fiber_starts(a, c), newton, False), c, terms, distinct_zeros, tol)


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


def _merge_fiber(w: np.ndarray, c: complex, terms, distinct_zeros, tol: float) -> list:
    """The converged fiber iterates w, with multiple roots merged.

    The iterates of one group (`_rounding_groups`) are one multiple root
    on a critical point p: the centroid, refined by Newton's method on S
    for a double root, where p is a simple critical point.  They move onto
    p only where each lies within the reach sqrt(2 tol (1+|c|)/|B''(p)|)
    by which the re-evaluation tolerance lets a double root split.
    """
    _, der, noise = terms(w)
    out = [complex(x) for x in w]
    groups = [idx for idx in _rounding_groups(w, noise, der) if len(idx) >= 2]
    if groups:
        u, m = distinct_zeros()
    for idx in groups:
        loc = complex(np.mean(w[idx]))
        if len(idx) == 2:
            crit = _aberth(np.array([loc]), lambda z: _critical_newton(z, u, m), False)
            (loc, _), = _merge_critical(crit, u, m)
        elif abs(loc) <= max(abs(w[i] - loc) for i in idx):
            loc = 0j
        p = np.array([loc])
        val, der_p, _ = terms(p)
        s, ds, _, _ = _secular(p, u, m)
        # B'' = B' S + B S'
        with np.errstate(divide="ignore"):
            allowed = np.sqrt(2.0 * tol * (1.0 + abs(c)) / abs(der_p[0] * s[0] + val[0] * ds[0]))
        if all(abs(w[i] - loc) <= allowed for i in idx):
            for i in idx:
                out[i] = loc
    return out
