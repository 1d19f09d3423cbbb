"""Critical points and fibers of a finite Blaschke product by Aberth iteration.

Both root finders run simultaneous Aberth-Ehrlich sweeps on quantities that
cost O(order) per point and never expand a polynomial: critical points are
the zeros of the secular sum S = B'/B over the distinct zeros (only the
interior ones are iterated; their reflections 1/conj(w) enter the coupling),
and the fiber of c is the root set of Q (B - c), Q = prod_k (1 - conj(a_k) w),
with B and B' from the caller's product-rule pass; the fibers of many
targets share one iteration, a row of roots per target.  A root stops once
its residual is within the rounding bound of its evaluation, and roots that
rounding cannot tell apart are merged into one multiple root, target by
target.  The module works on plain arrays; `critical_roots` and
`fiber_roots` are its only entry points.
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
    found = _aberth(_critical_starts(u), lambda z, rows: _critical_newton(z, u, m), True)
    return _merge_critical(found, u, m)


def fiber_roots(a: np.ndarray, c: np.ndarray, value_and_derivative, distinct_zeros, tol: float) -> list:
    """For each nonzero target c_t of the 1-D array c, all len(a) roots of
    Q (B - c_t), multiplicities expanded, unsorted: one list per target.

    a holds the zeros of B with repeats, value_and_derivative(w) returns
    (B(w), B'(w)), and distinct_zeros() the distinct zeros and their
    multiplicities; it is called once, and only when some iterates merge.
    All targets share one Aberth run.  A group of one target's iterates that
    rounding cannot tell apart moves onto the multiple root under it only
    where each lies within the reach by which a double root splits at
    re-evaluation tolerance tol.  Raises NonConvergenceError when a root is
    still moving after the sweep cap.
    """
    ac = a.conj()
    # Python's abs: the array np.abs can differ in the last bit
    absc = np.array([abs(complex(x)) for x in c])

    def terms(w, abs_c):
        """(B, B', rounding bound of B - c) at the points w, with |c| = abs_c."""
        val, der = value_and_derivative(w)
        return val, der, 2.0 * _EPS * (len(a) * np.abs(val) + abs_c + np.abs(w) * np.abs(der))

    def newton(w, rows):
        val, der, noise = terms(w, absc[rows])
        f = val - c[rows]
        qlog = np.sum(ac / (ac * w[:, None] - 1.0), axis=1)
        return f / (der + f * qlog), np.abs(f), noise

    w = _aberth(_fiber_starts(a, c), newton, False)
    _, der, noise = terms(w, absc[:, None])
    links = _links(w, noise, der)
    out = w.tolist()
    # every root links to itself; a target with more links has a group
    merge = (links.sum(axis=(1, 2)) > len(a)).nonzero()[0]
    if merge.size:
        u, m = distinct_zeros()
    for t in merge:
        out[t] = _merge_fiber(w[t], complex(c[t]), links[t], value_and_derivative, u, m, tol)
    return out


def _aberth(z, newton, mirrored: bool) -> np.ndarray:
    """Simultaneous Aberth iteration for the roots of f from the starts z.

    z is one row of starts or a (rows x n) array; each row is a root set of
    its own (one fiber target) and couples only within itself.  Each sweep
    calls newton(z, rows) on the live roots z of all rows, flattened, which
    returns (f/f', |f|, rounding bound of f).  A root stops, after taking
    that sweep's correction, once |f| is within its rounding bound, and stays
    in the coupling.
    With `mirrored` the roots of f are the iterates together with their
    reflections 1/conj(z): those enter the coupling without being iterated,
    and an iterate that leaves the disc is replaced by its reflection.
    """
    z = np.array(z, dtype=complex)
    grid = z.reshape(-1, z.shape[-1])
    flat, n = grid.reshape(-1), grid.shape[1]
    live = np.arange(flat.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_SWEEPS):
            zl = flat[live]
            # each live root's row and column; one row is indexed, not gathered
            rows, cols = (0, live) if len(grid) == 1 else np.divmod(live, n)
            step, size, noise = newton(zl, rows)
            done = (size <= noise) & np.isfinite(noise)
            peers = grid[rows]
            diff = zl[:, None] - peers
            diff[np.arange(live.size), cols] = np.inf
            pull = np.sum(1.0 / diff, axis=1)
            if mirrored:
                w = np.conj(peers)
                pull = pull + np.sum(w / (w * zl[:, None] - 1.0), axis=1)
            corr = step / (1.0 - step * pull)
            # a root that stops takes its last correction too; a non-finite
            # correction (an iterate on a pole of f) is not taken, so such a
            # root ends at the sweep cap
            flat[live] = np.where(np.isfinite(corr), zl - corr, zl)
            if mirrored:
                out = np.abs(flat) > 1.0
                flat[out] = 1.0 / np.conj(flat[out])
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


def _fiber_starts(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Starts for the fibers of the targets c, one row each.

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
    means = np.arange(len(a)) * logs + above[:-1]
    out = np.tile(_next_to(a), (len(c), 1))
    for row, target in zip(out, c):
        # scalar log: the array one can differ in the last bit
        log_c = np.log(abs(complex(target)))
        k = int(np.sum(means < log_c))
        if k:
            r = np.exp((log_c - above[k]) / k)
            row[:k] = r * np.exp(1j * (2.0 * np.pi * np.arange(k) / k + 0.4))
    return out


def _links(z, noise, d1) -> np.ndarray:
    """(..., n, n) flags: which converged roots z (..., n) of f rounding
    cannot tell apart within each row; noise and d1 = f' are given at z.

    A root z_i is uncertain by about noise_i/|f'(z_i)|, the first-order
    radius within which |f| stays below its rounding bound.  Near an m-fold
    root q, f ~ c (z - q)^m, the parts that rounding splits it into stop
    where |f| meets that bound, so each lies within m noise/|f'| of q and its
    neighbours on that ring within 2 pi noise/|f'|.  Roots closer than 8
    times the sum of their radii are linked: two simple roots that close
    have |f| <= 4 noise at their midpoint, as near a double root.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = noise / np.abs(d1)
    radius = np.where(np.isfinite(radius), radius, 0.0)
    return np.abs(z[..., :, None] - z[..., None, :]) <= 8.0 * (radius[..., :, None] + radius[..., None, :])


def _rounding_groups(links) -> list:
    """Index lists of the groups that the (n x n) `_links` flags join."""
    label = list(range(len(links)))
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
    for idx in _rounding_groups(_links(z, noise, ds)):
        if len(idx) == 1:
            loc, bound = complex(z[idx[0]]), err[idx[0]]
        else:
            loc = complex(np.mean(z[idx]))
            bound = max(abs(z[i] - loc) for i in idx)
        loc = 0j if abs(loc) <= bound else loc
        out[loc] = out.get(loc, 0) + len(idx)
    return list(out.items())


def _merge_fiber(w: np.ndarray, c: complex, links, value_and_derivative, u, m, tol: float) -> list:
    """One target's converged fiber iterates w, with multiple roots merged.

    The iterates of one group (`_rounding_groups` of their `_links`) are one
    multiple root on a critical point p: the centroid, refined by Newton's
    method on S (distinct zeros u, multiplicities m) for a double root, where
    p is a simple critical point.  They move onto p only where each lies
    within the reach sqrt(2 tol (1+|c|)/|B''(p)|) by which the re-evaluation
    tolerance lets a double root split.
    """
    out = w.tolist()
    for idx in _rounding_groups(links):
        if len(idx) < 2:
            continue
        loc = complex(np.mean(w[idx]))
        if len(idx) == 2:
            crit = _aberth(np.array([loc]), lambda z, rows: _critical_newton(z, u, m), False)
            (loc, _), = _merge_critical(crit, u, m)
        elif abs(loc) <= max(abs(w[i] - loc) for i in idx):
            loc = 0j
        p = np.array([loc])
        val, der_p = value_and_derivative(p)
        s, ds, _, _ = _secular(p, u, m)
        # B'' = B' S + B S'
        with np.errstate(divide="ignore"):
            allowed = np.sqrt(2.0 * tol * (1.0 + abs(c)) / abs(der_p[0] * s[0] + val[0] * ds[0]))
        if all(abs(w[i] - loc) <= allowed for i in idx):
            for i in idx:
                out[i] = loc
    return out
