"""Critical points and fibers of a finite Blaschke product by Aberth iteration.

Both root finders run simultaneous Aberth-Ehrlich sweeps on quantities that
cost O(order) per point and never expand a polynomial: critical points are
the zeros of the secular sum S = B'/B over the distinct zeros (only the
interior ones are iterated; their reflections 1/conj(w) enter the coupling),
and the fiber of c is the root set of Q (B - c), Q = prod_k (1 - conj(a_k) w),
with B, B' and Q'/Q from one pass over (points x zeros) blocks of the zeros
and gamma.  Critical points start next to the zeros.  A fiber point starts
next to its zero if that lies outside the Jensen circle of c, and otherwise
on that circle where arg B meets arg c, found from the argument of B
sampled along it.  One iteration solves many root sets side by side, a row
of roots each: the critical points of many products with the same number
of distinct zeros, or the fibers of many targets under one product.  The
coupling between a row's roots, like every (points x zeros) pass, runs in
blocks of at most _BLOCK entries.  A root stops once its residual is within
the rounding bound of its evaluation, and roots that rounding cannot tell
apart are merged into one multiple root, row by row.  A run that gives up
raises NonConvergenceError naming the rows still moving by the labels its
caller passed in.  The module works on plain arrays; `critical_roots` and
`fiber_roots` are its only entry points.
"""

from __future__ import annotations

import numpy as np

from ._util import components
from .errors import NonConvergenceError

_EPS = np.finfo(float).eps
# Elements per block: the points of an evaluation block in `blaschke`, the
# (points x zeros) entries of a block of the fiber pass, of the fiber starts'
# sampling and of a chunk of `critical_sets`, and the (roots x row) entries
# of the Aberth coupling and rounding links.  A block's complex temporaries (128 KB)
# stay in cache and below numpy's 256 KB threshold for reusing temporaries
# in place, which can swap a complex multiply's operands and so its last bit.
_BLOCK = 8192
# sweeps after which an Aberth root that has not met its stopping test is a failure
_MAX_SWEEPS = 200


def critical_roots(u: np.ndarray, m: np.ndarray, names) -> list:
    """(point, multiplicity) for the interior zeros of S = B'/B, one list per
    row of u.

    Each row of the (rows x g) array u holds the g >= 2 distinct zeros of one
    product and the same row of m their multiplicities; the multiplicities
    of a row's points sum to g - 1.  All rows share one Aberth run, and a
    single row runs the arithmetic of a solve of its own.  Iterates that
    rounding cannot tell apart from a multiple root are merged, and a point
    whose error bound reaches the origin is exactly 0.  Raises
    NonConvergenceError when a root is still moving after the sweep cap,
    naming row r as noun labels[r], names = (noun, labels).
    """
    found = _aberth(_critical_starts(u), lambda z, rows: _critical_newton(z, u[rows], m[rows]), True, names)
    return _merge_critical(found, u, m)


def fiber_roots(a: np.ndarray, gamma: complex, c: np.ndarray, distinct, tol: float, names) -> np.ndarray:
    """All len(a) roots of Q (B - c_t) for each nonzero target c_t of the
    1-D array c, multiplicities expanded, unsorted: a (targets x len(a))
    array.

    B = gamma prod_k (a_k - w)/(1 - conj(a_k) w) over the zeros a with
    repeats; distinct = (u, m) holds the distinct zeros and their
    multiplicities as arrays.  All targets share one Aberth run from
    `_fiber_starts`, and each sweep takes B, B' and Q'/Q of all live roots
    from one blocked pass (`_product_terms`).  A group of one target's
    iterates that rounding cannot tell apart moves onto the multiple root
    under it (`_merge_fiber`): a repeated zero for a target next to 0,
    otherwise a critical point, where each iterate lies within the reach by
    which a double root splits at re-evaluation tolerance tol.  Raises
    NonConvergenceError when a root is still moving after the sweep cap,
    naming target t as noun labels[t], names = (noun, labels).
    """
    absc = np.abs(c)
    # per-run constants: the zeros' conjugates and weights, and the floor of
    # the stopping bound's scale, len(a) smallest normals, below which B
    # rounds by a fixed step
    ac, t, floor = np.conj(a), 1.0 - np.abs(a) ** 2, len(a) * np.finfo(float).tiny

    def product(w):
        return _product_terms(w, a, ac, t, gamma)

    def terms(w, abs_c):
        """(B, B', Q'/Q, rounding bound of B - c) at the points w, with |c| = abs_c."""
        val, der, qlog = product(w)
        scale = len(a) * np.abs(val) + abs_c + np.abs(w) * np.abs(der)
        return val, der, qlog, 2.0 * _EPS * np.maximum(scale, floor)

    def newton(w, rows):
        val, der, qlog, noise = terms(w, absc[rows])
        f = val - c[rows]
        return f / (der + f * qlog), np.abs(f), noise

    w = _aberth(_fiber_starts(a, gamma, c), newton, False, names)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, der, _, noise = terms(w, absc[:, None])
    radius = _radius(noise, der)
    labels = _links(w, radius)
    for row in (labels != np.arange(len(a))).any(axis=1).nonzero()[0]:
        one = (names[0], [names[1][row]])
        w[row] = _merge_fiber(w[row], complex(c[row]), labels[row], radius[row], product, distinct, tol, one)
    return w


def _product_terms(w, a, ac, t, gamma):
    """(B, B', Q'/Q) at the points w, arrays of w's shape, for
    B = gamma prod_k b_k, b_k = (a_k - w)/(1 - conj(a_k) w), over the zeros a
    with repeats, and Q = prod_k (1 - conj(a_k) w); ac = conj(a) and
    t = 1 - |a|^2, computed once per run.

    One pass over (points x zeros) blocks of at most _BLOCK elements, with
    two complex divisions per element: with r_k = 1/(1 - conj(a_k) w) and
    e_k = a_k - w, B = gamma prod_k e_k r_k, B' = B S with
    S = B'/B = -sum_k (1-|a_k|^2) r_k/e_k, and Q'/Q = -sum_k conj(a_k) r_k.
    Where B S is not finite (w on a zero, or a factor underflows), B' is the
    product rule at the vanishing factor, b_k' = -(1-|a_k|^2) r_k^2 times
    the other factors, which is exact there.  Those steps divide by zero or
    overflow; the caller silences the warnings (`_aberth` does for its
    sweeps).
    """
    flat = w.reshape(-1)
    val, der, qlog = (np.empty(flat.shape, dtype=complex) for _ in range(3))
    step = max(1, _BLOCK // len(a))
    for i in range(0, flat.size, step):
        val[i:i + step], der[i:i + step], qlog[i:i + step] = _product_block(flat[i:i + step, None], a, ac, t, gamma)
    return val.reshape(w.shape), der.reshape(w.shape), qlog.reshape(w.shape)


def _product_block(x, a, ac, t, gamma):
    """`_product_terms` at the (points x 1) array x, as one block; a call per
    block frees its temporaries before the next block makes its own."""
    # three (points x zeros) temporaries, reused in place
    r = np.multiply(ac, x)
    r = np.divide(1.0, np.subtract(1.0, r, out=r), out=r)
    e = np.subtract(a, x)
    f = np.multiply(e, r)
    val = gamma * np.prod(f, axis=1)
    qlog = -np.multiply(ac, r, out=f).sum(axis=1)
    der = -val * np.divide(np.multiply(t, r, out=r), e, out=e).sum(axis=1)
    bad = ~np.isfinite(der)
    if bad.any():
        # b_k' at the factor nearest 0 times the other factors
        r = 1.0 / (1.0 - ac * x[bad])
        f = (a - x[bad]) * r
        rows, k = np.arange(len(f)), np.abs(f).argmin(axis=1)
        f[rows, k] = -t[k] * r[rows, k] ** 2
        der[bad] = gamma * np.prod(f, axis=1)
    return val, der, qlog


def _aberth(z, newton, mirrored: bool, names) -> np.ndarray:
    """Simultaneous Aberth iteration for the roots of f from the (rows x n)
    starts z.

    Each row is a root set of its own (one product or one fiber target) and
    couples only within itself.  Each sweep calls newton(z, rows) on the
    live roots z of all rows, flattened, which returns (f/f', |f|, rounding
    bound of f).  A root stops, after taking that sweep's correction, once
    |f| is within its rounding bound, and stays in the coupling.  After
    _MAX_SWEEPS sweeps raises NonConvergenceError, naming each row r with a
    root still moving as noun labels[r], names = (noun, labels).  With
    `mirrored` the roots of f are the iterates together with their
    reflections 1/conj(z): those enter the coupling without being iterated,
    and an iterate that leaves the disc is replaced by its reflection.
    """
    z = np.array(z, dtype=complex)
    flat, n = z.reshape(-1), z.shape[1]
    live = np.arange(flat.size)
    # live roots per block of the (roots x row) coupling arrays
    chunk = max(1, _BLOCK // n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_SWEEPS):
            zl = flat[live]
            # each live root's row and column; one row is indexed, not gathered
            rows, cols = (0, live) if len(z) == 1 else np.divmod(live, n)
            step, size, noise = newton(zl, rows)
            done = (size <= noise) & np.isfinite(noise)
            pull = np.empty(live.size, dtype=complex)
            for i in range(0, live.size, chunk):
                zb, cb = zl[i:i + chunk, None], cols[i:i + chunk]
                peers = z[rows] if len(z) == 1 else z[rows[i:i + chunk]]
                diff = zb - peers
                diff[np.arange(len(cb)), cb] = np.inf
                pull[i:i + chunk] = np.sum(1.0 / diff, axis=1)
                if mirrored:
                    w = np.conj(peers)
                    pull[i:i + chunk] += np.sum(w / (w * zb - 1.0), axis=1)
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
    moving = ", ".join(str(names[1][r]) for r in np.unique(live // n))
    raise NonConvergenceError(f"{live.size} of {z.size} roots unresolved after {_MAX_SWEEPS} Aberth sweeps "
                              f"({names[0]} {moving})")


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
    """Starts 1e-3 off the given points (along the last axis), at distinct
    angles, so that coincident or nearly coincident points give distinct
    starts."""
    n = points.shape[-1]
    return points + 1e-3 * np.exp(2j * np.pi * np.arange(n) / n)


def _critical_starts(u: np.ndarray) -> np.ndarray:
    """Starts for the g - 1 interior critical points of each row of u: next
    to the row's distinct zeros, all but the one nearest the origin."""
    keep = [sorted(range(len(row)), key=lambda k: abs(row[k]))[1:] for row in u]
    return _next_to(u[np.arange(len(u))[:, None], keep])


def _fiber_starts(a: np.ndarray, gamma: complex, c: np.ndarray) -> np.ndarray:
    """Starts for the fibers of the nonzero targets c, one row each.

    The fiber point that leaves the zero a_k as the target grows from 0 to c
    stays near it while |a_k| exceeds the radius r at which the circle mean
    of log|B|, sum_k log max(r, |a_k|) (Jensen), reaches log|c|.  The other
    k start on that circle, at the angles `_circle_angles` where arg B meets
    arg c.  Those are distinct, as Aberth needs: their levels lie 2 pi apart,
    and arg B rises by at most 2 pi n + k dtheta over one sample interval of
    dtheta, so interpolated angles differ by at least about dtheta/n.
    """
    a = a[np.argsort(np.abs(a), kind="stable")]
    mods = np.abs(a)
    logs = np.log(np.where(mods > 0.0, mods, 1e-300))
    above = np.concatenate([np.cumsum(logs[::-1])[::-1], [0.0]])
    # the circle mean at r = |a_j| (sorted) is j log|a_j| + sum_{i >= j} log|a_i|
    means = np.arange(len(a)) * logs + above[:-1]
    log_c = np.log(np.abs(c))[:, None]
    # the first k sorted zeros of each target lie inside its circle
    k = (means < log_c).sum(axis=1, keepdims=True)
    j = np.arange(len(a))
    r = np.exp(np.where(k > 0, (log_c - above[k]) / np.maximum(k, 1), 0.0))
    angles = np.zeros((len(c), len(a)))
    on = (k[:, 0] > 0).nonzero()[0]
    if on.size:
        angles[on] = _circle_angles(a, gamma, c[on], k[on], r[on])
    return np.where(j < k, r * np.exp(1j * angles), _next_to(a))


def _circle_angles(a, gamma, c, k, r) -> np.ndarray:
    """(targets x len(a)) angles: in row t, the first k_t are the angles on
    the circle |w| = r_t at which arg B(w) = arg c_t + 2 pi j, j < k_t, where
    the zeros a are sorted by modulus and the first k_t lie inside the
    circle (k, r: (targets x 1) columns).

    arg B is sampled at 2n + 2 angles per circle, n = len(a), one exact
    principal angle per (sample, zero): arg b_k = theta + pi + arg w_k with
    w_k = (1 - a_k/w) conj(1 - conj(a_k) w) for a zero inside, arg a_k +
    arg w_k with w_k = (1 - w/a_k) conj(1 - conj(a_k) w) for one outside.
    Both factors of w_k have positive real part, so its principal angle is
    continuous along the circle and no unwrapping is needed.  The sampled
    argument need not increase off the unit circle; its running maximum is
    inverted by linear interpolation, which puts each start at the first
    sample interval where the argument rises through its level.  The
    sampling runs in blocks of at most _BLOCK (targets x samples x zeros)
    entries.
    """
    n = len(a)
    samples = 2 * n + 2
    theta = 2.0 * np.pi * np.arange(samples + 1) / samples
    inside = np.arange(n) < k
    phase = np.empty((len(c), samples + 1))
    # per row: k theta, pi per zero inside and arg a_k per zero outside
    phase[:, :samples] = k * theta[:samples] + np.where(inside, np.pi, np.angle(a)).sum(axis=1, keepdims=True)
    w = (r * np.exp(1j * theta[:samples])).reshape(-1)
    kw = np.repeat(k[:, 0], samples)
    ac, sums = np.conj(a), np.empty(w.size)
    step = max(1, _BLOCK // n)
    for i in range(0, w.size, step):
        x, ins = w[i:i + step, None], np.arange(n) < kw[i:i + step, None]
        # a_k/w inside, w/a_k outside: both below 1 in modulus, and r > 0
        ratio = np.where(ins, a, x) / np.where(ins, x, a)
        sums[i:i + step] = np.angle((1.0 - ratio) * np.conj(1.0 - ac * x)).sum(axis=1)
    phase[:, :samples] += sums.reshape(len(c), samples)
    phase[:, samples] = phase[:, 0] + 2.0 * np.pi * k[:, 0]
    phase = np.maximum.accumulate(phase, axis=1)
    first = phase[:, :1] + np.mod(np.angle(c / gamma)[:, None] - phase[:, :1], 2.0 * np.pi)
    levels = first + 2.0 * np.pi * np.arange(n)
    return np.array([np.interp(lv, ph, theta) for lv, ph in zip(levels, phase)])


def _radius(noise, d1) -> np.ndarray:
    """noise/|f'| at converged roots of f, with noise the rounding bound of f
    and d1 = f' there; 0 where that is not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = noise / np.abs(d1)
    return np.where(np.isfinite(radius), radius, 0.0)


def _links(z, radius) -> np.ndarray:
    """(rows x n) `components` labels of the converged roots z (rows x n) of
    f that rounding cannot tell apart within a row, given their `_radius`.

    A root z_i is uncertain by about its radius noise_i/|f'(z_i)|, the
    first-order radius within which |f| stays below its rounding bound.
    Near an m-fold root q, f ~ c (z - q)^m, the parts that rounding splits
    it into stop where |f| meets that bound, so each lies within m
    noise/|f'| of q and its neighbours on that ring within 2 pi noise/|f'|.
    Roots closer than 8 times the sum of their radii are linked: two simple
    roots that close have |f| <= 4 noise at their midpoint, as near a double
    root.  Rows are linked in blocks of at most _BLOCK (roots x row) entries.
    """
    labels = np.empty(z.shape, dtype=int)
    step = max(1, _BLOCK // z.shape[1] ** 2)
    for i in range(0, len(z), step):
        zb, rb = z[i:i + step], radius[i:i + step]
        near = np.abs(zb[:, :, None] - zb[:, None, :]) <= 8.0 * (rb[:, :, None] + rb[:, None, :])
        labels[i:i + step] = components(near)
    return labels


def _merge_critical(z, u, m) -> list:
    """(point, multiplicity) for the converged interior iterates z, one list
    per row of the (rows x n) array z; the same rows of u and m hold the
    distinct zeros and multiplicities.

    The iterates of one group (`_links`) are one multiple point at their
    centroid, which rounding perturbs far less than the members.  A
    point whose error bound (noise/|S'| for a simple one, the spread of a
    group) reaches the origin is reported as exactly 0, and all such points
    as one.
    """
    rows, n = z.shape
    # one row is indexed, not repeated, as in _aberth: a single product
    # rounds exactly as a solve of its own
    uu, mm = (u[0], m[0]) if rows == 1 else (np.repeat(u, n, axis=0), np.repeat(m, n, axis=0))
    _, ds, noise, _ = _secular(z.reshape(-1), uu, mm)
    ds, noise = ds.reshape(z.shape), noise.reshape(z.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = noise / np.abs(ds)
    labels = _links(z, _radius(noise, ds))
    found = []
    for r, row in enumerate(labels.tolist()):
        groups: dict = {}
        for i, head in enumerate(row):
            groups.setdefault(head, []).append(i)
        out: dict = {}
        for idx in groups.values():
            if len(idx) == 1:
                loc, bound = complex(z[r, idx[0]]), err[r, idx[0]]
            else:
                loc = complex(np.mean(z[r, idx]))
                bound = max(abs(z[r, i] - loc) for i in idx)
            loc = 0j if abs(loc) <= bound else loc
            out[loc] = out.get(loc, 0) + len(idx)
        found.append(list(out.items()))
    return found


def _merge_fiber(w: np.ndarray, c: complex, labels, radius, product, distinct, tol: float, names) -> np.ndarray:
    """One target's converged fiber iterates w, with multiple roots merged;
    labels and radius hold their `_links` labels and `_radius`, product(w)
    returns (B, B', Q'/Q) at the points w (`_product_terms`), and
    distinct = (u, m) holds the distinct zeros and their multiplicities.

    The iterates of one `_links` group are one multiple root.  A group of k
    iterates, each within 8 k radii of a repeated zero u_j of multiplicity at
    least k (the ring on which rounding splits a k-fold root, as in `_links`),
    is that zero, for a target within rounding of 0; it moves onto u_j.  Any
    other group is a critical point p: its centroid, refined by Newton's
    method on S (distinct zeros u, multiplicities m) for a double root, where
    p is a simple critical point.  It moves onto p only where each iterate
    lies within the reach sqrt(2 tol (1+|c|)/|B''(p)|) by which the
    re-evaluation tolerance lets a double root split.  The Aberth run that
    refines a double root names its row as the target, names = (noun, [label]).
    """
    u, m = distinct
    out = w.copy()
    for head in np.flatnonzero(np.bincount(labels) > 1):
        idx = (labels == head).nonzero()[0]
        k = len(idx)
        loc = complex(np.mean(w[idx]))
        # S has a pole at a repeated zero, so Newton's method on S cannot
        # refine a group there
        j = int(np.argmin(np.where(m >= k, np.abs(u - loc), np.inf)))
        if m[j] >= k and all(abs(w[i] - u[j]) <= 8.0 * k * radius[i] for i in idx):
            out[idx] = u[j]
            continue
        if k == 2:
            crit = _aberth(np.array([[loc]]), lambda z, rows: _critical_newton(z, u, m), False, names)
            (loc, _), = _merge_critical(crit, u[None], m[None])[0]
        elif abs(loc) <= max(abs(w[i] - loc) for i in idx):
            loc = 0j
        s, ds, _, _ = _secular(np.array([loc]), u, m)
        # B'' = B' S + B S'
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val, der_p, _ = product(np.array([loc]))
            allowed = np.sqrt(2.0 * tol * (1.0 + abs(c)) / abs(der_p[0] * s[0] + val[0] * ds[0]))
        if all(abs(w[i] - loc) <= allowed for i in idx):
            out[idx] = loc
    return out
