"""Critical points and fibers of a finite Blaschke product by Aberth iteration.

Both root finders run simultaneous Aberth-Ehrlich sweeps on quantities that
cost O(order) per point and never expand a polynomial: critical points are
the zeros of the secular sum S = B'/B over the distinct zeros (only the
interior ones are iterated; their reflections 1/conj(w) enter the coupling),
and the fiber of c is the root set of Q (B - c), Q = prod_k (1 - conj(a_k) w),
with B, B' and Q'/Q from one pass over (points x zeros) blocks of the zeros
and gamma.  Critical points start next to the zeros, or between two zeros
closer than that offset, where S vanishes between the two poles.  A fiber
point starts next to its zero if that lies outside the Jensen circle of c,
and otherwise on that circle where arg B meets arg c, found from the
argument of B sampled along it.  One iteration solves many root sets side
by side, a row of roots each: the critical points of many products, a row
with fewer distinct zeros than the widest padded with weight-0 copies of
one of its own, each holding an iterate fixed, or the fibers of many
targets under products of one order, one product's zeros shared by all
rows or a row of zeros per target.  The coupling between a row's roots,
like every (points x zeros) pass, runs in blocks (_PASS_BLOCK, _BLOCK),
each gathering its points' rows of zeros; the secular pass and the
mirrored coupling take one complex division per entry, the fiber starts'
sampling none.  Aberth closes on a double root only linearly, so a row's
last pair, if it is still in that phase, moves once to the roots of its
local quadratic factor (`_two_root_step`).  A root stops once its residual
is within the rounding bound of its evaluation, and roots that rounding
cannot tell apart are merged into one multiple root, row by row.  A run
that gives up raises NonConvergenceError naming the rows still moving by
the labels its caller passed in.  The module works on plain arrays;
`critical_roots` and `fiber_roots` are its only entry points.
"""

from __future__ import annotations

import numpy as np

from ._util import components
from .errors import NonConvergenceError

_EPS = np.finfo(float).eps
# Elements per block: the points of an evaluation block in `blaschke`, the
# (points x zeros) entries of a block of the fiber pass, the (zeros x zeros)
# links of a block of `critical_sets`' distinct zeros, and the (roots x row)
# entries of the rounding links.  A
# block's complex arrays (128 KB) stay in cache and below numpy's 256 KB
# threshold for reusing temporaries in place, which can swap a complex
# multiply's operands and so its last bit: evaluation writes x *= y for x * y.
# The fiber pass's three temporaries keep this size: over 12 alternated runs
# of 32 targets on a shared 2-vCPU machine, blocks of 4,096 took 112 against
# 131 ms at order 128 but lost 10 of 12 pairs at order 64 and 9 of 12 at 16.
_BLOCK = 8192
# Entries per block of the passes that hold four or more complex temporaries
# at once: the secular pass, the Aberth coupling and the fiber starts'
# sampling.  Order-128 critical points took 4.3-4.9 ms in blocks of 4,096
# entries (64 KB a temporary), 4.8-6.5 at 8,192, 5.2-5.3 at 2,048, 6.2-6.4 unblocked.
_PASS_BLOCK = 4096
# sweeps after which an Aberth root that has not met its stopping test is a failure
_MAX_SWEEPS = 200


def critical_roots(distinct, names) -> list:
    """(point, multiplicity) for the interior zeros of S = B'/B, one list per
    product.

    distinct holds one pair (u, m) per product: its g >= 2 distinct zeros u
    and their multiplicities m, as arrays; the multiplicities of a
    product's points sum to g - 1.  All products share one Aberth run, a row
    each, padded to the widest row's G zeros: a row of g < G takes G - g
    copies of its first zero at multiplicity 0, whose weight m (1-|u|^2) = 0
    leaves S, S' and their rounding bound as they are, and holds one
    iterate fixed on each copy (`_aberth`).  A copy adds its root u and the
    reflection 1/conj(u) to N = S prod_k q_k d_k (`_critical_newton`), and
    the fixed iterate adds the same two to the mirrored coupling, so the
    two terms cancel and every correction is the unpadded one up to
    rounding.  One product, or products with one g, take no padding, and a
    single product runs the arithmetic of a solve of its own.  Iterates
    that rounding cannot tell apart from a multiple root are merged, and a
    point whose error bound reaches the origin is exactly 0.  Raises
    NonConvergenceError when a root is still moving after the sweep cap,
    naming row r as noun labels[r], names = (noun, labels).
    """
    size = [len(ur) for ur, _ in distinct]
    u, m = np.empty((len(size), max(size)), dtype=complex), np.zeros((len(size), max(size)))
    for row, (ur, mr) in enumerate(distinct):
        u[row, len(ur):] = ur[0]
        u[row, :len(ur)], m[row, :len(ur)] = ur, mr
    # one row is indexed once, not gathered in every sweep
    zeros = [x[0] for x in _secular_zeros(u, m)] if len(u) == 1 else _secular_zeros(u, m)
    # a run of one g holds no iterate
    found = _aberth(_critical_starts(u, m), lambda z, rows: _critical_newton(z, zeros, rows), True, names,
                    None if min(size) == max(size) else np.array(size) - 1)
    return _merge_critical(found, u, m)


def fiber_roots(a: np.ndarray, gamma, c: np.ndarray, distinct, tol: float, names) -> np.ndarray:
    """All n roots of Q (B - c_t) for each nonzero target c_t of the 1-D
    array c, multiplicities expanded, unsorted: a (targets x n) array.

    B = gamma prod_k (a_k - w)/(1 - conj(a_k) w) over the n zeros a with
    repeats; distinct = (u, m) holds the distinct zeros and their
    multiplicities as arrays.  These are one product's (a of shape (n,)), or
    a row per target (a of shape (targets x n), gamma one per target and
    distinct a list of pairs), so that the fibers of many products of one
    order share a run.  All targets share one Aberth run from
    `_fiber_starts`, and each sweep takes B, B' and Q'/Q of all live roots
    from one blocked pass (`_product_terms`).  A group of one target's
    iterates that rounding cannot tell apart moves onto the multiple root
    under it (`_merge_fiber`): a repeated zero for a target next to 0,
    otherwise a critical point, where each iterate lies within the reach by
    which a double root splits at re-evaluation tolerance tol.  Raises
    NonConvergenceError when a root is still moving after the sweep cap,
    naming target t as noun labels[t], names = (noun, labels).
    """
    absc, n = np.abs(c), a.shape[-1]
    # per-run constants: the zeros as `_product_terms` takes them, and the
    # floor of the stopping bound's scale, n smallest normals, below which B
    # rounds by a fixed step
    zeros, floor = (a, np.conj(a), 1.0 - np.abs(a) ** 2, gamma), n * np.finfo(float).tiny

    def terms(w, rows, abs_c):
        """(B, B', Q'/Q, rounding bound of B - c) at the points w of the given rows, with |c| = abs_c."""
        val, der, qlog = _product_terms(w, *zeros, rows)
        scale = n * np.abs(val) + abs_c + np.abs(w) * np.abs(der)
        return val, der, qlog, 2.0 * _EPS * np.maximum(scale, floor)

    def newton(w, rows):
        val, der, qlog, noise = terms(w, rows, absc[rows])
        f = val - c[rows]
        return f / (der + f * qlog), np.abs(f), noise

    w = _aberth(_fiber_starts(a, gamma, c), newton, False, names)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, der, _, noise = terms(w, np.arange(len(w)).repeat(n), absc[:, None])
    radius = _radius(noise, der)
    labels = _links(w, radius)
    for row in (labels != np.arange(n)).any(axis=1).nonzero()[0]:
        own = (zeros, distinct) if a.ndim == 1 else ([x[row] for x in zeros], distinct[row])
        one = (names[0], [names[1][row]])
        w[row] = _merge_fiber(w[row], complex(c[row]), labels[row], radius[row], *own, tol, one)
    return w


def _product_terms(w, a, ac, t, gamma, rows=0):
    """(B, B', Q'/Q) at the points w, arrays of w's shape, for
    B = gamma prod_k b_k, b_k = (a_k - w)/(1 - conj(a_k) w), over the zeros a
    with repeats, and Q = prod_k (1 - conj(a_k) w); ac = conj(a) and
    t = 1 - |a|^2, computed once per run.  a, ac, t and gamma are one
    product's, or a row per target, with rows the target of each point (one
    index for all).

    One pass over (points x zeros) blocks of at most _BLOCK elements, with
    two complex divisions per element: with r_k = 1/(1 - conj(a_k) w) and
    e_k = a_k - w, B = gamma prod_k e_k r_k, B' = B S with
    S = B'/B = -sum_k (1-|a_k|^2) r_k/e_k, and Q'/Q = -sum_k conj(a_k) r_k.
    Where B S is not finite (w on a zero, or a factor underflows), B' is the
    product rule at the vanishing factor, b_k' = -(1-|a_k|^2) r_k^2 times
    the other factors, which is exact there.  Those steps divide by zero or
    overflow; the caller silences the warnings (`_aberth` does for its
    sweeps).  With a row per target, each block gathers its points' rows.
    """
    zeros = a, ac, t, gamma
    if a.ndim == 2 and np.ndim(rows) == 0:
        zeros = [x[rows] for x in zeros]
    flat, step = w.reshape(-1), max(1, _BLOCK // a.shape[-1])
    if flat.size <= step and zeros[0].ndim == 1:
        return tuple(x.reshape(w.shape) for x in _product_block(flat[:, None], *zeros))
    val, der, qlog = (np.empty(flat.shape, dtype=complex) for _ in range(3))
    rows = np.reshape(rows, -1)
    for i in range(0, flat.size, step):
        own = zeros if zeros[0].ndim == 1 else [x[rows[i:i + step]] for x in zeros]
        val[i:i + step], der[i:i + step], qlog[i:i + step] = _product_block(flat[i:i + step, None], *own)
    return val.reshape(w.shape), der.reshape(w.shape), qlog.reshape(w.shape)


def _product_block(x, a, ac, t, gamma):
    """`_product_terms` at the (points x 1) array x, as one block, with one
    product's zeros or a row per point; a call per block frees its
    temporaries before the next block makes its own."""
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
        if a.ndim == 2:
            a, ac, t, gamma = a[bad], ac[bad], t[bad], gamma[bad]
        r = 1.0 / (1.0 - ac * x[bad])
        f = (a - x[bad]) * r
        rows, k = np.arange(len(f)), np.abs(f).argmin(axis=1)
        f[rows, k] = -np.broadcast_to(t, f.shape)[rows, k] * r[rows, k] ** 2
        der[bad] = gamma * np.prod(f, axis=1)
    return val, der, qlog


def _aberth(z, newton, mirrored: bool, names, count=None) -> np.ndarray:
    """Simultaneous Aberth iteration for the roots of f from the (rows x n)
    starts z.

    Each row is a root set of its own (one product or one fiber target) and
    couples only within itself.  Row r iterates its first count[r] roots
    (all n without count); the others are fixed: never live, they enter the
    coupling as they stand.  Each sweep calls newton(z, rows) on the
    live roots z of all rows, flattened, which returns (f/f', |f|, rounding
    bound of f).  A root stops, after taking that sweep's correction, once
    |f| is within its rounding bound, and stays in the coupling.  In the
    sweep in which a row's live roots are first down to one pair, that pair
    is offered `_two_root_step` in place of its Aberth corrections, unless
    the row never iterated more than a pair.  After _MAX_SWEEPS sweeps
    raises NonConvergenceError, naming each row r with a root still moving
    as noun labels[r], names = (noun, labels).  With `mirrored` the roots of
    f are the iterates together with their reflections 1/conj(z): those
    enter the coupling without being iterated, and an iterate that leaves
    the disc is replaced by its reflection.  The coupling (`_pull`) then
    takes one division per (root x row) entry.
    """
    z = np.array(z, dtype=complex)
    flat, n = z.reshape(-1), z.shape[1]
    # waiting: the rows not yet offered the two-root step, leaving out those never above a pair
    if count is None:
        live, waiting = np.arange(flat.size), set(range(len(z)) if n > 2 else ())
    else:
        live, waiting = np.flatnonzero(np.arange(n) < count[:, None]), set(np.flatnonzero(count > 2).tolist())
    counted = total = live.size
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_SWEEPS):
            zl = flat[live]
            # each live root's row and column; one row is indexed, not gathered
            rows, cols = (0, live) if len(z) == 1 else np.divmod(live, n)
            # the first live root of each row newly down to its last pair;
            # a single row's live roots are all there are
            pairs = []
            if waiting and live.size != counted:
                counted = live.size
                if len(z) == 1:
                    pairs = fresh = [0] if live.size == 2 else []
                else:
                    r = live // n
                    fresh = [i for i in np.flatnonzero(np.bincount(r, minlength=len(z)) == 2).tolist() if i in waiting]
                    pairs = np.searchsorted(r, fresh).tolist() if fresh else []
                waiting.difference_update(fresh)
            step, size, noise = newton(zl, rows)
            done = (size <= noise) & np.isfinite(noise)
            pull = _pull(z, zl, rows, cols, mirrored)
            corr = step / (1.0 - step * pull)
            # a root that stops takes its last correction too; a non-finite
            # correction (an iterate on a pole of f) is not taken, so such a
            # root ends at the sweep cap
            new = np.where(np.isfinite(corr), zl - corr, zl)
            if pairs:
                _two_root_step(pairs, zl, step, pull, corr, done, new)
            flat[live] = new
            if mirrored:
                out = np.abs(flat) > 1.0
                flat[out] = 1.0 / np.conj(flat[out])
            live = live[~done]
            if live.size == 0:
                return z
    moving = ", ".join(str(names[1][r]) for r in np.unique(live // n))
    raise NonConvergenceError(f"{live.size} of {total} roots unresolved after {_MAX_SWEEPS} Aberth sweeps "
                              f"({names[0]} {moving})")


def _pull(z, zl, rows, cols, mirrored: bool) -> np.ndarray:
    """Aberth's coupling sum_{j != i} 1/(z_i - p_j) of the live roots zl at
    (rows, cols) of the roots z.  With `mirrored` the reflection's term joins
    each as one fraction, (2wz - 1 - |p|^2)/((z - p)(wz - 1)), w = conj(p),
    numerator (wz - 1) + w (z - p); a root's own column is w/(wz - 1) alone."""
    pull, chunk = np.empty(zl.size, dtype=complex), max(1, _PASS_BLOCK // z.shape[1])
    for i in range(0, zl.size, chunk):
        zb, own = zl[i:i + chunk, None], (np.arange(len(cols[i:i + chunk])), cols[i:i + chunk])
        peers = z[rows] if len(z) == 1 else z[rows[i:i + chunk]]
        diff = zb - peers
        if mirrored:
            w = np.conj(peers)
            diff[own] = 1.0
            den = w * zb - 1.0
            num = w * diff + den
            num[own] = np.conj(zb[:, 0])
            pull[i:i + chunk] = np.sum(np.divide(num, np.multiply(den, diff, out=den), out=num), axis=1)
        else:
            diff[own] = np.inf
            pull[i:i + chunk] = np.sum(1.0 / diff, axis=1)
    return pull


def _two_root_step(pairs, z, step, pull, corr, done, new) -> None:
    """Moves each pair z_i, z_{i+1} (i in the list pairs) that closes on a double
    root linearly, neither root stopping and both Aberth corrections above
    |z_i - z_{i+1}|/16, in `new` to the roots m + (s +- sqrt(s^2 - 4p))/2 of
    its local factor: y = 1/N - F (N = `step`, F the pull less the partner's
    term) is q'/q at x = z - m for q(x) = x^2 - s x + p, m the midpoint, so
    s (1 - y x) + y p = 2 x - y x^2 at both roots.  A pair whose new roots
    are not within |z_i - z_{i+1}| of m keeps its Aberth corrections."""
    # a handful of pairs: the test runs on Python scalars
    zs, cs, ds = z.tolist(), corr.tolist(), done.tolist()
    go = [i for i in pairs if not (ds[i] or ds[i + 1])
          and min(abs(cs[i]), abs(cs[i + 1])) > abs(zs[i] - zs[i + 1]) / 16.0]
    if not go:
        return
    ij = np.array([go, [i + 1 for i in go]])
    zz = z[ij]
    d, mid = np.abs(zz[0] - zz[1]), 0.5 * (zz[0] + zz[1])
    x = zz - mid
    # the partner's term as the pull took it, which it nearly cancels
    y = 1.0 / step[ij] - pull[ij] + 1.0 / (zz - zz[::-1])
    a, b = 1.0 - y * x, 2.0 * x - y * x * x
    det = a[0] * y[1] - a[1] * y[0]
    s, p = (b[0] * y[1] - b[1] * y[0]) / det, (a[0] * b[1] - a[1] * b[0]) / det
    root = np.sqrt(s * s - 4.0 * p)
    root = np.where(np.abs(s + root - 2.0 * x[0]) <= np.abs(s - root - 2.0 * x[0]), root, -root)
    moved = mid + 0.5 * (s + np.stack([root, -root]))
    ok = (np.abs(moved - mid) <= d).all(axis=0)  # False where not finite
    new[ij[:, ok]] = moved[:, ok]


def _secular_zeros(u, m) -> tuple:
    """(u, conj(u), m (1-|u|^2)), the distinct zeros u of multiplicities m
    as `_secular` takes them, computed once per run."""
    return u, np.conj(u), m * (1.0 - np.abs(u) ** 2)


def _secular(z, zeros, rows=0):
    """(S, S', rounding bound of S, sum_k (P_k - R_k)) at the points z, with
    zeros from `_secular_zeros`: one product's, or a row per product with
    rows the product of each point (one index for all).

    S = B'/B = sum_k T_k over the distinct zeros u_k of multiplicity m_k,
    T_k = m_k (1-|u_k|^2) inv_k, inv_k = 1/(q_k d_k), q_k = 1 - conj(u_k) z,
    d_k = z - u_k: one reciprocal per entry.  d/dz log T_k = P_k - R_k =
    conj(u_k)/q_k - 1/d_k = (conj(u_k) d_k - q_k) inv_k, whose numerator is
    at least (1-|u_k|)^2 in modulus.  The bound, 4 eps (sum_k |T_k| + |z|
    sum_k |T_k'|), covers a few u of rounding per summand and that of z; the
    error against a 40-digit S stayed within 0.27 of it (README).  Blocks of
    _PASS_BLOCK entries, each gathering its points' rows of zeros, change
    no bit: rows are independent.
    """
    if zeros[0].ndim == 2 and not isinstance(rows, np.ndarray):
        zeros = [x[rows] for x in zeros]
    step = max(1, _PASS_BLOCK // zeros[0].shape[-1])
    if z.size <= step:
        return _secular_block(z, *(zeros if zeros[0].ndim == 1 else [x[rows] for x in zeros]))
    parts = [_secular_block(z[i:i + step], *(zeros if zeros[0].ndim == 1 else [x[rows[i:i + step]] for x in zeros]))
             for i in range(0, z.size, step)]
    return tuple(np.concatenate(x) for x in zip(*parts))


def _secular_block(z, u, uc, weight):
    """`_secular` at the points z as one block, with the zeros of each
    point's row, or one product's."""
    # four (points x zeros) arrays, reused in place
    q = np.subtract(1.0, uc * z[:, None])
    d = np.subtract(z[:, None], u)
    inv = np.divide(1.0, q * d)
    t = np.multiply(weight, inv)
    dt = np.multiply(uc, d, out=d)
    dt -= q
    dt *= inv
    logs = dt.sum(axis=1)
    dt *= t
    noise = 4.0 * _EPS * (np.abs(t).sum(axis=1) + np.abs(z) * np.abs(dt).sum(axis=1))
    return t.sum(axis=1), dt.sum(axis=1), noise, logs


def _critical_newton(z, zeros, rows=0):
    """(N/N', |S|, rounding bound of S) at the points z, with zeros and rows
    as `_secular` takes them.

    N = S prod_k (1 - conj(u_k) z)(z - u_k) is the polynomial whose roots are
    the critical points that S accounts for, so N'/N = S'/S - sum_k d log T_k.
    """
    s, ds, noise, logs = _secular(z, zeros, rows)
    return s / (ds - s * logs), np.abs(s), noise


def _next_to(points: np.ndarray, n) -> np.ndarray:
    """Starts 1e-3 off the given points, the k-th along the last axis at the
    angle 2 pi k/n (n broadcast against the other axes), so that coincident
    or nearly coincident points give distinct starts."""
    return points + 1e-3 * np.exp(2j * np.pi * np.arange(points.shape[-1]) / n)


def _critical_starts(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Starts for the g - 1 interior critical points of each row of u, with
    multiplicities m: next to the row's distinct zeros, in order of modulus
    and all but the first.  A zero u_k within the 1e-3 offset of an earlier
    one starts at the nearest such u_j's weighted point
    (m_j u_k + m_k u_j)/(m_j + m_k), where S vanishes between close poles.
    A row's columns of multiplicity 0 (its padding, `critical_roots`) come
    last and start on their own zero, where `_aberth` holds them."""
    # padding is nan here: it sorts after every zero in modulus and is near none
    real = m > 0
    points = np.where(real, u, np.nan)
    mods = np.abs(points)
    pick = np.arange(len(u))[:, None], np.argsort(mods, axis=1, kind="stable")
    u, m, points, mods = u[pick], m[pick], points[pick], mods[pick]
    starts = _next_to(points[:, 1:], real.sum(axis=1, keepdims=True) - 1)
    gap = np.full(starts.shape, 1e-3)
    # a zero within 1e-3 of an earlier one lies within 1e-3 in modulus of it
    # and of each zero between them in this order
    for off in range(1, u.shape[1]):
        if not (mods[:, off:] - mods[:, :-off] < 1e-3).any():
            break
        dist = np.abs(points[:, off:] - points[:, :-off])
        near = dist < gap[:, off - 1:]
        uk, mk, uj, mj = u[:, off:][near], m[:, off:][near], u[:, :-off][near], m[:, :-off][near]
        gap[:, off - 1:][near] = dist[near]
        starts[:, off - 1:][near] = (mj * uk + mk * uj) / (mj + mk)
    return np.where(m[:, 1:] > 0, starts, u[:, 1:])


def _fiber_starts(a: np.ndarray, gamma, c: np.ndarray) -> np.ndarray:
    """Starts for the fibers of the nonzero targets c, one row each, under
    one product's zeros a and gamma or a row of them per target
    (`fiber_roots`).

    The fiber point that leaves the zero a_k as the target grows from 0 to c
    stays near it while |a_k| exceeds the radius r at which the circle mean
    of log|B|, sum_k log max(r, |a_k|) (Jensen), reaches log|c|.  The other
    k start on that circle, at the angles `_circle_angles` where arg B meets
    arg c.  Those are distinct, as Aberth needs: their levels lie 2 pi apart,
    and arg B rises by at most 2 pi n + k dtheta over one sample interval of
    dtheta, so interpolated angles differ by at least about dtheta/n.
    """
    n, rows = a.shape[-1], np.arange(len(c))[:, None]
    order = np.argsort(np.abs(a), axis=-1, kind="stable")
    a = a[order] if a.ndim == 1 else a[rows, order]
    mods = np.abs(a)
    logs = np.log(np.where(mods > 0.0, mods, 1e-300))
    # above[..., j] = sum_{i >= j} log|a_i| (sorted), 0 at j = n
    above = np.zeros(a.shape[:-1] + (n + 1,))
    above[..., :n] = np.cumsum(logs[..., ::-1], axis=-1)[..., ::-1]
    # the circle mean at r = |a_j| (sorted) is j log|a_j| + sum_{i >= j} log|a_i|
    means = np.arange(n) * logs + above[..., :n]
    log_c = np.log(np.abs(c))[:, None]
    # the first k sorted zeros of each target lie inside its circle
    k = (means < log_c).sum(axis=1, keepdims=True)
    j = np.arange(n)
    r = np.exp(np.where(k > 0, (log_c - (above[k] if a.ndim == 1 else above[rows, k])) / np.maximum(k, 1), 0.0))
    angles = np.zeros((len(c), n))
    on = (k[:, 0] > 0).nonzero()[0]
    if on.size:
        own = (a, gamma) if a.ndim == 1 else (a[on], gamma[on])
        angles[on] = _circle_angles(*own, c[on], k[on], r[on])
    return np.where(j < k, r * np.exp(1j * angles), _next_to(a, n))


def _circle_angles(a, gamma, c, k, r) -> np.ndarray:
    """(targets x n) angles: in row t, the first k_t are the angles on the
    circle |w| = r_t at which arg B(w) = arg c_t + 2 pi j, j < k_t, where
    the n zeros a (one product's, or a row per target, as gamma) are sorted
    by modulus and the first k_t lie inside the circle (k, r: (targets x 1)
    columns).

    arg B is sampled at 2n + 2 angles per circle, one exact principal angle
    per (sample, zero): arg b_k = theta + pi + arg w_k with
    w_k = (1 - a_k/w) conj(1 - conj(a_k) w) for a zero inside, arg a_k +
    arg w_k with w_k = (1 - w/a_k) conj(1 - conj(a_k) w) for one outside.
    Both factors of w_k have positive real part, so its principal angle is
    continuous along the circle and no unwrapping is needed.  The sampled
    argument need not increase off the unit circle; its running maximum is
    inverted by linear interpolation (`_interp_rows`), which puts each start
    at the first sample interval where the argument rises through its level.
    As 1 - a_k/w = (w - a_k) conj(w)/r^2 and 1 - w/a_k = (a_k - w) conj(a_k)/|a_k|^2,
    w_k has the angle of (w - a_k) conj(1 - conj(a_k) w) times conj(w)/r or
    -conj(a_k)/|a_k|: no division per entry, in _PASS_BLOCK-entry blocks.
    """
    n = a.shape[-1]
    samples = 2 * n + 2
    theta = 2.0 * np.pi * np.arange(samples + 1) / samples
    inside, angles = np.arange(n) < k, np.angle(a)
    phase = np.empty((len(c), samples + 1))
    # per row: k theta, pi per zero inside and arg a_k per zero outside
    phase[:, :samples] = k * theta[:samples] + np.where(inside, np.pi, angles).sum(axis=1, keepdims=True)
    e = np.exp(1j * theta[:samples])
    w, kw = (r * e).reshape(-1), np.repeat(k[:, 0], samples)
    # the unit factors: conj(w)/r per sample, -conj(a_k)/|a_k| per zero
    inner, outer = np.tile(np.conj(e), len(c)), np.exp(1j * (np.pi - angles))
    wc, sums, ab, ob = np.conj(w), np.empty(w.size), a, outer
    step = max(1, _PASS_BLOCK // n)
    for i in range(0, w.size, step):
        if a.ndim == 2:
            # each sample takes its target's row of zeros
            row = np.arange(i, min(i + step, w.size)) // samples
            ab, ob = a[row], outer[row]
        v = np.subtract(w[i:i + step, None], ab)
        v *= np.where(np.arange(n) < kw[i:i + step, None], inner[i:i + step, None], ob)
        v *= np.subtract(1.0, ab * wc[i:i + step, None])
        sums[i:i + step] = np.angle(v).sum(axis=1)
    phase[:, :samples] += sums.reshape(len(c), samples)
    phase[:, samples] = phase[:, 0] + 2.0 * np.pi * k[:, 0]
    phase = np.maximum.accumulate(phase, axis=1)
    first = phase[:, :1] + np.mod(np.angle(c / gamma)[:, None] - phase[:, :1], 2.0 * np.pi)
    return _interp_rows(first + 2.0 * np.pi * np.arange(n), phase, theta)


def _interp_rows(x, xp, fp) -> np.ndarray:
    """np.interp(x[t], xp[t], fp) for each row t of x and xp, bit for bit, in
    one pass: fp[j] at or beyond the ends and where xp[j] = x, else
    slope (x - xp[j]) + fp[j], slope = (fp[j+1] - fp[j])/(xp[j+1] - xp[j]),
    with j the last sample at or below x (xp's rows non-decreasing, all
    values finite).  One search finds every j: complex numbers order by
    (real, imag), so the keys t + i xp[t] of all rows, flattened, are sorted.
    A single row, as a fiber of one target has, is np.interp's own call:
    4 us against 25 at order 4 on a shared 2-vCPU machine."""
    if len(x) == 1:
        return np.interp(x[0], xp[0], fp)[None]
    rows = np.arange(len(x))[:, None]
    keys, at = np.empty(xp.shape, dtype=complex), np.empty(x.shape, dtype=complex)
    keys.real, keys.imag, at.real, at.imag = rows, xp, rows, x
    j = np.searchsorted(keys.reshape(-1), at.reshape(-1), side="right").reshape(x.shape) - rows * xp.shape[1] - 1
    lo = np.minimum(np.maximum(j, 0), xp.shape[1] - 2)
    hi, inside = lo + 1, lo == j
    x0, y0, y1 = xp[rows, lo], fp[lo], fp[hi]
    # beyond an end the interval is clipped: y0 = fp[0] below, y1 = fp[-1]
    # above, and the unused slope is kept finite
    inner = (y1 - y0) / np.where(inside, xp[rows, hi] - x0, 1.0) * (x - x0) + y0
    return np.where(inside, np.where(x0 == x, y0, inner), np.where(j < 0, y0, y1))


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
    root.  An entry of z that is nan links only itself.  Rows are linked in
    blocks of at most _BLOCK (roots x row) entries.
    """
    labels, n = np.empty(z.shape, dtype=int), z.shape[1]
    step, own = max(1, _BLOCK // n ** 2), np.arange(n)
    for i in range(0, len(z), step):
        zb, rb = z[i:i + step], radius[i:i + step]
        near = np.abs(zb[:, :, None] - zb[:, None, :]) <= 8.0 * (rb[:, :, None] + rb[:, None, :])
        near[:, own, own] = True
        labels[i:i + step] = components(near)
    return labels


def _merge_critical(z, u, m) -> list:
    """(point, multiplicity) for the converged interior iterates z, one list
    per row of the (rows x n) array z; the same rows of u and m hold the
    distinct zeros and multiplicities, with a row's padding at multiplicity
    0 (`critical_roots`): its own iterates are its first g - 1, g its
    count of nonzero multiplicities; the rest are held on its padding.

    The iterates of one group (`_links`) are one multiple point at their
    centroid, which rounding perturbs far less than the members.  A
    point whose error bound (noise/|S'| for a simple one, the spread of a
    group) reaches the origin is reported as exactly 0, and all such points
    as one.  Rows whose iterates link only to themselves take that rule as
    arrays; the others, one at a time.
    """
    rows, n = z.shape
    # a row's zeros after its first, up to its padding
    own = m[:, 1:n + 1] > 0
    zo = z[own]
    # one row is indexed, not gathered, as in _aberth: a single product
    # rounds exactly as a solve of its own
    _, ds, noise, _ = _secular(zo, _secular_zeros(u, m), 0 if rows == 1 else own.nonzero()[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        err = noise / np.abs(ds)
    # the `_radius` of each own iterate
    radius = np.zeros(z.shape)
    radius[own] = np.where(np.isfinite(err), err, 0.0)
    labels = _links(np.where(own, z, np.nan), radius)
    # the test of a Python complex: abs() is the hypot of its parts
    snapped = np.where(np.hypot(zo.real, zo.imag) <= err, 0j, zo).tolist()
    zo, err, end = zo.tolist(), err.tolist(), 0
    found = []
    for r, (grouped, size) in enumerate(zip((labels != np.arange(n)).any(axis=1).tolist(), own.sum(axis=1).tolist())):
        start, end = end, end + size
        if not grouped:
            points = snapped[start:end]
            zero = points.count(0j)
            found.append([(p, 1) for p in points if p != 0j] + ([(0j, zero)] if zero else []))
            continue
        groups: dict = {}
        for i, head in enumerate(labels[r, :size].tolist()):
            groups.setdefault(head, []).append(i)
        zr, er, out = zo[start:end], err[start:end], {}
        for idx in groups.values():
            if len(idx) == 1:
                loc, bound = zr[idx[0]], er[idx[0]]
            else:
                loc = complex(np.mean(z[r, idx]))
                bound = max(abs(zr[i] - loc) for i in idx)
            loc = 0j if abs(loc) <= bound else loc
            out[loc] = out.get(loc, 0) + len(idx)
        found.append(list(out.items()))
    return found


def _merge_fiber(w: np.ndarray, c: complex, labels, radius, zeros, distinct, tol: float, names) -> np.ndarray:
    """One target's converged fiber iterates w, with multiple roots merged;
    labels and radius hold their `_links` labels and `_radius`, zeros are
    its product's as `_product_terms` takes them, and distinct = (u, m)
    holds the distinct zeros and their multiplicities.

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
    secular, out = _secular_zeros(u, m), w.copy()
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
            crit = _aberth(np.array([[loc]]), lambda z, rows: _critical_newton(z, secular), False, names)
            (loc, _), = _merge_critical(crit, u[None], m[None])[0]
        elif abs(loc) <= max(abs(w[i] - loc) for i in idx):
            loc = 0j
        s, ds, _, _ = _secular(np.array([loc]), secular)
        # B'' = B' S + B S'
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val, der_p, _ = _product_terms(np.array([loc]), *zeros)
            allowed = np.sqrt(2.0 * tol * (1.0 + abs(c)) / abs(der_p[0] * s[0] + val[0] * ds[0]))
        if all(abs(w[i] - loc) <= allowed for i in idx):
            out[idx] = loc
    return out
