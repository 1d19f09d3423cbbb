"""Critical points and fibers of a finite Blaschke product by Aberth iteration.

Both root finders run simultaneous Aberth-Ehrlich sweeps on quantities that
cost O(order) per point and never expand a polynomial: critical points are
the zeros of the secular sum S = B'/B over the distinct zeros (only the
interior ones are iterated; their reflections 1/conj(w) enter the coupling),
and the fiber of c is the root set of Q (B - c), Q = prod_k (1 - conj(a_k) w),
whose Newton step takes B, B' and Q'/Q from one pass over (points x zeros)
blocks.  Critical points start next to the zeros, or between two zeros
closer than that offset; a fiber point next to its zero if that lies outside
the Jensen circle of c, else on that circle where arg B meets arg c.  One
iteration solves many root sets side by side, a row of roots each: the
critical points of many products (a row with fewer distinct zeros than the
widest padded with weight-0 copies of one of its own, each holding an
iterate fixed), or the fibers of many targets under products of one order.
The coupling, like every (points x zeros) pass, runs in blocks (_PASS_BLOCK,
_BLOCK), each gathering its points' rows of zeros; one block is returned as
it is, so a small solve pays for arithmetic, not for assembling blocks.
Aberth closes on a double root only linearly, so a row's last pair, if it
is still in that phase, moves once to the roots of its local quadratic
factor (`_two_root_step`).  A root stops once its residual is within the
rounding bound of its evaluation, and roots that rounding cannot tell apart
are merged into one multiple root, row by row.  A run that gives up raises
NonConvergenceError naming the rows still moving by the labels its caller
passed in.  `critical_roots` and `fiber_roots` are the only entry points.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._util import _BLOCK, _blocked, components
from .errors import NonConvergenceError

_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
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
    and their multiplicities m, as arrays.  All products share one Aberth
    run, a row each, padded to the widest row's G zeros: a row of g < G
    takes G - g copies of its first zero at multiplicity 0, whose weight
    m (1-|u|^2) = 0 leaves S, S' and their rounding bound as they are, each
    holding one iterate fixed (`_aberth`), whose coupling cancels the roots
    u and 1/conj(u) the copy adds to N (`_critical_newton`).  A run of one
    g, one product's too, skips all padding work.  Raises
    NonConvergenceError when a root is still moving after the sweep cap,
    naming row r as noun labels[r], names = (noun, labels).
    """
    size = [len(ur) for ur, _ in distinct]
    u, m = np.empty((len(size), max(size)), dtype=complex), np.zeros((len(size), max(size)))
    for row, (ur, mr) in enumerate(distinct):
        u[row, len(ur):] = ur[0]
        u[row, :len(ur)], m[row, :len(ur)] = ur, mr
    # a run of one g holds no padding; one row is indexed once, not gathered in every sweep
    count = None if min(size) == max(size) else np.array(size) - 1
    zeros = _secular_zeros(*distinct[0]) if len(u) == 1 else _secular_zeros(u, m)
    found = _aberth(_critical_starts(u, m), lambda z, rows: _critical_newton(z, zeros, rows), True, names, count)
    return _merge_critical(found, zeros, count)


def fiber_roots(a: np.ndarray, gamma, c: np.ndarray, distinct, tol: float, names) -> np.ndarray:
    """All n roots of Q (B - c_t) for each nonzero target c_t of the 1-D
    array c, multiplicities expanded, unsorted: a (targets x n) array.

    B = gamma prod_k (a_k - w)/(1 - conj(a_k) w) over the n zeros a with
    repeats; distinct = (u, m) holds the distinct zeros and multiplicities.
    These are one product's (a of shape (n,)), or a row per target (a of
    shape (targets x n), gamma one per target and distinct a list of pairs).
    All targets share one Aberth run from `_fiber_starts`, and each sweep's
    Newton step is one blocked pass over its live roots (`_product_terms`).
    A group of one target's iterates that rounding cannot tell apart moves
    onto the multiple root under it (`_merge_fiber`), within the reach by
    which a double root splits at re-evaluation tolerance tol.  Raises
    NonConvergenceError when a root is still moving after the sweep cap,
    naming target t as noun labels[t], names = (noun, labels).
    """
    absc, n = np.abs(c), a.shape[-1]
    # per-run constants: `_product_terms`' zeros (t complex, as its product with r would cast
    # it in every sweep), and the bound's floor, n smallest normals, where B rounds by a fixed step
    zeros, floor = (a, np.conj(a), (1.0 - np.abs(a) ** 2).astype(complex), gamma), n * _TINY

    def newton(w, rows, last=False):
        """(f/f', |f|, rounding bound of f) for f = B - c at the points w of the given rows, from
        one `_product_terms` pass; with `last`, the `_links` radii bound/|f'| (0 where not finite)."""
        val, der, qlog = _product_terms(w, *zeros, rows)
        noise = 2.0 * _EPS * np.maximum(n * np.abs(val) + absc[rows] + np.abs(w) * np.abs(der), floor)
        if last:
            radius = noise / np.abs(der)
            return np.where(np.isfinite(radius), radius, 0.0)
        f = val - c[rows]
        return f / (der + f * qlog), np.abs(f), noise

    w = _aberth(_fiber_starts(a, gamma, c), newton, False, names)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        radius = newton(w, np.arange(len(w))[:, None].repeat(n, axis=1), True)
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
    t = 1 - |a|^2 are computed once per run.  The zeros are one product's, or
    a row per target with rows the target of each point (`_by_rows`).

    One pass over blocks of at most _BLOCK (points x zeros) entries, two
    complex divisions each: with r_k = 1/(1 - conj(a_k) w) and e_k = a_k - w,
    B = gamma prod_k e_k r_k, B' = B S with S = -sum_k (1-|a_k|^2) r_k/e_k,
    and Q'/Q = -sum_k conj(a_k) r_k.  Where B S is not finite (w on a zero,
    or a factor underflows), B' is the product rule at the vanishing factor,
    b_k' = -(1-|a_k|^2) r_k^2 times the other factors, exact there.  These
    steps divide by zero or overflow; the caller silences the warnings.
    """
    out = _by_rows(_product_block, w.reshape(-1), (a, ac, t, gamma), rows, _BLOCK)
    return out if w.ndim == 1 else tuple(x.reshape(w.shape) for x in out)


def _by_rows(kernel, z, zeros, rows, entries):
    """kernel(points, *zeros) on blocks of at most `entries` (points x zeros)
    entries of the 1-D points z (`_blocked`), with one product's zeros, or a
    row per product gathered per block, rows the row of each point (or one for all)."""
    if zeros[0].ndim == 2:
        zeros, rows = ([x[rows] for x in zeros], None) if np.ndim(rows) == 0 else (zeros, np.reshape(rows, -1))
    return _blocked(z.size, max(1, entries // zeros[0].shape[-1]), lambda i, j: kernel(
        z[i:j], *(zeros if zeros[0].ndim == 1 else [x[rows[i:j]] for x in zeros])))


def _product_block(w, a, ac, t, gamma):
    """`_product_terms` at the 1-D points w, as one block, with one
    product's zeros or a row per point; a call per block frees its
    temporaries before the next block makes its own."""
    # three (points x zeros) temporaries, reused in place
    x = w[:, None]
    r = np.multiply(ac, x)
    r = np.divide(1.0, np.subtract(1.0, r, out=r), out=r)
    e = np.subtract(a, x)
    f = np.multiply(e, r)
    # the ufuncs' own reductions: np.prod and .sum call these, with more overhead
    val = gamma * np.multiply.reduce(f, axis=1)
    qlog = -np.add.reduce(np.multiply(ac, r, out=f), axis=1)
    der = -val * np.add.reduce(np.divide(np.multiply(t, r, out=r), e, out=e), axis=1)
    bad = ~np.isfinite(der)
    if np.count_nonzero(bad):  # .any() takes longer
        # b_k' at the factor nearest 0 times the other factors
        if a.ndim == 2:
            a, ac, t, gamma = a[bad], ac[bad], t[bad], gamma[bad]
        r = 1.0 / (1.0 - ac * x[bad])
        f = (a - x[bad]) * r
        rows, k = np.arange(len(f)), np.abs(f).argmin(axis=1)
        f[rows, k] = -np.broadcast_to(t.real, f.shape)[rows, k] * r[rows, k] ** 2
        der[bad] = gamma * np.multiply.reduce(f, axis=1)
    return val, der, qlog


def _aberth(z, newton, mirrored: bool, names, count=None) -> np.ndarray:
    """Simultaneous Aberth iteration for the roots of f from the (rows x n)
    starts z, each row a root set of its own that couples only within itself.

    Row r iterates its first count[r] roots (all n without count); the
    others are fixed, and enter the coupling as they stand.  Each sweep
    makes one newton(z, rows) call on the live roots z of all rows,
    flattened, for (f/f', |f|, rounding bound of f).  A root stops, after
    taking that sweep's correction, once |f| is within its bound, and stays
    in the coupling.  In the sweep in which a row's live roots are first
    down to one pair, that pair is offered `_two_root_step`, unless the row
    never iterated more than a pair.  After _MAX_SWEEPS sweeps raises
    NonConvergenceError, naming each row r still moving as noun labels[r],
    names = (noun, labels).  With `mirrored` the roots of f are the iterates
    and their reflections 1/conj(z), which enter the coupling (`_pull`, one
    division per entry) without being iterated; an iterate that leaves the
    disc is replaced by its reflection.
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
            if mirrored:
                # only live roots moved; the others are inside already
                out = np.abs(new) > 1.0
                if np.count_nonzero(out):
                    new[out] = 1.0 / np.conj(new[out])
            flat[live] = new
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
    def block(i, j):
        zb, own = zl[i:j, None], (np.arange(j - i), cols[i:j])
        peers = z[rows] if len(z) == 1 else z[rows[i:j]]
        diff = zb - peers
        if not mirrored:
            diff[own] = np.inf
            return np.add.reduce(1.0 / diff, axis=1)
        w = np.conj(peers)
        diff[own] = 1.0
        den = w * zb - 1.0
        num = w * diff + den
        num[own] = np.conj(zb[:, 0])
        return np.add.reduce(np.divide(num, np.multiply(den, diff, out=den), out=num), axis=1)

    return _blocked(zl.size, max(1, _PASS_BLOCK // z.shape[1]), block)


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
    signs, twice = np.array([root, -root]), 2.0 * x[0]
    moved = mid + 0.5 * (s + np.where(np.abs(s + root - twice) <= np.abs(s - root - twice), signs, signs[::-1]))
    ok = np.logical_and.reduce(np.abs(moved - mid) <= d, axis=0)  # False where not finite
    new[ij[:, ok]] = moved[:, ok]


def _secular_zeros(u, m) -> tuple:
    """(u, conj(u), m (1-|u|^2)), the distinct zeros u of multiplicities m
    as `_secular` takes them, computed once per run; the weights are complex,
    as their products with complex entries take them anyway."""
    return u, np.conj(u), (m * (1.0 - np.abs(u) ** 2)).astype(complex)


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
    error against a 40-digit S stayed within 0.27 of it (README).  Blocks
    (`_by_rows`) change no bit: rows are independent.
    """
    return _by_rows(_secular_block, z, zeros, rows, _PASS_BLOCK)


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
    logs = np.add.reduce(dt, axis=1)
    dt *= t
    noise = 4.0 * _EPS * (np.add.reduce(np.abs(t), axis=1) + np.abs(z) * np.add.reduce(np.abs(dt), axis=1))
    return np.add.reduce(t, axis=1), np.add.reduce(dt, axis=1), noise, logs


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
    angle 2 pi k/n (n broadcast against the other axes; an int n, for n
    points, takes the kept offsets), so that close points start apart."""
    if isinstance(n, int):
        return points + _roots_of_unity(n)[0]
    return points + 1e-3 * np.exp(2j * np.pi * np.arange(points.shape[-1]) / n)


@lru_cache(maxsize=256)
def _roots_of_unity(n) -> tuple:
    """Read-only constants of n roots, kept per n: `_next_to`'s offsets, and
    `_circle_angles`' 2n + 2 sample angles theta and 2 pi, exp(i theta) and
    its conjugate at the samples, and the offsets 2 pi j of the n levels."""
    samples = 2 * n + 2
    theta = 2.0 * np.pi * np.arange(samples + 1) / samples
    e = np.exp(1j * theta[:samples])
    out = 1e-3 * np.exp(2j * np.pi * np.arange(n) / n), theta, e, np.conj(e), 2.0 * np.pi * np.arange(n)
    for x in out:
        x.flags.writeable = False
    return out


def _critical_starts(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Starts for the g - 1 interior critical points of each row of u, with
    multiplicities m: next to the row's distinct zeros, in order of modulus
    and all but the first.  A zero u_k within the 1e-3 offset of an earlier
    one starts at the nearest such u_j's weighted point
    (m_j u_k + m_k u_j)/(m_j + m_k), where S vanishes between close poles.
    A row's columns of multiplicity 0 (its padding, `critical_roots`) come
    last and start on their own zero, where `_aberth` holds them."""
    real = m > 0
    padded = not real.all()
    # padding is nan here: it sorts after every zero in modulus and is near none
    points = np.where(real, u, np.nan) if padded else u
    mods = np.abs(points)
    pick = np.arange(len(u))[:, None], np.argsort(mods, axis=1, kind="stable")
    u, m, mods = u[pick], m[pick], mods[pick]
    points = points[pick] if padded else u
    starts = _next_to(points[:, 1:], real.sum(axis=1, keepdims=True) - 1 if padded else u.shape[1] - 1)
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
    return np.where(m[:, 1:] > 0, starts, u[:, 1:]) if padded else starts


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
    n, rows = a.shape[-1], None if a.ndim == 1 else np.arange(len(c))[:, None]
    order = np.abs(a).argsort(axis=-1, kind="stable")
    a = a[order] if a.ndim == 1 else a[rows, order]
    mods = np.abs(a)
    logs = np.log(np.where(mods > 0.0, mods, 1e-300))
    # above[..., j] = sum_{i >= j} log|a_i| (sorted), 0 at j = n
    above = np.zeros(a.shape[:-1] + (n + 1,))
    above[..., :n] = np.add.accumulate(logs[..., ::-1], axis=-1)[..., ::-1]
    # the circle mean at r = |a_j| (sorted) is j log|a_j| + sum_{i >= j} log|a_i|
    j = np.arange(n)
    means = j * logs + above[..., :n]
    log_c = np.log(np.abs(c))[:, None]
    # the first k sorted zeros of each target lie inside its circle
    k = (means < log_c).sum(axis=1, keepdims=True)
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
    _, theta, e, ec, levels = _roots_of_unity(n)
    inside, angles = np.arange(n) < k, np.angle(a)
    phase = np.empty((len(c), samples + 1))
    # per row: k theta, pi per zero inside and arg a_k per zero outside
    phase[:, :samples] = k * theta[:samples] + np.where(inside, np.pi, angles).sum(axis=1, keepdims=True)
    w, kw = (r * e).reshape(-1), k[:, 0].repeat(samples)
    # the unit factors: conj(w)/r per sample, -conj(a_k)/|a_k| per zero
    inner, outer, wc = ec if len(c) == 1 else np.tile(ec, len(c)), np.exp(1j * (np.pi - angles)), np.conj(w)

    def block(i, j):
        # each sample takes its target's row of zeros
        ab, ob = (a, outer) if a.ndim == 1 else (a[np.arange(i, j) // samples], outer[np.arange(i, j) // samples])
        v = np.subtract(w[i:j, None], ab)
        v *= np.where(np.arange(n) < kw[i:j, None], inner[i:j, None], ob)
        v *= np.subtract(1.0, ab * wc[i:j, None])
        return np.add.reduce(np.angle(v), axis=1)

    phase[:, :samples] += _blocked(w.size, max(1, _PASS_BLOCK // n), block).reshape(len(c), samples)
    phase[:, samples] = phase[:, 0] + 2.0 * np.pi * k[:, 0]
    phase = np.maximum.accumulate(phase, axis=1)
    first = phase[:, :1] + np.mod(np.angle(c / gamma)[:, None] - phase[:, :1], 2.0 * np.pi)
    return _interp_rows(first + levels, phase, theta)


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


def _links(z, radius) -> np.ndarray:
    """(rows x n) `components` labels of the converged roots z (rows x n) of
    f that rounding cannot tell apart within a row, given their radii.

    A root z_i is uncertain by about its radius noise_i/|f'(z_i)| (0 where
    not finite), within which |f| stays below its rounding bound noise_i.
    Near an m-fold root q, f ~ c (z - q)^m, the parts that rounding splits
    it into stop where |f| meets that bound, so each lies within m
    noise/|f'| of q and its neighbours on that ring within 2 pi noise/|f'|.
    Roots closer than 8 times the sum of their radii are linked: two simple
    roots that close have |f| <= 4 noise at their midpoint, as near a double
    root.  An entry of z that is nan links only itself.  Rows are linked in
    blocks of at most _BLOCK (roots x row) entries.
    """
    n, own = z.shape[1], np.arange(z.shape[1])

    def block(i, j):
        zb, rb = z[i:j], radius[i:j]
        near = np.abs(zb[:, :, None] - zb[:, None, :]) <= 8.0 * (rb[:, :, None] + rb[:, None, :])
        near[:, own, own] = True
        return components(near)

    return _blocked(len(z), max(1, _BLOCK // n ** 2), block)


def _merge_critical(z, zeros, count=None) -> list:
    """(point, multiplicity) for the converged interior iterates z, one list
    per row of the (rows x n) array z, with the run's zeros as `_secular`
    takes them.  Row r's own iterates are its first count[r] (all without
    count), the rest held on its padding (`critical_roots`).

    The iterates of one group (`_links`) are one multiple point at their
    centroid, which rounding perturbs far less than the members.  A
    point whose error bound (noise/|S'| for a simple one, the spread of a
    group) reaches the origin is reported as exactly 0, and all such points
    as one.  Rows whose iterates link only to themselves take that rule as
    arrays; the others, one at a time.
    """
    rows, n = z.shape
    own = None if count is None else np.arange(n) < count[:, None]
    zo = z.reshape(-1) if own is None else z[own]
    # one row is indexed, not gathered, as in _aberth: a single product
    # rounds exactly as a solve of its own
    index = 0 if rows == 1 else (np.arange(rows).repeat(n) if own is None else own.nonzero()[0])
    _, ds, noise, _ = _secular(zo, zeros, index)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = noise / np.abs(ds)
    # the `_links` radius of each own iterate; padding is nan, linked to nothing
    radius = np.where(np.isfinite(err), err, 0.0)
    full = radius.reshape(z.shape) if own is None else np.zeros(z.shape)
    if own is not None:
        full[own] = radius
    labels = _links(z if own is None else np.where(own, z, np.nan), full)
    # the test of a Python complex: abs() is the hypot of its parts
    snapped = np.where(np.hypot(zo.real, zo.imag) <= err, 0j, zo).tolist()
    zo, err, end = zo.tolist(), err.tolist(), 0
    found = []
    sizes = [n] * rows if own is None else count.tolist()
    for r, (grouped, size) in enumerate(zip((labels != np.arange(n)).any(axis=1).tolist(), sizes)):
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
    """One target's converged fiber iterates w, with multiple roots merged,
    given their `_links` labels and radii, its product's zeros as
    `_product_terms` takes them and distinct = (u, m) (`fiber_roots`).

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
            (loc, _), = _merge_critical(crit, secular)[0]
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
