"""Reference computations made apart from blaschkelab.

Every function here starts from the zeros a_k and the unimodular constant
gamma of a product B(z) = gamma * prod_k (a_k - z) / (1 - conj(a_k) z) and
shares no code with the package it checks: B and B' are plain numpy
broadcasts over the zeros, hull membership uses an angular-gap test in the
Klein model, and the cross-check of roots runs mpmath at 50 digits.
"""

from __future__ import annotations

import numpy as np

# points per broadcast block, so that an order x points temporary stays a few
# MB and the benchmark's own memory does not mask the program's in peak RSS
CHUNK = 1024


def _blocks(z):
    flat = np.asarray(z, dtype=complex).ravel()
    for start in range(0, flat.size, CHUNK):
        yield start, flat[start:start + CHUNK, None]


def blaschke(zeros, gamma, z) -> np.ndarray:
    """B(z) by the product over the zeros."""
    a = np.asarray(zeros, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.size, dtype=complex)
    for s, w in _blocks(z):
        out[s:s + len(w)] = gamma * np.prod((a - w) / (1.0 - np.conj(a) * w), axis=1)
    return out.reshape(z.shape)


def log_derivative(zeros, z):
    """(B'/B(z), size): the sum of t_k = (1 - |a_k|^2) / ((1 - conj(a_k) z)(z - a_k))
    and the sum of |t_k|.  z must avoid the zeros."""
    a = np.asarray(zeros, dtype=complex)
    z = np.asarray(z, dtype=complex)
    s = np.empty(z.size, dtype=complex)
    size = np.empty(z.size, dtype=float)
    for i, w in _blocks(z):
        t = (1.0 - np.abs(a) ** 2) / ((1.0 - np.conj(a) * w) * (w - a))
        s[i:i + len(w)] = np.sum(t, axis=1)
        size[i:i + len(w)] = np.sum(np.abs(t), axis=1)
    return s.reshape(z.shape), size.reshape(z.shape)


def derivative(zeros, gamma, z):
    """(B'(z), scale) by the product rule B' = B * B'/B.

    scale = |B| * sum_k |t_k| is the size of the summands of B'; rounding in
    any evaluation of B' from the zeros is a small multiple of eps * scale, so
    a computed derivative is judged against it rather than against |B'|,
    which vanishes at critical points.  z must avoid the zeros.
    """
    b = blaschke(zeros, gamma, z)
    s, size = log_derivative(zeros, z)
    return b * s, np.abs(b) * size


def boundary_derivative_modulus(zeros, theta) -> np.ndarray:
    """|B'| on the circle as |derivative| at exp(i theta)."""
    d, _ = derivative(zeros, 1.0, np.exp(1j * np.asarray(theta, dtype=float)))
    return np.abs(d)


def _group(zeros, tol=1e-12):
    groups: list = []
    for z in zeros:
        for g in groups:
            if abs(z - g[0]) <= tol:
                g[1] += 1
                break
        else:
            groups.append([complex(z), 1])
    return groups


def _secular(zeros, c):
    """(S(c), S'(c)) for S = B'/B = sum_k m_k t_k over the distinct zeros u_k
    of multiplicity m_k; d/dz log t_k = conj(u_k)/(1 - conj(u_k) z) - 1/(z - u_k)."""
    groups = _group(zeros)
    u = np.array([g[0] for g in groups])
    m = np.array([g[1] for g in groups], dtype=float)
    t = m * (1.0 - np.abs(u) ** 2) / ((1.0 - np.conj(u) * c) * (c - u))
    return np.sum(t), np.sum(t * (np.conj(u) / (1.0 - np.conj(u) * c) - 1.0 / (c - u)))


def critical_newton_step(zeros, c) -> float:
    """|S(c)/S'(c)| for S = B'/B.

    For a point away from the zeros this is the distance Newton's method
    would still move c toward a zero of B', i.e. how far c is from being a
    critical point.  A point sitting on a zero of multiplicity m >= 2 is a
    critical point of multiplicity m - 1 and gives 0; a point on a simple
    zero is not critical and gives inf.
    """
    c = complex(c)
    for u, m in _group(zeros):
        if abs(c - u) <= 1e-12:
            return 0.0 if m >= 2 else float("inf")
    s, ds = _secular(zeros, c)
    if ds == 0:
        return 0.0 if s == 0 else float("inf")
    return float(abs(s / ds))


def second_derivative(zeros, gamma, c) -> complex:
    """B''(c) = B (S^2 + S'), for c away from the zeros."""
    s, ds = _secular(zeros, complex(c))
    return complex(blaschke(zeros, gamma, np.array([c]))[0]) * (s * s + ds)


def fiber_defects(zeros, gamma, c, fiber):
    """(eval_defect, product_defect) of a claimed fiber B^{-1}(c).

    eval_defect is max |B(v) - c| over the points.  product_defect checks
    completeness: phi_c(B(z)) = (B(z) - c)/(1 - conj(c) B(z)) is itself a
    Blaschke product whose zeros are exactly the fiber, so its modulus must
    equal prod_k |(v_k - z)/(1 - conj(v_k) z)| at any probe z.  A repeated or
    missing point breaks that identity even when every listed point maps to
    c.  The defect is the largest relative mismatch over probes on the
    circles |z| = 0.3 and 0.97 where |phi_c(B)| >= 1e-3.
    """
    v = np.asarray(fiber, dtype=complex)
    eval_defect = float(np.max(np.abs(blaschke(zeros, gamma, v) - c)))
    probes = np.concatenate([r * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16) for r in (0.3, 0.97)])
    bz = blaschke(zeros, gamma, probes)
    target = np.abs((bz - c) / (1.0 - np.conj(c) * bz))
    keep = target >= 1e-3
    w = probes[keep][:, None]
    rebuilt = np.prod(np.abs((v - w) / (1.0 - np.conj(v) * w)), axis=1)
    product_defect = float(np.max(np.abs(rebuilt - target[keep]) / target[keep]))
    return eval_defect, product_defect


def reflection_unpaired(interior, exterior, tol) -> list:
    """Exterior points (with multiplicity) left over after pairing each with
    an interior point at distance <= tol from its reflection 1/conj(e), plus
    interior points away from the origin that no exterior point claimed.

    Interior points at the origin reflect to infinity and need no partner.
    An empty list means the two sets are reflections of one another.
    """
    pool = [[complex(p), int(m)] for p, m in interior if abs(p) > tol]
    left = []
    for e, m in exterior:
        r = 1.0 / np.conj(complex(e))
        for _ in range(int(m)):
            best = None
            for slot in pool:
                if slot[1] > 0 and abs(slot[0] - r) <= tol and (
                    best is None or abs(slot[0] - r) < abs(best[0] - r)
                ):
                    best = slot
            if best is None:
                left.append(complex(e))
            else:
                best[1] -= 1
    left.extend(p for p, m in pool for _ in range(m))
    return left


def klein(p) -> np.ndarray:
    """Poincare disc to Klein model: 2p / (1 + |p|^2)."""
    p = np.asarray(p, dtype=complex)
    return 2.0 * p / (1.0 + np.abs(p) ** 2)


def hull_distance(points, z) -> float:
    """Klein-model distance from z to the hyperbolic hull of points (0 inside).

    In the Klein model the hull is the Euclidean convex hull of the images.
    A point lies in it exactly when the directions from it to the vertices
    leave no angular gap wider than pi.  Otherwise its distance to the hull
    is the distance to the nearest segment between two vertices.  No hull
    polygon is built.
    """
    k = klein(points)
    q = complex(klein(z))
    d = k - q
    if np.any(d == 0):
        return 0.0
    ang = np.sort(np.angle(d))
    gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
    if np.max(gaps) <= np.pi:
        return 0.0
    if len(k) == 1:
        return float(abs(d[0]))
    i, j = np.triu_indices(len(k), 1)
    a, b = k[i], k[j]
    ab = b - a
    t = np.clip(((q - a) * np.conj(ab)).real / np.maximum(np.abs(ab) ** 2, 1e-300), 0.0, 1.0)
    return float(np.min(np.abs(q - (a + t * ab))))


def _mp_expand(roots_and_scales):
    """Ascending mpmath coefficients of prod_k (s_k + u_k z)."""
    import mpmath

    coeffs = [mpmath.mpc(1)]
    for s, u in roots_and_scales:
        nxt = [mpmath.mpc(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * s
            nxt[i + 1] += c * u
        coeffs = nxt
    return coeffs


def _mp_roots(ascending):
    import mpmath

    top = max(abs(c) for c in ascending)
    while len(ascending) > 1 and abs(ascending[-1]) <= mpmath.mpf(10) ** -40 * top:
        ascending = ascending[:-1]
    return [complex(r) for r in mpmath.polyroots(ascending[::-1], maxsteps=400, extraprec=200)]


def mp_critical_points(zeros, gamma) -> list:
    """All zeros of P'Q - PQ' at 50 digits (with multiplicity), where
    P = gamma prod (a_k - z) and Q = prod (1 - conj(a_k) z)."""
    import mpmath

    with mpmath.workdps(50):
        g = mpmath.mpc(complex(gamma))
        a = [mpmath.mpc(complex(x)) for x in zeros]
        p = [g * c for c in _mp_expand([(x, -1) for x in a])]
        q = _mp_expand([(1, -mpmath.conj(x)) for x in a])
        dp = [i * p[i] for i in range(1, len(p))]
        dq = [i * q[i] for i in range(1, len(q))]
        n = len(p) + len(q) - 2
        num = [mpmath.mpc(0)] * n
        for i, x in enumerate(dp):
            for j, y in enumerate(q):
                num[i + j] += x * y
        for i, x in enumerate(p):
            for j, y in enumerate(dq):
                num[i + j] -= x * y
        return _mp_roots(num)


def mp_fiber(zeros, gamma, c) -> list:
    """All roots of P - cQ at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        g = mpmath.mpc(complex(gamma))
        cc = mpmath.mpc(complex(c))
        a = [mpmath.mpc(complex(x)) for x in zeros]
        p = _mp_expand([(x, -1) for x in a])
        q = _mp_expand([(1, -mpmath.conj(x)) for x in a])
        return _mp_roots([g * x - cc * y for x, y in zip(p, q)])


def unmatched(found, reference, rel_tol) -> int:
    """Points of either list (flat, multiplicity expanded) left without a
    one-to-one partner in the other within rel_tol * max(1, |r|)."""
    pool = list(reference)
    missing = 0
    for x in sorted(found, key=abs):
        dist = [abs(x - r) / max(1.0, abs(r)) for r in pool]
        if dist and min(dist) <= rel_tol:
            pool.pop(int(np.argmin(dist)))
        else:
            missing += 1
    return missing + len(pool)
