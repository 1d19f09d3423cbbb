"""Critical points and fibers across the declared envelope, checked against
the benchmark's independent oracles (bench/oracles.py).

The envelope: orders 2 to 128, zero radii up to 0.99, zeros in pairs 1e-9 to
1e-4 apart, repeated zeros up to multiplicity 8 (also at the origin), and
fiber targets up to |c| = 0.99 or at and near a critical value.  Inside it,
every call returns an answer that passes the oracle or raises a typed error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as O
from blaschkelab import CircleStraddleError, FiniteBlaschkeProduct, NonConvergenceError, critical_sets, polyroots

# the checks' tolerances, as in bench/workloads.py
CRIT_STEP = 1e-6       # Newton distance of a critical point to a zero of B', x max(1, |p|)
HULL_TOL = 1e-8        # Klein distance outside the hull of the zeros
REFLECT_TOL = 1e-6     # interior point vs reflection of an exterior point
FIBER_EVAL = 1e-8      # |B(v) - c| / (1 + |c|)
FIBER_PRODUCT = 1e-4   # relative defect of the fiber's rebuilt product
MP_REL = 1e-8          # against the 50-digit roots

TYPED = (NonConvergenceError, CircleStraddleError)


def critical_error(B, cs):
    """None, or why cs is not the critical set of B."""
    count = sum(m for _, m in cs.interior)
    if count != B.order - 1:
        return f"interior multiplicity {count}, expected {B.order - 1}"
    for p, _ in cs.interior + cs.exterior:
        step = O.critical_newton_step(B.zeros, p)
        if not step <= CRIT_STEP * max(1.0, abs(p)):
            return f"{p} is {step:.1e} from a zero of B'"
    for p, _ in cs.interior:
        dist = O.hull_distance(B.zeros, p)
        if dist > HULL_TOL:
            return f"{p} lies {dist:.1e} outside the hull"
    left = O.reflection_unpaired(cs.interior, cs.exterior, REFLECT_TOL)
    return f"{len(left)} critical points without a reflected partner" if left else None


def fiber_error(B, c, fiber):
    """None, or why fiber is not the fiber of c under B."""
    if len(fiber) != B.order:
        return f"{len(fiber)} fiber points, expected {B.order}"
    if max(abs(v) for v in fiber) >= 1.0:
        return "a fiber point is outside the open disc"
    eval_defect, product_defect = O.fiber_defects(B.zeros, B.gamma, c, fiber)
    if eval_defect > FIBER_EVAL * (1.0 + abs(c)):
        return f"|B(v) - c| = {eval_defect:.1e}"
    if product_defect > FIBER_PRODUCT:
        return f"fiber incomplete: product defect {product_defect:.1e}"
    return None


def _disc(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def fixed_input(order, k):
    """Fixed product k at `order` and its fiber target, drawn as the
    benchmark's roots-high-order workload draws them."""
    rng = np.random.default_rng([order, k])
    zeros = tuple(complex(z) for z in _disc(rng, order, 0.9))
    gamma = complex(np.exp(2j * np.pi * rng.uniform()))
    return FiniteBlaschkeProduct(gamma, zeros), complex(_disc(rng, 1, 0.8)[0])


def pair_product(k):
    """The benchmark's fixed product k of order 4k + 4, zeros in pairs 1e-9..1e-4 apart."""
    rng = np.random.default_rng([4 * k + 4, k, 1])
    base = _disc(rng, 2 * k + 2, 0.85)
    gaps = 10.0 ** rng.uniform(-9, -4, size=len(base)) * np.exp(2j * np.pi * rng.uniform(size=len(base)))
    zeros = tuple(complex(z) for z in np.concatenate([base, base + gaps]))
    return FiniteBlaschkeProduct(complex(np.exp(2j * np.pi * rng.uniform())), zeros)


def critical_value_input(rng, order, spread):
    """(B, p): a product with the known critical point p, built as the
    benchmark's near-multiple workload builds it.  a_n solves
    sum_k (1/a_k - conj(a_k)) = 0, which makes 0 critical, and the involution
    z -> (p - z)/(1 - conj(p) z) moves that critical point to p."""
    while True:
        a = list(_disc(rng, order - 1, spread))
        r_sum = -sum(1.0 / x - np.conj(x) for x in a)
        rho = 0.5 * (np.sqrt(abs(r_sum) ** 2 + 4.0) - abs(r_sum))
        if rho <= spread:
            break
    a.append(rho * np.exp(-1j * np.angle(r_sum)))
    p = complex(_disc(rng, 1, 0.5 * spread)[0])
    zeros = tuple(complex((p - x) / (1.0 - np.conj(p) * x)) for x in a)
    return FiniteBlaschkeProduct(complex(np.exp(2j * np.pi * rng.uniform())), zeros), p


class TestTinyTargets:
    """Targets next to 0, whose fibers lie within rounding of the zeros."""

    @staticmethod
    def product(order, at_origin, double=False):
        rng = np.random.default_rng([order, 17])
        zeros = [complex(z) for z in _disc(rng, order, 0.9)]
        if at_origin:
            zeros[0] = 0j
        if double:
            zeros[1] = zeros[0]
        return FiniteBlaschkeProduct(complex(np.exp(2j * np.pi * rng.uniform())), zeros)

    # subnormal targets: the rounding bound of B - c would underflow to 0
    # next to a zero at the origin without its floor
    @pytest.mark.parametrize("c", [1e-20, 1e-100, 1e-300, 1e-300j, 1e-310, 5e-324])
    @pytest.mark.parametrize("at_origin", [False, True])
    @pytest.mark.parametrize("order", [1, 2, 5, 8, 16, 64, 128])
    def test_simple_zeros(self, order, at_origin, c):
        B = self.product(order, at_origin)
        assert fiber_error(B, c, B.fiber_solve(c)) is None

    @pytest.mark.parametrize("c", [1e-32, 1e-100, 1e-300, 1e-300j])
    @pytest.mark.parametrize("order", [5, 16, 64, 128])
    def test_double_zero(self, order, c):
        B = self.product(order, False, double=True)
        assert fiber_error(B, c, B.fiber_solve(c)) is None

    def test_double_zero_is_a_double_point(self):
        # S has a pole at the double zero, so no critical point refines the
        # two iterates that rounding cannot tell apart there
        u = 0.3 + 0.2j
        B = FiniteBlaschkeProduct(1.0, (u, u, -0.5j, 0.6))
        for c in (1e-32, 1e-100, 1e-300):
            fiber = B.fiber_solve(c)
            assert fiber_error(B, c, fiber) is None
            assert fiber.count(u) == 2


class TestFiberStarts:
    """Fiber starts on the Jensen circle, at the angles where arg B meets arg c."""

    # two zeros at 0 and one just outside the circle of |c| = 0.12, whose
    # radius is sqrt(2 |c|) = 0.49: arg B dips where the circle passes it
    DIP = FiniteBlaschkeProduct(1.0, (0j, 0j, 0.5 * np.exp(1j * np.pi / 8)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("order", [16, 32, 64, 128])
    def test_high_order_fibers_within_eight_sweeps(self, monkeypatch, order, seed):
        # from evenly spread starts these fibers took 10 to 19 sweeps
        rng = np.random.default_rng([order, seed, 8])
        B = FiniteBlaschkeProduct(complex(np.exp(2j * np.pi * rng.uniform())),
                                  tuple(complex(z) for z in _disc(rng, order, 0.9)))
        targets = np.array([0.1, 0.3, 0.5, 0.8, 0.9, 0.99]) * np.exp(2j * np.pi * rng.uniform(size=6))
        monkeypatch.setattr(polyroots, "_MAX_SWEEPS", 8)
        for c, fiber in zip(targets, B.fiber_solve(targets)):
            assert fiber_error(B, c, fiber) is None

    @pytest.mark.parametrize("order", [2, 5, 16, 64, 128])
    def test_every_row_gets_distinct_starts(self, order):
        rng = np.random.default_rng([order, 5])
        zeros = _disc(rng, order, 0.95)
        zeros[-1] = zeros[0]
        mods = 10.0 ** rng.uniform(-12.0, np.log10(0.99), size=40)
        starts = polyroots._fiber_starts(zeros, 1j, mods * np.exp(2j * np.pi * rng.uniform(size=40)))
        gaps = np.abs(starts[:, :, None] - starts[:, None, :])
        gaps[:, np.arange(order), np.arange(order)] = np.inf
        assert gaps.min() > 0.0

    @staticmethod
    def circle(B, c):
        """(k, r, sampled arg B, angles) for the target c, computed apart from
        the solver: r by bisection on Jensen's mean sum log max(r, |a_k|) =
        log|c|, k the zeros inside, arg B unwrapped on 1,024 points per sample
        interval and read at the 2n + 2 sample angles, and the angles where
        its running maximum meets arg c + 2 pi j, j < k."""
        mods = np.abs(np.array(B.zeros))
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.sum(np.log(np.maximum(mid, mods))) < np.log(abs(c)) else (lo, mid)
        r, k = lo, int(np.sum(mods < lo))
        samples = 2 * B.order + 2
        fine = 2.0 * np.pi * np.arange(1024 * samples + 1) / (1024 * samples)
        sampled = np.unwrap(np.angle(B.eval(r * np.exp(1j * fine))))[::1024]
        levels = sampled[0] + np.mod(np.angle(c) - sampled[0], 2.0 * np.pi) + 2.0 * np.pi * np.arange(k)
        return k, r, sampled, np.interp(levels, np.maximum.accumulate(sampled), fine[::1024])

    @pytest.mark.parametrize("turn", [1.0, 2.1, 4.9])
    def test_a_dip_in_the_sampled_argument_keeps_the_running_maximum(self, turn):
        # arg B falls over the first of the 8 sample intervals; the levels at
        # turns 2.1 and 4.9 lie in the range that the fall crosses twice more
        B, c = self.DIP, 0.12 * np.exp(1j * turn)
        k, r, sampled, angles = self.circle(B, c)
        assert k == 2 and np.diff(sampled)[0] < -0.5
        a = np.array(sorted(B.zeros, key=abs))
        found = polyroots._circle_angles(a, B.gamma, np.array([c]), np.array([[k]]), np.array([[r]]))[0, :k]
        assert np.allclose(found, angles, rtol=0.0, atol=1e-9)
        starts = polyroots._fiber_starts(np.array(B.zeros), B.gamma, np.array([c]))[0]
        assert np.allclose(starts[:k], r * np.exp(1j * angles), rtol=0.0, atol=1e-9)
        assert fiber_error(B, c, B.fiber_solve(c)) is None

    @pytest.mark.parametrize("order", [3, 12, 40])
    def test_angles_meet_the_argument_of_random_products(self, order):
        rng = np.random.default_rng([order, 6])
        B = FiniteBlaschkeProduct(complex(np.exp(2j * np.pi * rng.uniform())),
                                  tuple(complex(z) for z in _disc(rng, order, 0.9)))
        for c in 0.6 * np.exp(2j * np.pi * rng.uniform(size=3)):
            k, r, _, angles = self.circle(B, c)
            a = np.array(sorted(B.zeros, key=abs))
            found = polyroots._circle_angles(a, B.gamma, np.array([c]), np.array([[k]]), np.array([[r]]))[0, :k]
            assert k > 0 and np.allclose(found, angles, rtol=0.0, atol=1e-9)


class TestFixedInputs:
    """The benchmark's fixed inputs: products of order 64 and 128, zeros in
    pairs 1e-9..1e-4 apart, and a fiber at and next to a critical value."""

    @pytest.mark.parametrize("order,k", [(64, 0), (128, 1)])
    def test_critical_points_at_high_order(self, order, k):
        B, _ = fixed_input(order, k)
        assert critical_error(B, B.critical_points()) is None

    @pytest.mark.parametrize("order,k", [(64, 0), (128, 1)])
    def test_fiber_at_high_order(self, order, k):
        B, c = fixed_input(order, k)
        assert fiber_error(B, c, B.fiber_solve(c)) is None

    def test_critical_points_between_zero_pairs(self):
        B = pair_product(5)
        assert B.order == 24
        cs = B.critical_points()
        assert critical_error(B, cs) is None
        pytest.importorskip("mpmath")
        found = [p for p, m in cs.interior + cs.exterior for _ in range(m)]
        assert O.unmatched(found, O.mp_critical_points(B.zeros, B.gamma), MP_REL) == 0

    @pytest.mark.parametrize("delta", [0.0, 1e-8])
    def test_fiber_at_and_near_a_critical_value(self, delta):
        rng = np.random.default_rng([24, 10, 3])
        B, p = critical_value_input(rng, 24, 0.8)
        c0 = complex(O.blaschke(B.zeros, B.gamma, np.array([p]))[0])
        # the benchmark draws one direction per offset 0, 1e-12, 1e-10, 1e-8
        turns = rng.uniform(size=4)
        c = c0 + delta * np.exp(2j * np.pi * turns[[0.0, 1e-12, 1e-10, 1e-8].index(delta)])
        fiber = B.fiber_solve(c)
        assert fiber_error(B, c, fiber) is None
        if delta == 0.0:
            # |B(v) - c| <= eta lets a double root split by sqrt(2 eta / |B''(p)|)
            reach = np.sqrt(2.0 * FIBER_EVAL * (1.0 + abs(c)) / abs(O.second_derivative(B.zeros, B.gamma, p)))
            assert sorted(abs(v - p) for v in fiber)[1] <= reach
        pytest.importorskip("mpmath")
        assert O.unmatched(fiber, O.mp_fiber(B.zeros, B.gamma, c), MP_REL) == 0


def test_critical_point_between_a_close_pair_stays_simple():
    # S'' nearly cancels at the critical point midway between zeros 1.4e-9
    # apart, so a merge rule that judges a root by sqrt(noise/|S''|) alone
    # would take it for part of a multiple root spanning the disc; all
    # three critical points must stay simple
    zeros = (-0.07838079315391701 - 0.33412707777102735j, -0.07838079452499504 - 0.3341270779801043j,
             0.18782558054755746 + 0.47278556036324165j, -0.34040649060152034 + 0.598738623887746j)
    B = FiniteBlaschkeProduct(1.0, zeros)
    cs = B.critical_points()
    assert [m for _, m in cs.interior] == [1, 1, 1]
    assert critical_error(B, cs) is None


@st.composite
def products(draw, max_order=128):
    """A product inside the envelope: orders 2-128 (or up to max_order),
    zeros up to radius 0.99, spread out, in pairs 1e-9..1e-4 apart, or
    repeated up to multiplicity 8 with or without a repeated zero at the
    origin."""
    order = draw(st.integers(2, max_order))
    radius = draw(st.floats(0.05, 0.99))
    layout = draw(st.sampled_from(("spread", "pairs", "repeated")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "spread":
        zeros = _disc(rng, order, radius)
    elif layout == "pairs":
        base = _disc(rng, (order + 1) // 2, radius)
        gaps = 10.0 ** rng.uniform(-9, -4, size=len(base)) * np.exp(2j * np.pi * rng.uniform(size=len(base)))
        zeros = np.concatenate([base, base + gaps])[:order]
    else:
        top = draw(st.integers(1, 8))
        zeros = [0j] * draw(st.integers(0, min(top, order))) if draw(st.booleans()) else []
        while len(zeros) < order:
            zeros += [complex(_disc(rng, 1, radius)[0])] * int(rng.integers(1, top + 1))
        zeros = zeros[:order]
    gamma = np.exp(2j * np.pi * rng.uniform())
    return FiniteBlaschkeProduct(gamma, tuple(complex(z) for z in zeros))


@settings(max_examples=40, deadline=None)
@given(products())
def test_critical_points_in_envelope(B):
    try:
        cs = B.critical_points()
    except TYPED:
        return
    assert critical_error(B, cs) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(products(max_order=32), min_size=1, max_size=8))
def test_batched_critical_points_in_envelope(batch):
    """One critical_sets call on a batch of envelope products: each product's
    critical set must pass the oracle.  Orders stop at 32 to keep the
    oracle's cost, cubic in the order, small: test_critical_points_in_envelope
    covers orders up to 128 one product at a time, and
    test_blaschke.py::TestCriticalSets a batch of order 64."""
    try:
        sets = critical_sets(batch)
    except TYPED:
        return
    assert len(sets) == len(batch)
    for B, cs in zip(batch, sets):
        assert critical_error(B, cs) is None


@settings(max_examples=40, deadline=None)
@given(products(), st.sampled_from(("anywhere", "critical value")),
       st.integers(0, 99), st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-12, 1e-10, 1e-8)))
def test_fiber_in_envelope(B, target, percent, turn, offset):
    """Targets anywhere up to |c| = 0.99, or at and 1e-12..1e-8 from the
    critical value of the critical point nearest the origin."""
    c = percent / 100 * np.exp(2j * np.pi * turn)
    if target == "critical value":
        try:
            cs = B.critical_points()
        except TYPED:
            return
        p = min((p for p, _ in cs.interior), key=abs)
        c = complex(O.blaschke(B.zeros, B.gamma, np.array([p]))[0]) + offset * np.exp(2j * np.pi * turn)
    try:
        fiber = B.fiber_solve(c)
    except TYPED:
        return
    assert fiber_error(B, c, fiber) is None


@settings(max_examples=25, deadline=None)
@given(products(), st.lists(st.tuples(st.sampled_from(("anywhere", "critical value")), st.integers(0, 99),
                                      st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-12, 1e-10, 1e-8))),
                            min_size=1, max_size=6))
def test_batched_fibers_in_envelope(B, draws):
    """One fiber_solve call on a batch of envelope targets, as in
    test_fiber_in_envelope: each target's fiber must pass the oracle."""
    cs = None
    targets = []
    for target, percent, turn, offset in draws:
        c = percent / 100 * np.exp(2j * np.pi * turn)
        if target == "critical value":
            try:
                cs = cs or B.critical_points()
            except TYPED:
                return
            p = min((p for p, _ in cs.interior), key=abs)
            c = complex(O.blaschke(B.zeros, B.gamma, np.array([p]))[0]) + offset * np.exp(2j * np.pi * turn)
        targets.append(c)
    try:
        fibers = B.fiber_solve(np.array(targets))
    except TYPED:
        return
    assert len(fibers) == len(targets)
    for c, fiber in zip(targets, fibers):
        assert fiber_error(B, c, fiber) is None
