"""Critical points and fibers across the declared envelope, checked against
the benchmark's independent oracles (bench/oracles.py).

The envelope: orders 2 to 128, zero radii up to 0.99, zeros in pairs 1e-9 to
1e-4 apart, repeated zeros up to multiplicity 8 (also at the origin), and
fiber targets up to |c| = 0.99 or at and near a critical value.  Inside it,
every call returns an answer that passes the oracle or raises a typed error.
"""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import oracles as O
from blaschkelab import (CircleStraddleError, ContourThroughFiberError, FiniteBlaschkeProduct, NonConvergenceError,
                         critical_sets, fiber_sets, polyroots, valence)

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


def double_point_reach(B, c, p):
    """|B(v) - c| <= eta lets a double root at p split by sqrt(2 eta / |B''(p)|)."""
    return np.sqrt(2.0 * FIBER_EVAL * (1.0 + abs(c)) / abs(O.second_derivative(B.zeros, B.gamma, p)))


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
            assert sorted(abs(v - p) for v in fiber)[1] <= double_point_reach(B, c, p)
        pytest.importorskip("mpmath")
        assert O.unmatched(fiber, O.mp_fiber(B.zeros, B.gamma, c), MP_REL) == 0


def sweeps_of_first_run(monkeypatch, call):
    """The number of Aberth sweeps of the first root-finding run that call()
    starts, counted through the newton callback of polyroots._aberth."""
    runs = []
    aberth = polyroots._aberth

    def counting(z, newton, *rest):
        runs.append(0)

        def counted(zl, rows):
            runs[-1] += 1
            return newton(zl, rows)

        return aberth(z, counted, *rest)

    monkeypatch.setattr(polyroots, "_aberth", counting)
    call()
    return runs[0]


class TestDoubleRoots:
    """Aberth closes on a double root only linearly; the two-root step and the
    close-pair critical starts cut those tails."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("order", [4, 8, 12, 16, 24])
    def test_fiber_at_a_critical_value_skips_the_linear_tail(self, monkeypatch, order, seed):
        # with plain Aberth these fibers took 16 to 20 sweeps; a root that is
        # still converging next to the pair can keep its row from being down
        # to that pair for a few sweeps (13 at order 24, seed 1)
        B, p = critical_value_input(np.random.default_rng([order, seed, 16]), order, 0.8)
        c = complex(O.blaschke(B.zeros, B.gamma, np.array([p]))[0])
        fiber = []
        assert sweeps_of_first_run(monkeypatch, lambda: fiber.extend(B.fiber_solve(c))) <= 13
        assert fiber_error(B, c, fiber) is None
        assert sorted(abs(v - p) for v in fiber)[1] <= double_point_reach(B, c, p)

    @pytest.mark.parametrize("k", range(6))
    def test_critical_points_between_zero_pairs_within_ten_sweeps(self, monkeypatch, k):
        # each pair's critical point starts between the two zeros; from
        # starts 1e-3 off the zeros these took 10 to 17 sweeps
        B = pair_product(k)
        found = []
        assert sweeps_of_first_run(monkeypatch, lambda: found.append(B.critical_points())) <= 10
        assert critical_error(B, found[0]) is None

    def test_starts_sit_between_close_zeros(self):
        # S = m_j/(z - u_j) + m_k/(z - u_k) + ... vanishes near the weighted point
        u = np.array([[0.5, 0.5 + 4e-4, -0.3j, 0.2 + 1e-4j]])
        m = np.array([[2.0, 1.0, 1.0, 3.0]])
        starts = polyroots._critical_starts(u, m)
        # the zero nearest the origin, 0.2 + 1e-4j, starts nothing; 0.5 + 4e-4
        # is within 1e-3 of 0.5 and starts at (2 (0.5 + 4e-4) + 1 (0.5))/3
        assert starts.shape == (1, 3)
        assert np.isclose(starts[0, 2], 0.5 + 4e-4 * 2 / 3, rtol=0.0, atol=1e-15)
        assert all(abs(abs(s - z) - 1e-3) < 1e-15 for s, z in zip(starts[0, :2], (-0.3j, 0.5)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 64), st.integers(0, 2**32 - 1), st.sampled_from((0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6)),
       st.floats(0.0, 1.0))
def test_fiber_near_a_critical_value(order, seed, delta, turn):
    """Targets at and 1e-14..1e-6 from a known critical value, zeros within
    0.9: a near-double root that the two-root step resolves.  At the
    critical value itself there is a double point within reach of p."""
    B, p = critical_value_input(np.random.default_rng(seed), order, 0.9)
    c = complex(O.blaschke(B.zeros, B.gamma, np.array([p]))[0]) + delta * np.exp(2j * np.pi * turn)
    fiber = B.fiber_solve(c)
    assert fiber_error(B, c, fiber) is None
    if delta == 0.0:
        assert sorted(abs(v - p) for v in fiber)[1] <= double_point_reach(B, c, p)


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
def products(draw, max_order=128, min_order=2):
    """A product inside the envelope: orders 2-128 (or min_order to
    max_order), zeros up to radius 0.99, spread out, in pairs 1e-9..1e-4
    apart, or repeated up to multiplicity 8 with or without a repeated zero
    at the origin."""
    order = draw(st.integers(min_order, max_order))
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


@st.composite
def fiber_batches(draw):
    """2-6 (product, target) pairs: envelope products of orders 1-16, most
    of one order so that they share an Aberth run, each with a target
    anywhere up to |c| = 0.99 or at and 1e-12..1e-8 from the critical value
    of its critical point nearest the origin (anywhere where that raises)."""
    shared, batch = draw(st.integers(1, 16)), []
    for _ in range(draw(st.integers(2, 6))):
        order = draw(st.one_of(st.just(shared), st.just(shared), st.integers(1, 16)))
        B = draw(products(max_order=order, min_order=order))
        c = draw(st.integers(0, 99)) / 100 * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))
        if order > 1 and draw(st.booleans()):
            try:
                p = min((p for p, _ in B.critical_points().interior), key=abs)
                c = complex(O.blaschke(B.zeros, B.gamma, np.array([p]))[0]) + draw(
                    st.sampled_from((0.0, 1e-12, 1e-10, 1e-8))) * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))
            except TYPED:
                pass
        batch.append((B, complex(c)))
    return batch


def greedy_gap(own, row):
    """The largest distance from a point of own to the nearest point of row
    not yet taken, in units of eps max(1, |w|)."""
    left, worst = list(row), 0.0
    for w in own:
        i = int(np.argmin([abs(w - v) for v in left]))
        worst = max(worst, abs(w - left.pop(i)) / (np.finfo(float).eps * max(1.0, abs(w))))
    return worst


@settings(max_examples=30, deadline=None)
@given(fiber_batches())
def test_fiber_sets_rows_are_their_products_own_fibers(batch):
    """Batch invariance: each row of one fiber_sets call is its product's own
    fiber_solve within 4 eps max(1, |w|) a point, and the batch raises only
    where one of its products raises alone.  Over about 10,000 rows drawn
    the same way by a plain numpy generator, the largest gap was 1.58 eps
    max(1, |w|), all at order 1 (one product's solve there works on
    one-element arrays, which numpy rounds as scalars); every other row
    matched bit for bit, and nothing raised."""
    alone = []
    for B, c in batch:
        try:
            alone.append(B.fiber_solve(c))
        except TYPED:
            alone.append(None)
    try:
        rows = fiber_sets(*zip(*batch))
    except TYPED:
        assert None in alone
        return
    for own, row in zip(alone, rows):
        assert own is None or greedy_gap(own, row) <= 4.0


@settings(max_examples=40, deadline=None)
@given(products(max_order=16), st.floats(0.0, 0.99), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.one_of(st.none(), st.tuples(st.integers(0, 15), st.floats(-12.0, -2.0), st.booleans())))
def test_valence_in_envelope(B, modulus, turn, place, near):
    """The winding count on any circle |z| = r, 0 < r < 1, placed anywhere or
    1e-12..1e-2 from a fiber point's modulus, and at least 1e-12 from every
    one: the number of fiber points inside by the 50-digit oracle, or a
    ContourThroughFiberError.  The fiber of 0 is the zeros; under a repeated
    zero the oracle's root finder stalls on targets far below its 50 digits,
    and such a draw is rejected."""
    mpmath = pytest.importorskip("mpmath")
    w = modulus * np.exp(2j * np.pi * turn)
    try:
        mods = np.abs(O.mp_fiber(B.zeros, B.gamma, w) if w else B.zeros)
    except mpmath.libmp.NoConvergence:
        reject()
    r = place
    if near is not None:
        k, exponent, outside = near
        r = mods[k % len(mods)] + (10.0 ** exponent if outside else -(10.0 ** exponent))
    assume(0.0 < r < 1.0 and np.min(np.abs(mods - r)) >= 1e-12)
    try:
        count = valence(B, w, r).valence
    except ContourThroughFiberError:
        return
    assert count == np.count_nonzero(mods < r)
