import itertools
import tracemalloc

import numpy as np
import pytest

from blaschkelab import (
    DiscAutomorphism,
    FiniteBlaschkeProduct,
    NonConvergenceError,
    PoleProximityError,
    ZeroProximityError,
    automorphism_eval,
    collinearity_residual,
    critical_sets,
    fatou_quotient,
    geodesic_point,
    hull_contains,
    hyperbolic_convex_hull,
    klein_to_poincare,
    poincare_to_klein,
    pseudo_hyperbolic_distance,
    random_product,
    valence,
)
from blaschkelab import blaschke, polyroots
from blaschkelab._util import components
from blaschkelab.blaschke import _BLOCK

NAN = float("nan")
INF = float("inf")


def rand_disc(rng, radius=0.85):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


class TestConstruction:
    def test_monomial_convention(self):
        # z**n is n zeros at the origin with gamma = (-1)**n
        for n in (1, 2, 5):
            B = FiniteBlaschkeProduct.monomial(n)
            assert B.gamma == (-1.0) ** n
            assert B.eval(0.3 + 0.4j) == pytest.approx((0.3 + 0.4j) ** n)

    def test_rejects_boundary_zero(self):
        with pytest.raises(ValueError):
            FiniteBlaschkeProduct(1.0, (1.0 - 1e-14,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FiniteBlaschkeProduct(1.0, ())

    def test_gamma_renormalized(self):
        B = FiniteBlaschkeProduct(3.0 + 4.0j, (0.1,))
        assert abs(B.gamma) == pytest.approx(1.0, abs=1e-15)


class TestEval:
    def test_square_at_half_i(self):
        B = FiniteBlaschkeProduct.monomial(2)
        assert B.eval(0.5j) == pytest.approx(-0.25)

    def test_vanishes_at_zeros(self):
        B = FiniteBlaschkeProduct(np.exp(0.3j), (0.2 + 0.1j, -0.5j))
        for z in B.zeros:
            assert abs(B.eval(z)) <= 1e-15

    def test_value_at_origin_is_gamma_times_product(self):
        B = FiniteBlaschkeProduct(1.0, (0.5, -0.5))
        assert B.eval(0.0) == pytest.approx(0.5 * (-0.5))

    def test_boundary_unimodularity(self):
        rng = np.random.default_rng(100)
        thetas = 2 * np.pi * np.arange(360) / 360
        for _ in range(100):
            B = random_product(rng, int(rng.integers(1, 11)), 0.9)
            vals = B.eval(np.exp(1j * thetas))
            assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-12

    def test_reflection_identity(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            B = random_product(rng, int(rng.integers(1, 7)), 0.8)
            r = 0.2 + 0.7 * rng.uniform()
            z = r * np.exp(2j * np.pi * rng.uniform())
            assert abs(B.eval(z) * np.conj(B.eval(1 / np.conj(z))) - 1.0) <= 1e-9

    def test_pole_rejected(self):
        B = FiniteBlaschkeProduct(1.0, (0.5,))
        with pytest.raises(PoleProximityError):
            B.eval(2.0)


class TestDerivative:
    def test_square_at_one(self):
        B = FiniteBlaschkeProduct.monomial(2)
        h = 1e-6  # central finite difference along the radius
        fd = (B.eval(1 + h) - B.eval(1 - h)) / (2 * h)
        assert B.derivative(1.0) == pytest.approx(2.0, abs=1e-12)
        assert B.derivative(1.0) == pytest.approx(fd, rel=1e-8)

    def test_order_one_never_critical(self):
        B = FiniteBlaschkeProduct(np.exp(1.2j), (0.3 - 0.4j,))
        grid = 0.95 * np.exp(2j * np.pi * np.arange(32) / 32)
        assert np.min(np.abs(B.derivative(grid))) > 0.01

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        B = random_product(rng, 4, 0.8)
        h = 1e-6
        for _ in range(10):
            z = rand_disc(rng, 0.8)
            fd = (B.eval(z + h) - B.eval(z - h)) / (2 * h)
            fd += (B.eval(z + 1j * h) - B.eval(z - 1j * h)) / (2j * h)
            assert abs(B.derivative(z) - fd / 2) <= 1e-6 * (1 + abs(fd))

    @pytest.mark.parametrize("order", [64, 128])
    def test_product_rule_at_high_order(self, order):
        rng = np.random.default_rng(order)
        B = random_product(rng, order, 0.9)
        a = np.array(B.zeros)[:, None]
        z = np.array([rand_disc(rng, 0.99) for _ in range(200)])
        z = z[np.min(np.abs(z - a), axis=0) > 1e-3]
        # B' = B * sum_k t_k with t_k = (1 - |a_k|^2)/((1 - conj(a_k) z)(z - a_k))
        b = B.gamma * np.prod((a - z) / (1.0 - np.conj(a) * z), axis=0)
        t = (1.0 - np.abs(a) ** 2) / ((1.0 - np.conj(a) * z) * (z - a))
        err = np.abs(B.derivative(z) - b * np.sum(t, axis=0))
        assert np.all(err <= 1e-12 * np.abs(b) * np.sum(np.abs(t), axis=0))

        # at a simple zero a_k only the factor b_k is differentiated, and
        # b_k'(a_k) = -1/(1 - |a_k|^2)
        k = 0
        a_k = B.zeros[k]
        others = np.delete(a[:, 0], k)
        expected = (B.gamma * np.prod((others - a_k) / (1.0 - np.conj(others) * a_k))
                    * (-1.0 / (1.0 - abs(a_k) ** 2)))
        assert abs(B.derivative(a_k) - expected) <= 1e-12 * abs(expected)


class TestLogDerivative:
    def test_single_zero(self):
        B = FiniteBlaschkeProduct(-1.0, (0.0,))  # the identity map z
        assert B.log_derivative(0.5) == pytest.approx(2.0)

    def test_square(self):
        B = FiniteBlaschkeProduct.monomial(2)
        assert B.log_derivative(0.5) == pytest.approx(4.0)

    def test_cross_check_with_rational_derivative(self):
        B = FiniteBlaschkeProduct(1.0, (0.5, -0.5))
        z = 0.2j
        lhs = B.log_derivative(z)
        rhs = B.derivative(z) / B.eval(z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_zero_proximity_rejected(self):
        B = FiniteBlaschkeProduct(1.0, (0.5,))
        with pytest.raises(ZeroProximityError):
            B.log_derivative(0.5)


class TestBlockedEvaluation:
    """Arrays longer than one block are evaluated block by block."""

    METHODS = ("eval", "derivative", "log_derivative")

    @staticmethod
    def grid(rng, n):
        return 0.99 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))

    @pytest.mark.parametrize("method", METHODS)
    def test_values_do_not_depend_on_array_size(self, method):
        rng = np.random.default_rng(64)
        B = random_product(rng, 64, 0.9)
        grid = self.grid(rng, 3 * _BLOCK + 5)
        f = getattr(B, method)
        full = f(grid)
        for piece in (777, _BLOCK):
            pieces = [f(grid[i:i + piece]) for i in range(0, grid.size, piece)]
            assert np.array_equal(np.concatenate(pieces), full)
        assert np.array_equal(f(grid.reshape(47, 523)), full.reshape(47, 523))
        assert np.array_equal(f(grid[::2]), full[::2])
        empty = f(grid[:0].reshape(0, 4))
        assert isinstance(empty, np.ndarray) and empty.shape == (0, 4)

    def test_log_derivative_checks_the_last_block(self):
        rng = np.random.default_rng(3)
        B = random_product(rng, 8, 0.9)
        grid = self.grid(rng, 3 * _BLOCK + 5)
        B.log_derivative(grid)
        grid[-1] = B.zeros[5]
        with pytest.raises(ZeroProximityError):
            B.log_derivative(grid)

    def test_derivative_at_a_zero_in_the_third_block(self):
        rng = np.random.default_rng(128)
        B = random_product(rng, 128, 0.9)
        grid = self.grid(rng, 3 * _BLOCK + 5)
        at = 2 * _BLOCK + 100
        k = 0
        a_k = B.zeros[k]
        grid[at] = a_k
        # as in test_product_rule_at_high_order: b_k'(a_k) = -1/(1 - |a_k|^2)
        others = np.delete(np.array(B.zeros), k)
        expected = (B.gamma * np.prod((others - a_k) / (1.0 - np.conj(others) * a_k))
                    * (-1.0 / (1.0 - abs(a_k) ** 2)))
        assert abs(B.derivative(grid)[at] - expected) <= 1e-12 * abs(expected)

    # peak allocation over the returned array's bytes: each method keeps one
    # array for all points (1.59, 2.07 and 1.83 measured at 10**5 points, the
    # rest the block's temporaries); whole-array temporaries for every zero
    # would take 4 (eval, log_derivative) and 7 (derivative)
    @pytest.mark.parametrize("method,bound", [("eval", 2.0), ("derivative", 2.5),
                                              ("log_derivative", 2.0)])
    def test_memory_stays_near_the_output(self, method, bound):
        rng = np.random.default_rng(64)
        B = random_product(rng, 64, 0.9)
        grid = self.grid(rng, 10 ** 5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = getattr(B, method)(grid)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound * out.nbytes

    @pytest.mark.parametrize("method", METHODS + ("boundary_derivative_modulus",))
    def test_leaves_the_callers_points_and_earlier_results_alone(self, method):
        rng = np.random.default_rng(17)
        B = random_product(rng, 17, 0.9)
        f = getattr(B, method)
        n = 3 * _BLOCK + 5
        base = (2.0 * np.pi * rng.uniform(size=2 * n) if method == "boundary_derivative_modulus"
                else self.grid(rng, 2 * n))
        # contiguous, strided and 2-D, each longer than a block, a short array and a lone point
        for z in (base[:n], base[::2], base[:2 * 47 * 523].reshape(94, 523), base[:100], base[:1]):
            before, first = z.copy(), f(z)
            kept = first.copy()
            assert np.array_equal(z, before) and first.shape == z.shape
            f(base[n:][::-1])
            assert np.array_equal(first, kept)
            assert np.array_equal(z, before)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def chunk_formulas(B, zz, chunk):
    """(B, B', B'/B) at the points zz (at most one block, or a numpy scalar)
    by the reflected chunk formulas of the README as plain expressions, with
    the kernels' operations in the kernels' operand order.  For each zero a,
    with t = 1 - |a|^2 and e = a - z: from |a| = 1/_FAR up, p = r - z with
    r = 1/conj(a) and d = -t/conj(a); below, p = 1 - conj(a) z and d = -t.
    C is the product of a chunk's conj(a) of the first kind and s = 1/C.  A
    chunk of B is N (s/D), N = prod e and D = prod p; of B' it is
    (C M) (s/D)**2 with C M <- C M e p + (C d) N D; of B'/B one fraction,
    num <- num e p + d den over den = prod e p."""
    def factor(a, z):
        return 1.0 / a.conjugate() - z if abs(a) >= 1.0 / blaschke._FAR else 1.0 - a.conjugate() * z

    def constant(a):
        t = 1.0 - abs(a) ** 2
        return -t / a.conjugate() if abs(a) >= 1.0 / blaschke._FAR else -t

    b = val = np.full(np.shape(zz), B.gamma, dtype=complex)
    der = s = np.zeros(np.shape(zz), dtype=complex)
    for run in (B.zeros[i:i + chunk] for i in range(0, B.order, chunk)):
        C = 1.0
        for a in run:
            C = C * a.conjugate() if abs(a) >= 1.0 / blaschke._FAR else C
        a, *rest = run
        n, d, m = a - zz, factor(a, zz), C * constant(a)
        sn, sd = (constant(a), (a - zz) * factor(a, zz)) if rest else (constant(a) / factor(a, zz), a - zz)
        for a in rest:
            e, p, w = a - zz, factor(a, zz), (a - zz) * factor(a, zz)
            m = m * e * p + C * constant(a) * n * d
            n, d, sn, sd = n * e, d * p, sn * w + constant(a) * sd, sd * w
        inv = (1.0 / C) / d
        b = b * (n * inv)
        der, val, s = der * (n * inv) + val * (m * inv) * inv, val * (n * inv), s + sn / sd
    return b, der, s


class TestBitsOfTheChunkFormulas:
    """The kernels give the bits of the plain chunk formulas: updating in
    place keeps every operation and its operand order."""

    METHODS = TestBlockedEvaluation.METHODS

    @staticmethod
    def by_blocks(B, z, chunk):
        parts = [chunk_formulas(B, z[i:i + _BLOCK], chunk) for i in range(0, z.size, _BLOCK)]
        return [np.concatenate(x) for x in zip(*parts)]

    @staticmethod
    def threshold_product(rng, order):
        """A random product with zeros at 0, one ulp below 1/_FAR, at it and
        one ulp above, in random places."""
        small = 1.0 / blaschke._FAR
        zeros = list(random_product(rng, order, 0.9).zeros)
        special = [0j, np.nextafter(small, 0.0) + 0j, 1j * small, -np.nextafter(small, 1.0) + 0j]
        for place, a in zip(rng.permutation(order), special):
            zeros[place] = complex(a)
        return FiniteBlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), tuple(zeros))

    def check_arrays_of_three_blocks(self, B, rng):
        # inside and outside the disc
        z = 1.5 * TestBlockedEvaluation.grid(rng, 3 * _BLOCK + 5)
        for method, ref in zip(self.METHODS, self.by_blocks(B, z, blaschke._CHUNK)):
            assert same_bits(getattr(B, method)(z), ref), method
        for x in z[:20]:  # one-point arrays
            for method, ref in zip(self.METHODS, chunk_formulas(B, x[None], blaschke._CHUNK)):
                assert same_bits(getattr(B, method)(x[None]), ref), method
        on = np.array(B.zeros)
        with np.errstate(divide="ignore", invalid="ignore"):  # B'/B, not compared, divides by 0
            refs = chunk_formulas(B, on, blaschke._CHUNK)
        for method, ref in zip(self.METHODS[:2], refs):
            assert same_bits(getattr(B, method)(on), ref), method

    @pytest.mark.parametrize("order", [1, 7, 8, 9, 15, 16, 17, 64])
    def test_arrays_of_three_blocks(self, order):
        rng = np.random.default_rng([order, 40])
        self.check_arrays_of_three_blocks(random_product(rng, order, 0.9), rng)

    def check_far_points(self, B, rng):
        far = 10.0 ** rng.uniform(13, 160, size=200) * np.exp(2j * np.pi * rng.uniform(size=200))
        assert np.all(np.abs(far) > blaschke._FAR)
        disc = TestBlockedEvaluation.grid(rng, 300)
        # a block splits into its far points and the others; here each side is
        # once a lone point, where numpy's in-place multiply rounds otherwise
        for near, away in ((disc, far[:1]), (disc[:1], far)):
            mixed = np.concatenate([near, away])
            for k, method in enumerate(self.METHODS):
                out = getattr(B, method)(mixed)
                assert same_bits(out[:near.size], chunk_formulas(B, near, blaschke._CHUNK)[k]), method
                assert same_bits(out[near.size:], chunk_formulas(B, away, 1)[k]), method

    @pytest.mark.parametrize("order", [1, 9, 64])
    def test_far_points(self, order):
        rng = np.random.default_rng([order, 41])
        self.check_far_points(random_product(rng, order, 0.9), rng)

    def check_scalars(self, B, rng):
        z = np.concatenate([1.5 * TestBlockedEvaluation.grid(rng, 40), 1e50 * TestBlockedEvaluation.grid(rng, 5)])
        for x in z:
            refs = chunk_formulas(B, x, 1 if abs(x) > blaschke._FAR else blaschke._CHUNK)
            for method, ref in zip(self.METHODS, refs):
                assert same_bits(getattr(B, method)(complex(x)), complex(ref)), method
                assert same_bits(getattr(B, method)(np.array(x)), ref), method

    @pytest.mark.parametrize("order", [1, 8, 15, 16, 17, 64])
    def test_scalars(self, order):
        rng = np.random.default_rng([order, 42])
        self.check_scalars(random_product(rng, order, 0.9), rng)

    @pytest.mark.parametrize("order", [4, 15, 16, 17, 40])
    def test_zeros_at_and_around_the_reflection_threshold(self, order):
        # a zero at 0 and one just below 1/_FAR keep 1 - conj(z_k) z; the
        # zeros at and just above it take r_k - z
        rng = np.random.default_rng([order, 44])
        B = self.threshold_product(rng, order)
        forms = [run[0][1] is None for _, run in B._chunks[1]]  # r_k, None for 1 - conj(z_k) z
        assert sorted(forms) == [False] * (order - 2) + [True] * 2
        self.check_arrays_of_three_blocks(B, rng)
        self.check_far_points(B, rng)
        self.check_scalars(B, rng)

    def test_a_zero_next_to_the_circle_halves_the_chunks(self):
        # past 1 - 6e-6 in modulus, 16 pairs of factors of B'/B could underflow
        rng = np.random.default_rng(45)
        zeros = random_product(rng, 20, 0.9).zeros
        B = FiniteBlaschkeProduct(1j, zeros[:5] + (1.0 - 1e-6,) + zeros[5:])
        assert [len(run) for _, run in B._chunks[blaschke._CHUNK]] == [8, 8, 5]
        assert [len(run) for _, run in FiniteBlaschkeProduct(1j, zeros)._chunks[blaschke._CHUNK]] == [16, 4]
        z = 1.5 * TestBlockedEvaluation.grid(rng, _BLOCK + 5)
        for method, ref in zip(self.METHODS, self.by_blocks(B, z, blaschke._CHUNK // 2)):
            assert same_bits(getattr(B, method)(z), ref), method

    def test_boundary_derivative_modulus(self):
        rng = np.random.default_rng(43)
        B = random_product(rng, 64, 0.99)
        th = 2.0 * np.pi * rng.uniform(size=3 * _BLOCK + 5)
        w = np.exp(1j * th)
        ref = np.zeros(th.shape)
        for a in B.zeros:
            ref = ref + (1.0 - abs(a) ** 2) / np.abs(w - a) ** 2
        assert same_bits(B.boundary_derivative_modulus(th), ref)
        assert all(same_bits(B.boundary_derivative_modulus(float(x)), float(r)) for x, r in zip(th[:20], ref))


class TestChunkedEvaluation:
    """eval, derivative and log_derivative take the zeros in chunks of
    blaschke._CHUNK, one division per chunk; points beyond blaschke._FAR take
    one zero per chunk."""

    EPS = np.finfo(float).eps

    @staticmethod
    def reference(B, z):
        """(B, B', B'/B, |B| sum|t_k|, sum|t_k|) factor by factor, with
        t_k = (1 - |a_k|^2)/((1 - conj(a_k) z)(z - a_k)); z must avoid the zeros."""
        a = np.array(B.zeros)[:, None]
        b = B.gamma * np.prod((a - z) / (1.0 - np.conj(a) * z), axis=0)
        t = (1.0 - np.abs(a) ** 2) / (1.0 - np.conj(a) * z) / (z - a)  # two steps: far out the product overflows
        s, size = np.sum(t, axis=0), np.sum(np.abs(t), axis=0)
        return b, b * s, s, np.abs(b) * size, size

    @pytest.mark.parametrize("order", [1, 7, 8, 9, 16, 17])
    def test_matches_the_factor_by_factor_product(self, order):
        rng = np.random.default_rng([order, 8])
        B = random_product(rng, order, 0.9)
        a = np.array(B.zeros)[:, None]
        # inside and outside the disc, off the zeros and the poles 1/conj(a_k)
        z = 3.0 * np.sqrt(rng.uniform(size=600)) * np.exp(2j * np.pi * rng.uniform(size=600))
        z = z[(np.min(np.abs(1.0 - np.conj(a) * z), axis=0) > 1e-3) & (np.min(np.abs(z - a), axis=0) > 1e-3)]
        b, d, s, d_scale, s_scale = self.reference(B, z)
        assert np.all(np.abs(B.eval(z) - b) <= 1e-13 * np.abs(b))
        assert np.all(np.abs(B.derivative(z) - d) <= 1e-13 * d_scale)
        assert np.all(np.abs(B.log_derivative(z) - s) <= 1e-13 * s_scale)

    @pytest.mark.parametrize("k", [0, 3, 7, 8, 12, 15, 16])
    def test_derivative_at_a_zero_in_each_place_of_a_chunk(self, k):
        # first, middle and last places of a chunk of 16, and a lone zero
        # in the last; b_k'(a_k) = -1/(1 - |a_k|^2) times the others
        B = random_product(np.random.default_rng(17), 17, 0.9)
        a_k = B.zeros[k]
        others = np.delete(np.array(B.zeros), k)
        expected = (B.gamma * np.prod((others - a_k) / (1.0 - np.conj(others) * a_k))
                    * (-1.0 / (1.0 - abs(a_k) ** 2)))
        assert B.eval(a_k) == 0
        assert abs(B.derivative(a_k) - expected) <= 1e-12 * abs(expected)
        assert abs(B.derivative(np.array([0.1j, a_k]))[1] - expected) <= 1e-12 * abs(expected)

    @pytest.mark.filterwarnings("error")
    def test_next_to_a_zero_of_multiplicity_eight(self):
        # the eight equal factors share one chunk, whose numerator is 1e-240
        rest = (0.5 + 0.2j, -0.3j, 0.7)
        B = FiniteBlaschkeProduct(1j, (0j,) * 8 + rest)
        z = 1e-30 * np.exp(2j * np.pi * np.arange(8) / 8)
        others = 1j * np.prod([(a - z) / (1.0 - np.conj(a) * z) for a in rest], axis=0)
        assert np.all(np.abs(B.eval(z) - z ** 8 * others) <= 1e-14 * np.abs(z ** 8 * others))
        # B' = 8 z^7 times the other factors, up to a relative 1e-30
        der = B.derivative(z)
        assert np.all(np.abs(der - 8 * z ** 7 * others) <= 1e-14 * np.abs(8 * z ** 7 * others))
        w = 1e-11 * np.exp(2j * np.pi * np.arange(8) / 8)
        s = self.reference(B, w)[2]
        assert np.all(np.abs(B.log_derivative(w) - s) <= 1e-14 * np.abs(s))

    @pytest.mark.filterwarnings("error")
    def test_next_to_sixteen_zeros_at_the_circle(self):
        # 1e-12 to 1e-10 from a 16-fold zero 1e-11 inside the circle, and from
        # its pole: each factor of B'/B is about 1e-20 or less, so one chunk
        # of all sixteen would underflow.  A point delta from the zero or pole
        # is conditioned as u/delta (see test_accuracy_across_the_factor_split)
        a = 1.0 - 1e-11
        B = FiniteBlaschkeProduct(1.0, (a,) * 16 + (0.3 - 0.2j,))
        delta = np.array([3e-12, 1e-11, 1e-10])[:, None] * np.exp(2j * np.pi * np.arange(8) / 8)
        z = np.concatenate([a + delta, 1.0 / a + delta]).ravel()
        b, d, s, d_scale, s_scale = self.reference(B, z)
        tol = 8 * 17 * self.EPS * np.sum(1.0 / np.abs(1.0 - np.conj(np.array(B.zeros))[:, None] * z), axis=0)
        assert np.all(np.abs(B.eval(z) - b) <= tol * np.abs(b))
        assert np.all(np.abs(B.derivative(z) - d) <= tol * d_scale)
        assert np.all(np.abs(B.log_derivative(z) - s) <= tol * s_scale)

    @pytest.mark.parametrize("method", TestBlockedEvaluation.METHODS)
    def test_far_points_leave_the_disc_points_alone(self, method):
        rng = np.random.default_rng(9)
        B = random_product(rng, 17, 0.9)
        disc = TestBlockedEvaluation.grid(rng, 300)
        far = 1e100 * np.exp(2j * np.pi * rng.uniform(size=100))
        mixed = np.concatenate([disc, far])
        rng.shuffle(mixed)
        at_disc = np.isin(mixed, disc)
        f = getattr(B, method)
        out = f(mixed)
        assert np.array_equal(out[at_disc], f(mixed[at_disc]))
        assert np.array_equal(out[~at_disc], f(mixed[~at_disc]))
        assert np.array_equal(np.sort_complex(out[at_disc]), np.sort_complex(f(disc)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("modulus", [1e3, 1e20, 1e100, 1e160])
    @pytest.mark.parametrize("order", [1, 9, 64])
    def test_far_points_satisfy_the_reflection_identities(self, order, modulus):
        # B(z) conj(B(z*)) = 1, B'(z) = conj(B'(z*)) / (z^2 conj(B(z*))^2) and
        # B'/B(z) = conj(S(z*)) / z^2 at z* = 1/conj(z), next to the origin
        rng = np.random.default_rng([order, 3])
        B = random_product(rng, order, 0.9)
        z = modulus * np.exp(2j * np.pi * rng.uniform(size=16))
        star = 1.0 / np.conj(z)
        b, b_star = B.eval(z), B.eval(star)
        d_ref = np.conj(B.derivative(star)) / np.conj(b_star) ** 2 / z / z
        s_ref = np.conj(B.log_derivative(star)) / z / z
        tol = 8 * order * self.EPS
        # below 1e-308 a term rounds to a fixed step, which the later
        # factors, each above 1 in modulus out here, grow by at most |B|
        floor = 1e-320 * order * np.abs(b)
        assert np.all(np.abs(b * np.conj(b_star) - 1.0) <= tol)
        assert np.all(np.abs(B.derivative(z) - d_ref) <= tol * np.abs(d_ref) + floor)
        assert np.all(np.abs(B.log_derivative(z) - s_ref) <= tol * np.abs(s_ref) + floor)

    @staticmethod
    def split_product(rng, origin):
        """An order-17 product with zeros at 0 (or at 1e-300), half of 1/_FAR,
        at it, twice it, 1/2 j and just inside 1 - 1e-12, in random places and directions
        among random zeros: the factor split at 1/_FAR, seen from both sides."""
        small = 1.0 / blaschke._FAR
        special = [0j if origin else 1e-300j, 0.5 * small, -1j * small, -2.0 * small, 0.5j,
                   np.nextafter(1.0 - blaschke.ZERO_MARGIN, 0.0)]
        zeros = list(random_product(rng, 17, 0.9).zeros)
        for place, a in zip(rng.permutation(17), special):
            zeros[place] = complex(a)
        return FiniteBlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), tuple(zeros))

    @pytest.mark.parametrize("origin", [True, False])
    def test_accuracy_across_the_factor_split(self, origin):
        rng = np.random.default_rng([17, origin])
        B = self.split_product(rng, origin)
        a = np.array(B.zeros)[:, None]
        # inside the disc and on the circle, where a point within delta of a
        # zero near the circle or of its pole is conditioned as u/delta by the
        # rounding of conj(z_k) z, or of r_k, alike: the points keep 1e-3 off,
        # as in test_matches_the_factor_by_factor_product
        z = np.concatenate([np.sqrt(rng.uniform(size=2000)) * np.exp(2j * np.pi * rng.uniform(size=2000)),
                            np.exp(2j * np.pi * rng.uniform(size=2000))])
        z = z[(np.min(np.abs(1.0 - np.conj(a) * z), axis=0) > 1e-3) & (np.min(np.abs(z - a), axis=0) > 1e-3)]
        assert z.size > 3000
        # outside, |1 - conj(z_k) z| = |eps| of 1e-13 next to the poles 2j,
        # -1j _FAR (on both sides of _FAR) and -_FAR/2 of the zeros 1/2 j,
        # -1j/_FAR and -2/_FAR: their reciprocals are exact, and so is
        # 1 - conj(z_k) z
        eps = (rng.integers(-600, 600, size=(3, 40)) + 1j * rng.integers(-600, 600, size=(3, 40))) * 2.0 ** -52
        eps = eps[np.abs(eps) > 0.5e-13]
        for pole in (2j, -1j * blaschke._FAR, -0.5 * blaschke._FAR):
            near = pole * (1.0 + eps)
            assert np.all(np.abs(np.abs(1.0 - np.conj(a) * near).min(axis=0) - np.abs(eps)) == 0.0)
            z = np.concatenate([z, near])
        assert np.any(np.abs(z) > blaschke._FAR) and np.any((np.abs(z) > 1e8) & (np.abs(z) < blaschke._FAR))
        b, d, s, d_scale, s_scale = self.reference(B, z)
        # arrays, and every 20th point as a scalar
        for f, ref, scale in ((B.eval, b, np.abs(b)), (B.derivative, d, d_scale), (B.log_derivative, s, s_scale)):
            assert np.all(np.abs(f(z) - ref) <= 1e-13 * scale)
            assert np.all(np.abs(np.array([f(complex(x)) for x in z[::20]]) - ref[::20]) <= 1e-13 * scale[::20])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("modulus", [1e3, 1e20, 1e100, 1e200])
    @pytest.mark.parametrize("origin", [True, False])
    def test_far_points_across_the_factor_split(self, origin, modulus):
        # against the factor-by-factor reference, and the reflection identities of
        # test_far_points_satisfy_the_reflection_identities for B and B'.  With
        # a zero at or next to 0, B(z*) is about |z*|: B'(z) = conj(B'(z*))
        # (B(z)/z)**2 squares no small value, and B'/B at z* would be within
        # 1e-12 of that zero
        rng = np.random.default_rng([17, origin, 3])
        B = self.split_product(rng, origin)
        z = modulus * np.exp(2j * np.pi * rng.uniform(size=16))
        b, d, s, d_scale, s_scale = self.reference(B, z)
        for f, ref, scale in ((B.eval, b, np.abs(b)), (B.derivative, d, d_scale), (B.log_derivative, s, s_scale)):
            assert np.all(np.abs(f(z) - ref) <= 1e-13 * scale)
        star = 1.0 / np.conj(z)
        tol = 8 * B.order * self.EPS
        assert np.all(np.abs(B.eval(z) * np.conj(B.eval(star)) - 1.0) <= tol)
        d_ref = np.conj(B.derivative(star)) * (B.eval(z) / z) * (B.eval(z) / z)
        assert np.all(np.abs(B.derivative(z) - d_ref) <= tol * np.abs(d_ref))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_far_values_of_a_large_product_do_not_overflow(self, seed):
        # prod |z_k| is about 6e-18, so |B| is about 1.6e17 out here: a lone
        # factor's numerator times the running value would overflow
        rng = np.random.default_rng([64, seed])
        B = random_product(rng, 64, 0.9)
        assert np.prod(np.abs(B.zeros)) < 1e-16
        z = np.array([1e295, 1e300]) * np.exp(2j * np.pi * rng.uniform(size=2))
        b_star = B.eval(1.0 / np.conj(z))
        # numpy's array loops, and its scalar arithmetic
        for b in (B.eval(z), np.array([B.eval(complex(x)) for x in z])):
            assert np.all(np.abs(b * np.conj(b_star) - 1.0) <= 8 * 64 * self.EPS)

    @pytest.mark.parametrize("order", [8, 64])
    def test_a_scalar_agrees_with_the_same_point_in_an_array(self, order):
        # numpy's scalar arithmetic rounds differently from its array loops,
        # but never by more than rounding
        rng = np.random.default_rng([order, 500])
        B = random_product(rng, order, 0.9)
        z = TestBlockedEvaluation.grid(rng, 500)
        _, _, _, d_scale, s_scale = self.reference(B, z)
        tol = 8 * order * self.EPS
        for method, scale in (("eval", np.abs(B.eval(z))), ("derivative", d_scale),
                              ("log_derivative", s_scale)):
            f = getattr(B, method)
            scalars = np.array([f(complex(x)) for x in z])
            assert np.all(np.abs(scalars - f(z)) <= tol * scale), method

    def test_zero_proximity_where_real_parts_tie(self):
        B = FiniteBlaschkeProduct(1.0, (0.3 + 0.1j, -0.2j, 0.3 - 0.4j, 0.3 - 0.4j + 1e-9j))
        for a in (0.3 + 0.1j, 0.3 - 0.4j):
            for step in (5e-13, 5e-13j, -5e-13j, (3e-13 + 4e-13j)):
                with pytest.raises(ZeroProximityError):
                    B.log_derivative(a + step)
                with pytest.raises(ZeroProximityError):
                    B.log_derivative(np.array([0.5j, a + step, -0.5]))
            for step in (2e-12, 2e-12j, -2e-12j):
                assert np.isfinite(B.log_derivative(a + step))
                assert np.all(np.isfinite(B.log_derivative(np.array([0.5j, a + step]))))

    def test_one_search_flags_what_the_all_pairs_test_flags(self):
        # real parts exactly 2 ZERO_TOL from a zero's and up to three ulps
        # either side of that, where three zeros share a real part
        B = FiniteBlaschkeProduct(1.0, (0.3 + 0.1j, -0.2j, 0.3 - 0.4j, 0.3 + 0.6j, -0.7 + 0.1j, 1e-13))
        re = np.array([a.real for a in B.zeros])
        margin = 2.0 * blaschke.ZERO_TOL
        x = []
        for edge in np.concatenate([re - margin, re + margin, re]):
            for direction in (-np.inf, np.inf):
                step = edge
                for _ in range(4):
                    x.append(step)
                    step = np.nextafter(step, direction)
        x = np.array(x + [-1.0, 1.0, 0.0, 0.5])
        all_pairs = np.any((re[:, None] >= x - margin) & (re[:, None] <= x + margin), axis=0)
        assert 0 < np.count_nonzero(all_pairs) < x.size
        assert np.array_equal(B._near_real_parts(x), all_pairs)
        assert [bool(B._near_real_parts(v)) for v in x] == all_pairs.tolist()


class TestBoundaryDerivative:
    def test_monomial_gives_order(self):
        for n in (1, 2, 7):
            B = FiniteBlaschkeProduct.monomial(n)
            assert B.boundary_derivative_modulus(0.37) == pytest.approx(n, abs=1e-12)

    def test_half_zero_values(self):
        B = FiniteBlaschkeProduct(1.0, (0.5,))
        assert B.boundary_derivative_modulus(0.0) == pytest.approx(3.0)
        assert B.boundary_derivative_modulus(np.pi) == pytest.approx(1.0 / 3.0)

    def test_agrees_with_rational_derivative_on_circle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            B = random_product(rng, int(rng.integers(1, 9)), 0.9)
            th = 2 * np.pi * rng.uniform(size=8)
            lhs = B.boundary_derivative_modulus(th)
            rhs = np.abs(B.derivative(np.exp(1j * th)))
            assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-10


def _reference_labels(links):
    """Smallest index of each point's component, by a depth-first search."""
    label = [-1] * len(links)
    for i in range(len(links)):
        stack = [i]
        while stack:
            j = stack.pop()
            if label[j] < 0:
                label[j] = i
                stack.extend(np.flatnonzero(links[j]).tolist())
    return label


class TestComponents:
    @staticmethod
    def _links(x, tol=1.0):
        x = np.asarray(x, dtype=float)
        return np.abs(x[:, None] - x) <= tol

    def test_chain_is_one_group_in_every_order(self):
        # neighbours are linked, the ends of the chain are not
        for order in itertools.permutations(range(5)):
            assert components(self._links(order)).tolist() == [0] * 5

    def test_separate_groups_and_a_lone_point(self):
        labels = components(self._links([0, 10, 1, 20, 11, 2]))
        assert labels.tolist() == [0, 1, 0, 3, 1, 0]

    def test_batch_matches_rows_and_reference(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(0, 12, size=(40, 9))
        links = np.abs(x[:, :, None] - x[:, None, :]) <= 1.0
        labels = components(links)
        assert labels.shape == (40, 9)
        for row, lk in zip(labels, links):
            assert row.tolist() == components(lk).tolist() == _reference_labels(lk)


class TestCriticalPoints:
    def test_monomial(self):
        B = FiniteBlaschkeProduct.monomial(5)
        cs = B.critical_points()
        assert cs.interior == ((0j, 4),)
        assert cs.exterior == ()

    def test_symmetric_pair(self):
        B = FiniteBlaschkeProduct(1.0, (0.5, -0.5))
        cs = B.critical_points()
        assert len(cs.interior) == 1
        loc, mult = cs.interior[0]
        assert mult == 1 and abs(loc) <= 1e-12

    @pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (6, 1), (4, 4)])
    def test_two_factor_family_structure(self, m, n):
        a, b = 0.5, -0.3 + 0.2j
        B = FiniteBlaschkeProduct(1.0, (a,) * m + (b,) * n)
        cs = B.critical_points()
        interior = dict()
        for p, mult in cs.interior:
            interior[p] = mult
        if m > 1:
            assert any(abs(p - a) <= 1e-9 and mu == m - 1 for p, mu in interior.items())
        if n > 1:
            assert any(abs(p - b) <= 1e-9 and mu == n - 1 for p, mu in interior.items())
        extra = [
            p for p, mu in interior.items()
            if abs(p - a) > 1e-9 and abs(p - b) > 1e-9
        ]
        assert len(extra) == 1
        # independent oracle: the reduced equation is a quadratic
        quad = np.polynomial.polynomial.polyadd(
            m * (1 - abs(a) ** 2)
            * np.convolve([1, -np.conj(b)], [-b, 1]),
            n * (1 - abs(b) ** 2)
            * np.convolve([1, -np.conj(a)], [-a, 1]),
        )
        qroots = [r for r in np.roots(quad[::-1]) if abs(r) < 1]
        assert len(qroots) == 1
        assert abs(extra[0] - qroots[0]) <= 1e-9

    def test_interior_count_and_reflection_random(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            order = int(rng.integers(2, 9))
            B = random_product(rng, order, 0.9)
            cs = B.critical_points()
            assert sum(m for _, m in cs.interior) == order - 1
            interior_pts = [p for p, m in cs.interior for _ in range(m)]
            for e, m in cs.exterior:
                refl = 1 / np.conj(e)
                assert min(abs(refl - p) for p in interior_pts) <= 1e-8

    def test_reported_points_annihilate_the_derivative(self):
        # sharper than matching a companion-matrix oracle, whose raw-numerator
        # conditioning is far worse than the reduced route used here
        rng = np.random.default_rng(424242)
        for _ in range(20):
            order = int(rng.integers(2, 11))
            B = random_product(rng, order, 0.9)
            for p, m in B.critical_points().interior:
                assert abs(B.derivative(p)) <= 1e-8

    def test_order_25(self):
        # the reduced critical polynomial reaches degree 48 here and its
        # leading coefficient is tiny; this covers the top of the design range
        from blaschkelab import hull_contains, hyperbolic_convex_hull

        rng = np.random.default_rng(1)
        B = random_product(rng, 25, 0.9)
        cs = B.critical_points()
        assert sum(m for _, m in cs.interior) == 24
        hull = hyperbolic_convex_hull(B.zeros)
        assert all(hull_contains(hull, p, 1e-8) for p, _ in cs.interior)

    def test_near_coincident_zeros(self):
        B = FiniteBlaschkeProduct(1.0, (0.3, 0.3 + 1e-9, -0.4))
        cs = B.critical_points()
        assert sum(m for _, m in cs.interior) == 2

    def test_chain_of_nearly_equal_zeros_is_one_multiple_zero(self):
        # each zero lies within DISTINCT_ZERO_TOL of the next, not of the
        # first; the repeated zero sits at the chain's centroid
        B = FiniteBlaschkeProduct(1.0, (0.3, 0.3 + 0.9e-12, 0.3 + 1.8e-12, -0.4))
        cs = B.critical_points()
        assert (0.3 + 0.9e-12 + 0j, 2) in cs.interior
        assert sum(m for _, m in cs.interior) == 3

    def test_chain_of_zeros_gives_one_critical_set_in_every_order(self):
        # 0.3 and 0.3 + 1.8e-12 are linked only through 0.3 + 0.9e-12
        first = None
        for chain in itertools.permutations((0.3, 0.3 + 1.8e-12, 0.3 + 0.9e-12)):
            cs = FiniteBlaschkeProduct(1.0, chain + (-0.4,)).critical_points()
            assert [m for _, m in cs.interior] == [1, 2]
            first = first or cs
            assert cs.interior == first.interior and cs.exterior == first.exterior

    def test_fiber_at_critical_value_has_double_point(self):
        B = FiniteBlaschkeProduct(1.0, (0.5, -0.5))
        fib = B.fiber_solve(complex(B.eval(0.0)))
        assert fib == [0j, 0j]


def assert_same_critical_set(got, want):
    """Same points and multiplicities in the same order, points within 4 eps."""
    for mine, theirs in ((got.interior, want.interior), (got.exterior, want.exterior)):
        assert [m for _, m in mine] == [m for _, m in theirs]
        for (p, _), (q, _) in zip(mine, theirs):
            assert abs(p - q) <= 4 * np.finfo(float).eps * max(1.0, abs(q))


class TestCriticalSets:
    def test_matches_per_product_calls(self):
        rng = np.random.default_rng(11)
        products = [random_product(rng, order, 0.9) for order in range(1, 17)]
        products += [
            FiniteBlaschkeProduct(1.0, (0.5, 0.5, 0.5, -0.3j, -0.3j, 0.2)),
            FiniteBlaschkeProduct(1j, (0j, 0.4 + 0.1j, -0.6, 0.1j)),
            FiniteBlaschkeProduct(1.0, (0j, 0j, 0.7, -0.7)),
            FiniteBlaschkeProduct.monomial(5),
        ]
        products += [random_product(rng, int(rng.integers(2, 9)), 0.95) for _ in range(20)]
        batch = critical_sets(products)
        assert len(batch) == len(products)
        for B, cs in zip(products, batch):
            assert_same_critical_set(cs, B.critical_points())

    def test_empty(self):
        assert critical_sets([]) == []

    def test_order_64_batch_is_split_into_chunks(self, monkeypatch):
        rows = []
        solve = blaschke.critical_roots

        def counted(u, m, names):
            rows.append(len(u))
            return solve(u, m, names)

        rng = np.random.default_rng(64)
        products = [random_product(rng, 64, 0.9) for _ in range(5)]
        want = [B.critical_points() for B in products]
        monkeypatch.setattr(blaschke, "critical_roots", counted)
        got = critical_sets(products)
        # at most _BLOCK // 64**2 = 2 products per run
        assert rows == [2, 2, 1]
        for cs, ref in zip(got, want):
            assert_same_critical_set(cs, ref)

    def test_non_convergence_names_the_products(self, monkeypatch):
        rng = np.random.default_rng(3)
        products = [FiniteBlaschkeProduct(1.0, (0.3,)), random_product(rng, 5, 0.9), random_product(rng, 5, 0.9)]
        monkeypatch.setattr(polyroots, "_MAX_SWEEPS", 1)
        with pytest.raises(NonConvergenceError, match=r"unresolved after 1 Aberth sweeps \(products 1, 2\)"):
            critical_sets(products)


class TestProductTerms:
    """The fiber solver's blocked (points x zeros) pass, polyroots._product_terms,
    against the product-rule loop of FiniteBlaschkeProduct."""

    @staticmethod
    def product(order, kind):
        rng = np.random.default_rng([order, len(kind)])
        zeros = [rand_disc(rng, 0.9) for _ in range(order)]
        if kind == "zero at 0":
            zeros[0] = 0j
        elif kind == "repeated":
            zeros[1:4] = [zeros[0]] * len(zeros[1:4])
        return FiniteBlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), zeros), rng

    @staticmethod
    def terms(w, B):
        """_product_terms at the points w, given its per-run constants and
        with the warnings silenced that the solver silences around it."""
        a = np.array(B.zeros)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return polyroots._product_terms(w, a, np.conj(a), 1.0 - np.abs(a) ** 2, B.gamma)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("kind", ["simple", "zero at 0", "repeated"])
    def test_matches_the_product_rule(self, order, kind):
        B, rng = self.product(order, kind)
        a = np.array(B.zeros)[:, None]
        # inside and outside the disc, off the circle and the poles 1/conj(a_k)
        z = np.sqrt(rng.uniform(0.0, 1.5 ** 2, size=400)) * np.exp(2j * np.pi * rng.uniform(size=400))
        keep = (np.min(np.abs(1.0 - np.conj(a) * z), axis=0) > 1e-3) & (np.abs(np.abs(z) - 1.0) > 1e-3)
        z = z[keep & (np.min(np.abs(z - a), axis=0) > 1e-3)]
        assert z.size > 300 and np.any(np.abs(z) > 1.0)
        val, der, qlog = self.terms(z, B)
        ref_val, ref_der = B._value_and_derivative(z)
        # rounding is a few eps per zero of the size of the summands: |B| sum_k |t_k|
        # for B' (as the benchmark's DERIV_SCALED), sum_k |conj(a_k) r_k| for Q'/Q
        tol = 16 * np.finfo(float).eps * order
        t = (1.0 - np.abs(a) ** 2) / ((1.0 - np.conj(a) * z) * (z - a))
        q = np.conj(a) / (1.0 - np.conj(a) * z)
        assert np.all(np.abs(val - ref_val) <= tol * np.abs(ref_val))
        assert np.all(np.abs(der - ref_der) <= tol * np.abs(ref_val) * np.sum(np.abs(t), axis=0))
        assert np.all(np.abs(qlog + np.sum(q, axis=0)) <= tol * np.sum(np.abs(q), axis=0))

    @pytest.mark.parametrize("order", [1, 2, 5, 64, 128])
    @pytest.mark.parametrize("kind", ["simple", "zero at 0", "repeated"])
    def test_exact_on_a_zero(self, order, kind):
        # B S is not finite there: B' is b_k'(a_k) times the other factors,
        # and 0 on a repeated zero, as the product rule gives
        B, _ = self.product(order, kind)
        on = np.array([B.zeros[0], 0.1 + 0.2j])
        val, der, _ = self.terms(on, B)
        ref_val, ref_der = B._value_and_derivative(on)
        assert val[0] == ref_val[0] == 0
        if kind == "repeated" and order >= 2:
            assert der[0] == ref_der[0] == 0
        else:
            assert der[0] != 0 and abs(der[0] - ref_der[0]) <= 16 * np.finfo(float).eps * order * abs(ref_der[0])
        assert np.isfinite(der[1])


class TestFiberSolve:
    def test_square_fiber(self):
        B = FiniteBlaschkeProduct.monomial(2)
        assert B.fiber_solve(0.25) == [pytest.approx(-0.5), pytest.approx(0.5)]

    def test_order_one_fiber_is_automorphism_image(self):
        a = 0.4 - 0.2j
        B = FiniteBlaschkeProduct(1.0, (a,))
        c = 0.3 + 0.3j
        (w,) = B.fiber_solve(c)
        T = DiscAutomorphism(a, 1.0)
        assert abs(w - automorphism_eval(T, c)) <= 1e-12  # T_a is an involution

    def test_random_fibers_reevaluate(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            B = random_product(rng, 3, 0.8)
            c = rand_disc(rng, 0.7)
            sols = B.fiber_solve(c)
            assert len(sols) == 3
            for w in sols:
                assert abs(w) < 1.0
                assert abs(B.eval(w) - c) <= 1e-8

    def test_rejects_exterior_value(self):
        B = FiniteBlaschkeProduct.monomial(2)
        with pytest.raises(ValueError):
            B.fiber_solve(1.5)

    def test_one_element_array_is_the_scalar_fiber(self):
        B = random_product(np.random.default_rng(10), 6, 0.9)
        for c in (0.3, 0.9j, complex(B.eval(0.1))):
            assert B.fiber_solve(np.array([c])) == [B.fiber_solve(c)]

    def test_array_of_targets_matches_scalar_calls(self, monkeypatch):
        # 0 takes the shortcut, B(0) = -0.25 is the critical value of the
        # double root at 0, and only that target's iterates are merged
        merged = []
        merge = polyroots._merge_fiber

        def counted(w, c, *args):
            merged.append(c)
            return merge(w, c, *args)

        monkeypatch.setattr(polyroots, "_merge_fiber", counted)
        B = FiniteBlaschkeProduct(1.0, (0.5, -0.5))
        targets = [0.0, 0.3 + 0.2j, complex(B.eval(0.0))]
        fibers = B.fiber_solve(np.array(targets))
        assert merged == [-0.25]
        assert fibers[2] == [0j, 0j]
        for c, fiber in zip(targets, fibers):
            want = B.fiber_solve(c)
            assert len(fiber) == len(want) == 2
            assert max(abs(v - u) for v, u in zip(fiber, want)) <= 1e-14

    @staticmethod
    def _peak_of_batch():
        """tracemalloc peak of the fibers of 200 targets under one order-64
        product."""
        rng = np.random.default_rng(200)
        B = random_product(rng, 64, 0.9)
        targets = 0.8 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fibers = B.fiber_solve(targets)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(fibers) == 200
        return peak

    def test_memory_of_a_batch(self):
        # the first sweep couples 12,800 roots within their rows of 64, about
        # 40 MB of (roots x roots) arrays; an unblocked (roots x zeros) pass
        # for B, B' and Q'/Q would add about 28 MB more
        assert self._peak_of_batch() <= 48e6

    def test_memory_of_a_batch_with_blocked_coupling(self):
        # the coupling and the rounding links run in blocks of at most _BLOCK
        # (roots x row) entries, so the batch peaks at about 3.5 MB; unblocked
        # coupling took 41 MB, and unblocked links' (targets x 64 x 64) arrays 20 MB
        assert self._peak_of_batch() <= 8e6

    @pytest.mark.parametrize("radii", [(0.5,), (0.8,), (0.5, 0.8)])
    def test_triple_point_at_the_origin_is_exactly_zero(self, radii):
        # B depends on z^3, so B(0) is a triple point of its fiber; the three
        # iterates land about 1e-6 from 0 and their group snaps to exactly 0
        zeros = tuple(r * np.exp(2j * np.pi * k / 3) for r in radii for k in range(3))
        B = FiniteBlaschkeProduct(1.0, zeros)
        fiber = B.fiber_solve(B.eval(0j))
        assert [w for w in fiber if abs(w) < 0.1] == [0j, 0j, 0j]

    def test_merge_failure_names_its_target(self, monkeypatch):
        # only the refinement of target 1's double root at 0 runs Newton on S
        newton = polyroots._critical_newton

        def stuck(*args):
            step, size, _ = newton(*args)
            return step, size, -1.0

        monkeypatch.setattr(polyroots, "_critical_newton", stuck)
        B = FiniteBlaschkeProduct(1.0, (0.5, -0.5))
        with pytest.raises(NonConvergenceError, match=r"^1 of 1 roots unresolved .* \(targets 1\)$"):
            B.fiber_solve(np.array([0.3 + 0.2j, complex(B.eval(0.0))]))

    def test_non_convergence_names_the_targets(self, monkeypatch):
        # target 0 takes the shortcut, so the run's rows 0 and 1 are targets 1 and 2
        B = random_product(np.random.default_rng(12), 5, 0.9)
        monkeypatch.setattr(polyroots, "_MAX_SWEEPS", 1)
        with pytest.raises(NonConvergenceError, match=r"\(targets 1, 2\)$"):
            B.fiber_solve(np.array([0.0, 0.3, 0.5j]))

    @pytest.mark.parametrize("bad", [NAN, complex(0.0, NAN), INF, 1.0, 0.6 + 0.8j, 1.5j])
    def test_array_rejects_a_bad_target(self, bad):
        B = FiniteBlaschkeProduct(1.0, (0.5, -0.3j))
        with pytest.raises(ValueError):
            B.fiber_solve(np.array([0.2, bad, 0.1j]))


class TestConjugateBy:
    def test_identity_conjugation_is_noop(self):
        B = FiniteBlaschkeProduct(np.exp(0.9j), (0.3, -0.2 + 0.4j))
        ident = DiscAutomorphism(0.0, -1.0)
        f = B.conjugate_by(ident, ident)
        assert abs(f.gamma - B.gamma) <= 1e-12
        got = sorted(f.zeros, key=lambda z: (z.real, z.imag))
        want = sorted(B.zeros, key=lambda z: (z.real, z.imag))
        assert max(abs(u - v) for u, v in zip(got, want)) <= 1e-12

    def test_zero_transport_under_precomposition(self):
        # zeros of B o T_{a,gamma} are T_a(conj(gamma) z_k)
        B = FiniteBlaschkeProduct(np.exp(0.7j), (0.3 + 0.2j, -0.1 + 0.4j, 0.5))
        a, g = 0.3 - 0.25j, np.exp(1.1j)
        f = B.conjugate_by(DiscAutomorphism(a, g), DiscAutomorphism(0.0, -1.0))
        Ta = DiscAutomorphism(a, 1.0)
        want = sorted(
            (complex(automorphism_eval(Ta, np.conj(g) * z)) for z in B.zeros),
            key=lambda z: (z.real, z.imag),
        )
        got = sorted(f.zeros, key=lambda z: (z.real, z.imag))
        assert max(abs(u - v) for u, v in zip(got, want)) <= 1e-10

    def test_pointwise_agreement(self):
        rng = np.random.default_rng(9)
        B = random_product(rng, 4, 0.7)
        inner = DiscAutomorphism(0.2 + 0.3j, np.exp(0.5j))
        outer = DiscAutomorphism(-0.4 + 0.1j, np.exp(-1.3j))
        f = B.conjugate_by(inner, outer)
        assert f.order == B.order
        for _ in range(50):
            z = rand_disc(rng, 0.9)
            nested = automorphism_eval(outer, B.eval(automorphism_eval(inner, z)))
            assert abs(f.eval(z) - nested) <= 1e-10


_B = FiniteBlaschkeProduct(1.0, (0.5, -0.3j))
_HULL = hyperbolic_convex_hull([0.1, 0.2j, -0.3])


@pytest.mark.parametrize(
    "call",
    [
        lambda: FiniteBlaschkeProduct(1.0, (0.5, NAN)),
        lambda: FiniteBlaschkeProduct(1.0, (complex(0.0, NAN),)),
        lambda: _B.fiber_solve(NAN),
        lambda: DiscAutomorphism(NAN, 1.0),
        lambda: poincare_to_klein(NAN),
        lambda: klein_to_poincare(NAN),
        lambda: hyperbolic_convex_hull([0.1, NAN]),
        lambda: hull_contains(_HULL, NAN, 1e-8),
        lambda: hull_contains(_HULL, 0.9, NAN),
        lambda: fatou_quotient(_B, NAN),
        lambda: valence(_B, NAN, 0.9),
        lambda: pseudo_hyperbolic_distance(0.1, NAN),
        lambda: collinearity_residual(0.1, 0.2j, NAN),
        lambda: geodesic_point(0.1, 0.5j, t=NAN),
    ],
    ids=[
        "zero", "imaginary-zero", "fiber-value", "automorphism",
        "poincare-to-klein", "klein-to-poincare", "hull-input",
        "hull-member", "hull-tolerance", "fatou-quotient", "valence-target",
        "pseudo-hyperbolic-distance", "collinearity", "geodesic-parameter",
    ],
)
def test_nan_is_not_inside_the_disc(call):
    with pytest.raises(ValueError):
        call()


_T = DiscAutomorphism(0.5, 1.0)


@pytest.mark.parametrize(
    "call",
    [_B.eval, _B.derivative, _B.log_derivative, _B.boundary_derivative_modulus,
     lambda z: automorphism_eval(_T, z)],
    ids=["eval", "derivative", "log-derivative", "boundary-derivative-modulus", "automorphism-eval"],
)
@pytest.mark.parametrize(
    "points",
    [NAN, complex(NAN, 0.1), INF, complex(0.1, -INF), np.array([0.1, NAN]), np.array([[0.2j, INF]])],
    ids=["nan", "nan-real-part", "inf", "inf-imaginary-part", "array-nan", "array-inf"],
)
def test_non_finite_points_raise_value_error(call, points):
    # a typed error, not NaN out and a RuntimeWarning
    with pytest.raises(ValueError):
        call(points)
