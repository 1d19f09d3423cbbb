import decimal
import math
import re

import numpy as np
import pytest

from blaschkelab import (
    BoundaryProximityError,
    ContourThroughFiberError,
    FiniteBlaschkeProduct,
    InvalidAnnulusError,
    NonConvergenceError,
    PoleProximityError,
    SequenceSpec,
    convergence_experiment,
    counterexample_run,
    default_valence_radius,
    density_family,
    density_family3,
    derivative_at_zero_identity,
    fatou_limit_scan,
    fatou_quotient,
    hull_contains,
    hyperbolic_convex_hull,
    random_product,
    renormalized_conjugate,
    rotation_constant,
    separation_estimate,
    valence,
)
from blaschkelab import blaschke, lab, polyroots


def rand_disc(rng, radius=0.8):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


class TestSequenceSpec:
    @pytest.mark.parametrize("mode", ["radial", "spiral", "alternating"])
    def test_products_converge_to_gamma0(self, mode):
        g0 = np.exp(0.4j)
        spec = SequenceSpec(g0, mode, 0.5, 20)
        terms = spec.terms()
        assert len(terms) == 20
        for a, g in terms:
            assert abs(a) < 1.0
            assert abs(abs(g) - 1.0) <= 1e-15
        assert abs(terms[-1][0] * terms[-1][1] - g0) <= 2 * 0.5 ** 20

    def test_alternating_signs(self):
        spec = SequenceSpec(1.0, "alternating", 0.5, 6)
        gs = [g for _, g in spec.terms()]
        assert gs == [(-1) ** k + 0j for k in range(1, 7)]

    def test_rejects_bad_mode_and_rate(self):
        with pytest.raises(ValueError):
            SequenceSpec(1.0, "linear", 0.5, 10)
        with pytest.raises(ValueError):
            SequenceSpec(1.0, "radial", 1.5, 10)


class TestRenormalizedConjugate:
    def test_order_one_fixes_origin(self):
        B = FiniteBlaschkeProduct(np.exp(0.2j), (0.4,))
        f = renormalized_conjugate(B, 0.6, np.exp(0.9j))
        assert f.order == 1
        assert f.zeros == (pytest.approx(0j, abs=1e-10),)

    def test_square_derivative_value(self):
        # for B = z^2, a = 0.9: f'(0) = (1 - 0.81)/(1 - 0.81^2) * 2 * 0.9
        B = FiniteBlaschkeProduct.monomial(2)
        f = renormalized_conjugate(B, 0.9, 1.0)
        assert abs(f.eval(0.0)) <= 1e-10
        expected = (1 - 0.81) / (1 - 0.81 ** 2) * 1.8
        assert f.derivative(0.0) == pytest.approx(expected, abs=1e-10)

    def test_remaining_zeros_drift_to_circle(self):
        B = FiniteBlaschkeProduct.monomial(2)
        moduli = []
        for k in (2, 4, 6):
            a = 1 - 0.5 ** k
            f = renormalized_conjugate(B, a, 1.0)
            others = [abs(z) for z in f.zeros if abs(z) > 1e-6]
            assert len(others) == 1
            moduli.append(others[0])
        assert moduli == sorted(moduli)
        assert moduli[-1] > 0.99


class TestDerivativeAtZeroIdentity:
    def test_automorphism_is_schwarz_pick_equality(self):
        B = FiniteBlaschkeProduct(np.exp(1.4j), (0.3 + 0.3j,))
        lhs, rhs = derivative_at_zero_identity(B, 0.5, np.exp(0.3j))
        assert abs(abs(lhs) - 1.0) <= 1e-12
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))

    def test_square_at_origin(self):
        B = FiniteBlaschkeProduct.monomial(2)
        lhs, rhs = derivative_at_zero_identity(B, 0.0, 1.0)
        assert rhs == pytest.approx(0.0, abs=1e-15)
        assert abs(lhs) <= 1e-10

    def test_random_case(self):
        rng = np.random.default_rng(55)
        B = random_product(rng, 3, 0.7)
        lhs, rhs = derivative_at_zero_identity(B, 0.7j, np.exp(1j))
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


class TestConvergenceExperiment:
    def test_square_radial_decreases_below_tolerance(self):
        B = FiniteBlaschkeProduct.monomial(2)
        recs = convergence_experiment(B, SequenceSpec(1.0, "radial", 0.5, 12), 0.5)
        devs = [r.sup_deviation for r in recs]
        assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
        assert devs[-1] < 1e-6
        assert recs[0].rotation_constant == pytest.approx(1.0)

    def test_rotation_constant_matches_independent_recompute(self):
        rng = np.random.default_rng(2)
        B = random_product(rng, 3, 0.6)
        g0 = np.exp(0.8j)
        recs = convergence_experiment(B, SequenceSpec(g0, "spiral", 0.4, 8), 0.9)
        rot = B.log_derivative(g0) * B.eval(g0)
        rot /= abs(rot)
        assert abs(recs[-1].rotation_constant - rot) <= 1e-12

    def test_order_one_deviation_tends_to_zero(self):
        B = FiniteBlaschkeProduct(np.exp(0.4j), (0.2 + 0.3j,))
        recs = convergence_experiment(B, SequenceSpec(np.exp(0.7j), "radial", 0.4, 14), 0.5)
        devs = [r.sup_deviation for r in recs]
        assert all(d1 > d2 for d1, d2 in zip(devs, devs[1:]))
        assert devs[-1] < 1e-5

    def test_radius_validated(self):
        B = FiniteBlaschkeProduct.monomial(2)
        with pytest.raises(ValueError):
            convergence_experiment(B, SequenceSpec(1.0, "radial", 0.5, 4), 0.97)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_circle_sup_is_the_grid_sup(self, seed):
        # the converge suite's draws: the sup on |z| = r is never above the sup over the
        # 24 x 96 polar grid, whose outer ring it is, and short of it at most by the
        # suite's noise floor 16 eps/(1 - |a_k|)
        rng = np.random.default_rng(np.random.PCG64(seed))
        cases = [(FiniteBlaschkeProduct.monomial(2), 1.0 + 0j, 0.45)]
        for _ in range(10):
            order = int(rng.integers(2, 6))
            cases.append((random_product(rng, order, 0.6), np.exp(2j * np.pi * rng.uniform()), 0.33))
        grid = lab._polar_grid(0.9, 24)
        for B, g0, rate in cases:
            for mode in ("radial", "spiral"):
                spec = SequenceSpec(g0, mode, rate, 14)
                recs = convergence_experiment(B, spec, 0.9)
                rz = recs[0].rotation_constant * grid
                for rec, vals in zip(recs, lab._conjugates(B, spec.terms(), grid)):
                    sup = float(np.max(np.abs(vals - rz)))
                    floor = 16.0 * np.finfo(float).eps / (1.0 - abs(rec.a))
                    assert sup - floor <= rec.sup_deviation <= sup

    def test_sequences_longer_than_one_block(self):
        # 96 points a term make blocks of 85 terms: 90 terms take two, and each record is
        # its term's conjugate alone up to the rounding floor 16 eps/(1 - |a_k|)
        B = FiniteBlaschkeProduct(np.exp(0.4j), (0.2 + 0.3j, -0.5j, 0.1))
        spec = SequenceSpec(np.exp(0.7j), "spiral", 0.75, 90)
        recs = convergence_experiment(B, spec, 0.9)
        assert [r.k for r in recs] == list(range(1, 91))
        pts = 0.9 * np.exp(1j * (2.0 * np.pi * np.arange(96) / 96))
        rz = recs[0].rotation_constant * pts
        for rec, term in zip(recs, spec.terms()):
            alone = float(np.max(np.abs(lab._conjugates(B, [term], pts)[0] - rz)))
            assert abs(rec.sup_deviation - alone) <= 16.0 * np.finfo(float).eps / (1.0 - abs(rec.a))

    @pytest.mark.parametrize("gamma0", [0, 0j, math.nan, math.inf, complex(math.inf, 1.0)])
    def test_rotation_constant_refuses_a_zero_or_non_finite_gamma0(self, gamma0):
        with pytest.raises(ValueError, match="nonzero finite"):
            rotation_constant(FiniteBlaschkeProduct.monomial(2), gamma0)


class TestCounterexample:
    def test_unrenormalized_splits_and_renormalized_converges(self):
        res = counterexample_run(16)
        assert res.even_limit_deviation < 1e-6
        assert res.odd_limit_deviation < 1e-6
        assert res.unrenormalized_oscillation > 1.0
        assert res.renormalized_deviation < 1e-6

    def test_iterates_match_closed_forms(self):
        # for B = z^2 the un-renormalized conjugates have closed forms:
        # even (a = r):  z (2r - (1+r^2) z) / ((1+r^2) - 2 r z)
        # odd  (a = -r): -z (2r + (1+r^2) z) / ((1+r^2) + 2 r z)
        B = FiniteBlaschkeProduct.monomial(2)
        rate = 0.35
        pts = np.array([0.3 + 0.1j, -0.25j, 0.45])
        for k in (4, 7):
            r = 1 - rate ** k
            sign = (-1) ** k
            a = r * sign
            vals = lab._conjugates(B, [(a, complex(sign))], pts, renormalize=False)[0]
            if k % 2 == 0:
                want = pts * (2 * r - (1 + r * r) * pts) / ((1 + r * r) - 2 * r * pts)
            else:
                want = -pts * (2 * r + (1 + r * r) * pts) / ((1 + r * r) + 2 * r * pts)
            assert np.max(np.abs(vals - want)) <= 1e-12

    def test_count_validated(self):
        with pytest.raises(ValueError):
            counterexample_run(3)

    def test_last_term(self, monkeypatch):
        # up to term 31 the outer automorphism's denominator stays above
        # moebius.POLE_TOL on |z| <= 0.75; term 32 is refused before any evaluation
        assert counterexample_run(31).unrenormalized_oscillation > 1.0
        monkeypatch.setattr(lab, "_conjugates", None)
        with pytest.raises(ValueError, match="at most 31"):
            counterexample_run(32)


class TestConjugates:
    """lab._conjugates evaluates T_{c, g} o B o T_{a, gamma} as one product."""

    @staticmethod
    def composition(B, a, gamma, pts, renormalize):
        """f = T_{c, g} o B o T_{a, gamma} on pts to 40 digits, and at each point the scale
        (1 + kappa) sum_j (1 + 1/|1 - conj(w_j) z|) of its rounding: kappa = (1 - |f|^2)/(1 - |B o T|^2)
        is the factor by which the outer map magnifies an error in B o T, and the factor of the
        zero w_j = T^{-1}(z_j) of B o T rounds to relative u/|1 - conj(w_j) z|, up to a constant."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            a, gamma = mpmath.mpc(a), mpmath.mpc(gamma)
            gamma /= abs(gamma)
            zeros = [mpmath.mpc(z) for z in B.zeros]

            def T(z):
                return gamma * (a - z) / (1 - mpmath.conj(a) * z)

            def T_inverse(z):
                return mpmath.conj(gamma) * (gamma * a - z) / (1 - mpmath.conj(gamma * a) * z)

            def product(z):
                v = mpmath.mpc(B.gamma)
                for z_k in zeros:
                    v *= (z_k - z) / (1 - mpmath.conj(z_k) * z)
                return v

            w = [T_inverse(z_k) for z_k in zeros]
            c, g = product(a * gamma), mpmath.conj(gamma) if renormalize else 1
            f, scale = [], []
            for z in map(mpmath.mpc, pts):
                C = product(T(z))
                f.append(g * (c - C) / (1 - mpmath.conj(c) * C))
                kappa = (1 - abs(f[-1]) ** 2) / (1 - abs(C) ** 2)
                scale.append((1 + kappa) * sum(1 + 1 / abs(1 - mpmath.conj(w_j) * z) for w_j in w))
            return np.array([complex(v) for v in f]), np.array([float(x) for x in scale])

    def test_matches_a_40_digit_composition(self):
        # one product of each order 1-16 with zeros up to 0.9, every mode, renormalized or not,
        # terms 1-28 at rate 0.35, on 24 points of the polar grid.  The error is at most C u
        # scale (`composition`) with C = 4 declared; the largest seen on 13 samples of this kind
        # was 2.0, and the composition reached 18 on 7 of them.  For late terms kappa tends to
        # |1 - conj(a_k) z|^2/(|B'(gamma0)| (1 - |a_k|^2)): in units of u/(1 - |a_k|) the error
        # grows as |B'(gamma0)| falls (40 on this sample, where the composition's is 26).
        u, C = 2.0 ** -53, 4.0
        rng = np.random.default_rng(28)
        pts = lab._polar_grid(0.9, 24)[::97]
        worst = 0.0
        for order in range(1, 17):
            B = random_product(rng, order, 0.9)
            mode, renormalize = ("radial", "spiral", "alternating")[order % 3], order % 2 == 0
            spec = SequenceSpec(np.exp(2j * np.pi * rng.uniform()), mode, 0.35, 28)
            terms = [spec.terms()[k - 1] for k in (1, 7, 14, 21, 28)]
            for (a, g), vals in zip(terms, lab._conjugates(B, terms, pts, renormalize)):
                exact, scale = self.composition(B, a, g, pts, renormalize)
                worst = max(worst, float(np.max(np.abs(vals - exact) / (u * scale))))
        assert 0.0 < worst <= C

    def test_rows_match_one_term_calls(self):
        # a row of a call over many terms is that term's call alone, up to rounding: numpy
        # may round an element by its place in the array (fused multiply-adds in its vector
        # loops), so each of the two is within C u scale of the 40-digit value, C = 4 as above
        u, C = 2.0 ** -53, 4.0
        rng = np.random.default_rng(5)
        pts = lab._polar_grid(0.9, 24)[::97]
        for order, mode in ((1, "radial"), (4, "spiral"), (17, "alternating")):
            B = random_product(rng, order, 0.9)
            terms = SequenceSpec(np.exp(2j * np.pi * rng.uniform()), mode, 0.35, 28).terms()
            for renormalize in (True, False):
                rows = lab._conjugates(B, terms, pts, renormalize)
                assert rows.shape == (28, pts.size)
                for k in (0, 13, 27):
                    alone = lab._conjugates(B, terms[k:k + 1], pts, renormalize)
                    assert alone.shape == (1, pts.size)
                    _, scale = self.composition(B, *terms[k], pts, renormalize)
                    assert np.all(np.abs(rows[k] - alone[0]) <= 2.0 * C * u * scale)

    def test_raises_as_the_composition_did(self):
        # the first term that raises, and what: term 32 comes within POLE_TOL of the outer
        # map's pole, at rate 0.1 term 15's a is within 1e-15 of the circle, and on |z| <= 0.5
        # the order-4 product's c = B(a_33 gamma_33) is too
        square = FiniteBlaschkeProduct.monomial(2), 1.0
        quartic = FiniteBlaschkeProduct(np.exp(0.3j), (0.5, -0.3 + 0.4j, 0.2j, -0.6 - 0.1j)), np.exp(0.7j)
        cases = [(square, 0.35, 0.9, 32, PoleProximityError), (square, 0.1, 0.9, 15, ValueError),
                 (quartic, 0.35, 0.9, 32, PoleProximityError), (quartic, 0.35, 0.5, 33, ValueError),
                 (quartic, 0.1, 0.9, 15, ValueError)]
        for (B, g0), rate, r, first, error in cases:
            for mode in ("radial", "spiral", "alternating"):
                for count in range(28, 41) if rate == 0.35 else range(13, 17):
                    spec = SequenceSpec(g0, mode, rate, count)
                    if count < first:
                        assert len(convergence_experiment(B, spec, r)) == count
                    else:
                        with pytest.raises(error):
                            convergence_experiment(B, spec, r)

    def test_points_beyond_the_closed_disc(self):
        # points may pass the circle by 1e-9, as long as B o T does too: at 1 + 5e-10, next to
        # a_3 = 0.957, it is 1 + 4.6e-8
        B, terms = FiniteBlaschkeProduct.monomial(2), SequenceSpec(1.0, "radial", 0.35, 3).terms()
        inside = np.array([0.3, -1.0 - 5e-10, 1j * (1.0 + 5e-10)])
        assert all(np.all(np.isfinite(v)) for v in lab._conjugates(B, terms, inside))
        for outside in (1.0 + 5e-10, 1.0 + 2e-9, 2j, np.nan):
            with pytest.raises(ValueError):
                lab._conjugates(B, terms, np.array([0.3, outside]))


class TestFatou:
    def test_automorphism_equality(self):
        B = FiniteBlaschkeProduct(np.exp(0.3j), (0.5 - 0.1j,))
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rand_disc(rng, 0.95)
            assert fatou_quotient(B, z) == pytest.approx(1.0, abs=1e-12)

    def test_square_at_origin(self):
        assert fatou_quotient(FiniteBlaschkeProduct.monomial(2), 0.0) == 0.0

    def test_square_on_radius(self):
        B = FiniteBlaschkeProduct.monomial(2)
        r = 0.99
        # hand simplification of (1-r^2) 2r / (1-r^4)
        assert fatou_quotient(B, r) == pytest.approx(2 * r / (1 + r * r), abs=1e-12)

    def test_scan_of_square_matches_formula(self):
        B = FiniteBlaschkeProduct.monomial(2)
        scan = fatou_limit_scan(B, [0.5, 0.9, 0.99], 64)
        for r, q in scan:
            assert q == pytest.approx(2 * r / (1 + r * r), abs=1e-12)

    def test_random_scan_tail_monotone_toward_one(self):
        rng = np.random.default_rng(44)
        B = random_product(rng, 4, 0.7)
        scan = fatou_limit_scan(B, [0.9, 0.99, 0.999, 1 - 1e-4], 128)
        minima = [q for _, q in scan]
        assert all(q1 <= q2 + 1e-12 for q1, q2 in zip(minima, minima[1:]))
        assert abs(1 - minima[-1]) < 1e-3

    def test_radii_validated(self):
        B = FiniteBlaschkeProduct.monomial(2)
        with pytest.raises(ValueError):
            fatou_limit_scan(B, [0.9, 0.5], 16)

    def test_array_matches_scalar_calls(self):
        # one vector pass against numpy scalars: the two round B apart by a few u per
        # zero, and 1 - |B|^2 magnifies that by q/(1 - |B|^2)
        u = 2.0 ** -53
        rng = np.random.default_rng(9)
        for order in (1, 2, 5, 9, 16):
            B = random_product(rng, order, 0.9)
            zs = 0.97 * np.sqrt(rng.uniform(size=200)) * np.exp(2j * np.pi * rng.uniform(size=200))
            q = fatou_quotient(B, zs)
            assert isinstance(q, np.ndarray) and q.shape == zs.shape
            scalar = np.array([fatou_quotient(B, complex(z)) for z in zs])
            scale = scalar / (1.0 - np.abs(B.eval(zs)) ** 2)
            assert np.all(np.abs(q - scalar) <= 16.0 * (1 + order) * u * scale)
        assert fatou_quotient(B, [0.1, 0.2j]).shape == (2,)
        assert isinstance(fatou_quotient(B, np.array(0.3j)), float)

    @pytest.mark.parametrize("outside", [1.0, -1.5j, complex(0.6, 0.8), math.nan])
    def test_array_refuses_a_point_outside(self, outside):
        with pytest.raises(ValueError, match="interior points only"):
            fatou_quotient(FiniteBlaschkeProduct.monomial(2), np.array([0.1, 0.5j, outside, 0.2]))

    def test_quotient_at_the_circle_raises(self):
        # B = z: |B| = |z| rounds to within 1e-13 of 1 at 1 - 1e-14, and is 1 - 1e-12 at
        # 1 - 1e-12, where the quotient is still 1
        B = FiniteBlaschkeProduct.monomial(1)
        near = 1.0 - 1e-14
        with pytest.raises(BoundaryProximityError):
            fatou_quotient(B, near)
        with pytest.raises(BoundaryProximityError):
            fatou_quotient(B, np.array([0.5, 0.3j, near * 1j]))
        assert fatou_quotient(B, 1.0 - 1e-12) == pytest.approx(1.0, abs=1e-9)
        assert fatou_quotient(B, np.array([0.5, 1.0 - 1e-12])) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_scan_names_the_first_radius_at_the_circle(self):
        B = random_product(np.random.default_rng(44), 4, 0.7)
        for radii, first in (([0.5, 1 - 1e-15], 1 - 1e-15), ([0.5, 0.9, 1 - 1e-14, 1 - 1e-15], 1 - 1e-14)):
            with pytest.raises(BoundaryProximityError, match=re.escape(f"at radius {first}") + "$"):
                fatou_limit_scan(B, radii, 64)
        assert len(fatou_limit_scan(B, [0.5, 0.9], 64)) == 2


class TestValence:
    def test_monomial(self):
        for n in (1, 2, 4):
            B = FiniteBlaschkeProduct.monomial(n)
            rep = valence(B, 0.1, 0.9, 2048)
            assert rep.valence == n
            assert rep.residual <= 0.05

    def test_automorphism_everywhere_one(self):
        B = FiniteBlaschkeProduct(1.0, (0.3 + 0.2j,))
        w = -0.2 + 0.4j
        rep = valence(B, w, default_valence_radius(B, w), 1024)
        assert rep.valence == 1

    def test_matches_fiber_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            B = random_product(rng, 3, 0.8)
            w = rand_disc(rng, 0.5)
            radius = default_valence_radius(B, w)
            rep = valence(B, w, radius, 4096)
            inside = sum(1 for v in B.fiber_solve(w) if abs(v) < radius)
            assert rep.valence == inside == 3

    def test_given_fiber_gives_the_same_radius(self):
        B = random_product(np.random.default_rng(78), 4, 0.8)
        w = 0.3 - 0.2j
        assert default_valence_radius(B, w, B.fiber_solve(w)) == default_valence_radius(B, w)

    def test_solver_failure_is_raised_not_replaced(self, monkeypatch):
        # no substitute radius: 1 - 1e-3 need not enclose the fiber
        B = random_product(np.random.default_rng(78), 4, 0.8)
        monkeypatch.setattr(polyroots, "_MAX_SWEEPS", 1)
        with pytest.raises(NonConvergenceError, match=r"\(targets 0\)"):
            default_valence_radius(B, 0.3 - 0.2j)

    def test_counts_next_to_a_fiber_point_near_the_circle(self):
        # the one fiber point 0.999 lies 1e-4 to 5e-4 inside the contours and
        # 1e-4 outside the last; the trapezoid sum counted 3 at 0.9991 and
        # did not settle at 0.9993
        B = FiniteBlaschkeProduct.monomial(1)
        for radius in (0.9991, 0.9993, 0.9995):
            assert valence(B, 0.999, radius, 4096).valence == 1
        assert valence(B, 0.999, 0.9989, 4096).valence == 0

    def test_aliased_count_near_the_circle(self):
        B = FiniteBlaschkeProduct.monomial(1)
        assert valence(B, 0.999, 0.9991, 4096).valence == 1

    def test_targets_near_the_circle_count_the_order(self):
        # 150 products of orders 2-16 at |w| = 0.99 on the default radius:
        # the trapezoid sum raised on 105 of them
        rng = np.random.default_rng(11)
        for _ in range(150):
            order = int(rng.integers(2, 17))
            B = random_product(rng, order, 0.9)
            w = 0.99 * np.exp(2j * np.pi * rng.uniform())
            assert valence(B, w, default_valence_radius(B, w)).valence == order

    def test_small_circles_around_a_multiple_zero(self):
        # |B| = r^8 on the contour: the bound from B'/B certifies it where the
        # global bound on |B'| would need about 1e12 arcs; at r = 1e-100, B
        # underflows and is within rounding of 0
        B = FiniteBlaschkeProduct.monomial(8)
        assert valence(B, 0.0, 0.03).valence == 8
        with pytest.raises(ContourThroughFiberError):
            valence(B, 0.0, 1e-100)

    def test_samples_must_be_an_integer(self):
        # 16.5 arcs would be counted on 17 unequal ones
        B = random_product(np.random.default_rng(79), 3, 0.8)
        with pytest.raises(TypeError):
            valence(B, 0.1, 0.9, 16.5)
        assert valence(B, 0.1, 0.9, np.int64(16)).valence == valence(B, 0.1, 0.9, 16).valence

    @pytest.mark.xfail(raises=ContourThroughFiberError, strict=True,
                       reason="the rounding bound of _winding is absolute, and |B| = r^8 "
                              "falls below it although B is evaluated to full relative accuracy")
    @pytest.mark.parametrize("r", [0.01, 0.001])
    def test_smaller_circles_around_a_multiple_zero(self, r):
        assert valence(FiniteBlaschkeProduct.monomial(8), 0.0, r).valence == 8

    def test_refines_a_flat_contour_in_blocks(self, monkeypatch):
        # B - B(0) = c z^4 near 0 for zeros equally spaced on |z| = 0.5, so
        # |B - w| is about 1e-6 on |z| = 0.03 and the count takes 65,536 arcs;
        # no pass evaluates more than one block of them
        B = FiniteBlaschkeProduct(1.0, tuple(0.5 * np.exp(0.5j * np.pi * np.arange(4))))
        w = B.eval(0.0)
        sizes = []
        real = FiniteBlaschkeProduct._eval

        def recorded(self, zz):
            sizes.append(zz.size)
            return real(self, zz)

        monkeypatch.setattr(FiniteBlaschkeProduct, "_eval", recorded)
        assert valence(B, w, 0.03).valence == 4
        assert sum(sizes) >= 8 * polyroots._BLOCK and max(sizes) <= polyroots._BLOCK

    def test_noise_bounds_the_rounding_at_the_nodes(self):
        # |computed B - w - exact| at 512 contour nodes of 50 products of
        # orders 1-64, half of them with zeros at 0, at 1e-300 or under
        # 1/_FAR, where factors keep 1 - conj(a_k) z, and some with a zero at
        # 1 - 1e-7, which halves the chunks.  Exact: the nodes to 40
        # digits from mpmath, and the product in 40-digit decimal arithmetic
        # from the exact values of the floats (mpmath over these 400,000
        # factors would take a minute)
        mpmath = pytest.importorskip("mpmath")
        dec = np.vectorize(decimal.Decimal, otypes=[object])
        with mpmath.workdps(40):
            turns = [mpmath.expjpi(mpmath.mpf(2 * j) / 512) for j in range(512)]
            cos, sin = dec([str(x.real) for x in turns]), dec([str(x.imag) for x in turns])
        lo = 2.0 * np.pi * np.arange(512) / 512
        rng = np.random.default_rng(512)
        orders = [1, 64] + [int(2.0 ** rng.uniform(0, 6)) for _ in range(48)]
        worst = 0.0
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            for k, order in enumerate(orders):
                zeros = list(random_product(rng, order, 0.95).zeros)
                if k % 2:
                    for place in rng.choice(order, size=min(order, 3), replace=False):
                        zeros[place] = complex(rng.choice([0.0, 1e-300, rng.uniform(0, 1) / blaschke._FAR]))
                elif k % 3 == 0:  # chunks of half the size
                    zeros[0] = (1.0 - 1e-7) * np.exp(2j * np.pi * rng.uniform())
                B = FiniteBlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), tuple(zeros))
                r = rng.uniform(0.05, 0.99)
                w = 0.99 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                f = B._eval(r * np.exp(1j * lo)) - w
                # gamma N/D - w, N = prod (a - z), D = prod (1 - conj(a) z)
                zr, zi = decimal.Decimal(r) * cos, decimal.Decimal(r) * sin
                nr, ni = decimal.Decimal(B.gamma.real), decimal.Decimal(B.gamma.imag)
                dr, di = decimal.Decimal(1), decimal.Decimal(0)
                for a in B.zeros:
                    ar, ai = decimal.Decimal(a.real), decimal.Decimal(a.imag)
                    er, ei = ar - zr, ai - zi
                    qr, qi = 1 - ar * zr - ai * zi, ai * zr - ar * zi
                    nr, ni, dr, di = nr * er - ni * ei, nr * ei + ni * er, dr * qr - di * qi, dr * qi + di * qr
                size = dr * dr + di * di
                exact_r = (nr * dr + ni * di) / size - decimal.Decimal(w.real)
                exact_i = (ni * dr - nr * di) / size - decimal.Decimal(w.imag)
                err = np.hypot((dec(f.real) - exact_r).astype(float), (dec(f.imag) - exact_i).astype(float))
                mods = np.abs(np.array(B.zeros))
                q = 1.0 - mods * r
                noise = lab._noise(q, r * float(np.sum((1.0 - mods * mods) / q ** 2)),
                                   len(B._chunks[blaschke._CHUNK]))
                worst = max(worst, float(np.max(err)) / noise)
        assert 0.0 < worst <= 1.0

    def test_invariants(self):
        B = FiniteBlaschkeProduct.monomial(3)
        rep = valence(B, 0.2 + 0.1j, 0.95, 2048)
        assert rep.residual == abs(rep.winding_integral - rep.valence)
        assert rep.residual <= 0.05

    def test_contour_through_fiber_rejected(self):
        from blaschkelab import ContourThroughFiberError

        # the fiber of 0.25 under z^2 sits exactly on |z| = 0.5
        B = FiniteBlaschkeProduct.monomial(2)
        with pytest.raises(ContourThroughFiberError):
            valence(B, 0.25, 0.5, 1024)


class TestSeparation:
    def test_square_antipodal_fibers(self):
        B = FiniteBlaschkeProduct.monomial(2)
        est = separation_estimate(B, 0.8, 32)
        assert est.delta >= 1.6 - 1e-9
        w1, w2 = est.witness_pair
        assert abs(B.eval(w1) - B.eval(w2)) <= 1e-10

    def test_order_one_sentinel(self):
        B = FiniteBlaschkeProduct(1.0, (0.3,))
        est = separation_estimate(B, 0.5, 8)
        assert est.delta == math.inf
        assert est.witness_pair is None

    def test_random_products_have_positive_delta(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            B = random_product(rng, 4, 0.8)
            M = max(abs(z) for z in B.zeros) + 0.05
            est = separation_estimate(B, M, 24)
            assert est.delta > 0
            w1, w2 = est.witness_pair
            assert abs(B.eval(w1) - B.eval(w2)) <= 1e-8
            for w in (w1, w2):
                assert M * (1 - 1e-9) <= abs(w) <= (1 / M) * (1 + 1e-9)

    def test_invalid_annulus(self):
        B = FiniteBlaschkeProduct(1.0, (0.5,))
        with pytest.raises(InvalidAnnulusError):
            separation_estimate(B, 0.4, 8)

    def test_all_fibers_in_one_solve(self, monkeypatch):
        # the base points' fibers share one Aberth run, not one run each
        calls = []
        solve = blaschke.fiber_sets

        def counted(products, targets):
            calls.append([np.shape(c) for c in targets])
            return solve(products, targets)

        monkeypatch.setattr(blaschke, "fiber_sets", counted)
        B = random_product(np.random.default_rng(4), 5, 0.8)
        est = separation_estimate(B, max(abs(z) for z in B.zeros) + 0.05, 32)
        assert est.delta > 0
        assert calls == [[(32,)]]

    @staticmethod
    def loop_scan(fibers, M):
        """The pair scan as a loop: (delta, witness pair) over the kept points
        of each fiber and their reflections, the first pair at the least
        distance in loop order."""
        best, witness = math.inf, None
        for fiber in fibers:
            kept = [v for v in fiber if abs(v) >= M * (1.0 - 1e-12)]
            reflected = [1.0 / np.conj(v) for v in kept]
            for group in (kept, reflected):
                for s in range(len(group)):
                    for t in range(s + 1, len(group)):
                        d = abs(group[s] - group[t])
                        if d < best:
                            best, witness = d, (group[s], group[t])
        return best, witness

    def test_pair_scan_matches_the_loop(self):
        # 50 random products of orders 2-16, z^2 (whose antipodal pairs all
        # tie) and an order-1 product (no pairs)
        rng = np.random.default_rng(50)
        cases = [(FiniteBlaschkeProduct.monomial(2), 0.8), (FiniteBlaschkeProduct(1.0, (0.3,)), 0.5)]
        for _ in range(50):
            B = random_product(rng, int(rng.integers(2, 17)), 0.9)
            cases.append((B, max(abs(z) for z in B.zeros) + 0.05))
        for B, M in cases:
            fibers = B.fiber_solve(lab._separation_targets(B, M, 32))
            delta, witness = self.loop_scan(fibers, M)
            est = lab._separation_scan(fibers, M, 32)
            assert est.witness_pair == witness
            assert est.delta == delta or abs(est.delta - delta) <= np.spacing(delta)
            if B.order == 1:
                assert est.delta == math.inf and est.witness_pair is None


class TestDensityFamilies:
    def test_all_pairs_in_one_solve(self, monkeypatch):
        import blaschkelab.lab as lab

        calls = []
        real = lab.critical_sets

        def counted(products):
            calls.append(len(products))
            return real(products)

        monkeypatch.setattr(lab, "critical_sets", counted)
        out = density_family(0.5, -0.3 + 0.2j, [(m, n) for m in range(1, 5) for n in range(1, 5)])
        assert len(out) == 16
        assert calls == [16]

    def test_symmetric_midpoint(self):
        ((c, res),) = density_family(0.5, -0.5, [(1, 1)])
        assert abs(c) <= 1e-12
        assert res <= 1e-12

    def test_swapped_exponents_are_mirror_images(self):
        (c21, _), (c12, _) = density_family(0.5, -0.5, [(2, 1), (1, 2)])
        assert abs(c21.imag) <= 1e-10 and abs(c12.imag) <= 1e-10
        assert c21.real == pytest.approx(-c12.real, abs=1e-10)
        # quadratic oracle for (m, n) = (2, 1)
        a, b, m, n = 0.5, -0.5, 2, 1
        quad = np.polynomial.polynomial.polyadd(
            m * (1 - a * a) * np.convolve([1, -b], [-b, 1]),
            n * (1 - b * b) * np.convolve([1, -a], [-a, 1]),
        )
        (want,) = [r for r in np.roots(quad[::-1]) if abs(r) < 1]
        assert abs(c21 - want) <= 1e-10

    def test_sweep_residuals_and_betweenness(self):
        a, b = 0.4j, 0.6
        hull = hyperbolic_convex_hull([a, b])
        out = density_family(a, b, [(m, n) for m in range(1, 7) for n in range(1, 7)])
        for c, res in out:
            assert res < 1e-8
            assert hull_contains(hull, c, 1e-8)

    def test_rejects_coincident_bases(self):
        with pytest.raises(ValueError):
            density_family(0.5, 0.5, [(1, 1)])

    def test_three_factor_symmetric_triple(self):
        # zeros at the scaled cube roots of unity make B a Mobius image of
        # z**3, so the critical set is rotation-symmetric (here: 0 twice)
        r = 0.5
        pts = [r, r * np.exp(2j * np.pi / 3), r * np.exp(4j * np.pi / 3)]
        out = density_family3(*pts, (1, 1, 1))
        assert all(inh for _, inh in out)
        crits = [p for p, _ in out]
        for p in crits:
            rotated = p * np.exp(2j * np.pi / 3)
            assert min(abs(rotated - q) for q in crits) <= 1e-9

    def test_three_factor_known_triple(self):
        out = density_family3(0.5, -0.5, 0.5j, (1, 1, 1))
        assert len(out) == 2
        assert all(inh for _, inh in out)
        # quartic oracle built from the reduced equation
        pts = [0.5, -0.5, 0.5j]
        quartic = np.zeros(5, dtype=complex)
        for k in range(3):
            term = np.array([1.0 + 0j])
            for j in range(3):
                if j != k:
                    term = np.convolve(
                        term, np.convolve([1, -np.conj(pts[j])], [-pts[j], 1])
                    )
            quartic[: len(term)] += (1 - abs(pts[k]) ** 2) * term
        want = sorted(
            (r for r in np.roots(quartic[::-1]) if abs(r) < 1),
            key=lambda z: (z.real, z.imag),
        )
        got = sorted((p for p, _ in out), key=lambda z: (z.real, z.imag))
        assert max(abs(u - v) for u, v in zip(got, want)) <= 1e-9

    def test_three_factor_sweep_stays_in_hull(self):
        rng = np.random.default_rng(66)
        pts = [rand_disc(rng, 0.7) for _ in range(3)]
        for m in (1, 3):
            for n in (2, 4):
                for p in (1, 2):
                    assert all(inh for _, inh in density_family3(*pts, (m, n, p)))


class TestRandomProduct:
    def test_deterministic_per_seed(self):
        B1 = random_product(np.random.default_rng(5), 4)
        B2 = random_product(np.random.default_rng(5), 4)
        assert B1 == B2

    def test_draws_the_pairs_of_a_pair_by_pair_loop(self):
        # the batches draw no pair past the one that completes the zeros
        def pair_by_pair(rng, order, zero_radius):
            zeros = []
            while len(zeros) < order:
                x, y = rng.uniform(-zero_radius, zero_radius, size=2)
                if x * x + y * y <= zero_radius * zero_radius:
                    zeros.append(complex(x, y))
            return FiniteBlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), tuple(zeros))

        for seed in range(40):
            batched, looped = np.random.default_rng(seed), np.random.default_rng(seed)
            for order, zero_radius in zip(range(1, 21), (0.3, 0.6, 0.9, 0.99) * 5):
                assert random_product(batched, order, zero_radius) == pair_by_pair(looped, order, zero_radius)
                assert batched.bit_generator.state == looped.bit_generator.state

    def test_matches_the_array_form(self):
        # the disc test on Python floats keeps the bits of the same test on
        # numpy arrays, drawing the same pairs in the same order
        def array_form(rng, order, zero_radius):
            zeros = []
            while len(zeros) < order:
                xy = rng.uniform(-zero_radius, zero_radius, size=(order - len(zeros), 2))
                x, y = xy.T
                zeros += xy.view(complex)[x * x + y * y <= zero_radius * zero_radius, 0].tolist()
            return FiniteBlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), tuple(zeros))

        for seed in range(20):
            for order in range(1, 17):
                for zero_radius in (0.5, 0.7, 0.9, 0.95, 0.99):
                    ours, theirs = np.random.default_rng([seed, order]), np.random.default_rng([seed, order])
                    got, want = random_product(ours, order, zero_radius), array_form(theirs, order, zero_radius)
                    assert got == want and np.array_equal(np.array(got.zeros).view(float),
                                                          np.array(want.zeros).view(float))
                    assert ours.bit_generator.state == theirs.bit_generator.state

    def test_zero_radius_respected(self):
        B = random_product(np.random.default_rng(6), 12, 0.35)
        assert all(abs(z) <= 0.35 for z in B.zeros)
