import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blaschkelab import (
    DiscAutomorphism,
    PoleProximityError,
    automorphism_eval,
    automorphism_inverse,
)


def disc_point(rng, radius=0.95):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


disc_points = st.builds(
    lambda r, t: complex(r * np.cos(t), r * np.sin(t)),
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
unimodular = st.builds(lambda t: complex(np.cos(t), np.sin(t)),
                       st.floats(min_value=0.0, max_value=2 * np.pi))


class TestEval:
    def test_identity_is_a0_gamma_minus1(self):
        ident = DiscAutomorphism(0.0, -1.0)
        assert ident.a == 0 and ident.gamma == -1
        for z in (0.3, 0.5j, -0.2 + 0.7j):
            assert automorphism_eval(ident, z) == pytest.approx(z)

    def test_rotation_convention(self):
        g = np.exp(0.77j)
        rho = DiscAutomorphism(0.0, -g)
        assert automorphism_eval(rho, 0.4 - 0.1j) == pytest.approx(g * (0.4 - 0.1j))

    def test_involution_at_point(self):
        # T_a(T_a(0.3)) = 0.3 for a = 0.5
        T = DiscAutomorphism(0.5, 1.0)
        assert automorphism_eval(T, automorphism_eval(T, 0.3)) == pytest.approx(0.3, abs=1e-14)

    def test_maps_its_own_zero_to_zero(self):
        T = DiscAutomorphism(0.5, 1.0)
        assert automorphism_eval(T, 0.5) == 0

    def test_value_at_origin(self):
        T = DiscAutomorphism(0.3 - 0.2j, np.exp(1.3j))
        assert automorphism_eval(T, 0.0) == pytest.approx(T.a * T.gamma)

    def test_gamma_renormalized(self):
        T = DiscAutomorphism(0.1, 2.0 + 0j)
        assert abs(T.gamma) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_exterior_parameter(self):
        with pytest.raises(ValueError):
            DiscAutomorphism(1.0, 1.0)

    def test_pole_detected_before_domain_check(self):
        T = DiscAutomorphism(0.4, 1.0)
        with pytest.raises(PoleProximityError):
            automorphism_eval(T, 1.0 / 0.4)

    def test_rejects_far_exterior_point(self):
        T = DiscAutomorphism(0.4, 1.0)
        with pytest.raises(ValueError):
            automorphism_eval(T, 3.0 + 3.0j)

    @settings(max_examples=50, deadline=None)
    @given(disc_points, unimodular, st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_boundary_maps_to_boundary(self, a, g, theta):
        T = DiscAutomorphism(a, g)
        w = automorphism_eval(T, np.exp(1j * theta))
        assert abs(abs(w) - 1.0) <= 1e-12

    def test_boundary_preservation_corpus(self):
        rng = np.random.default_rng(555)
        for _ in range(100):
            T = DiscAutomorphism(disc_point(rng), np.exp(2j * np.pi * rng.uniform()))
            w = automorphism_eval(T, np.exp(2j * np.pi * rng.uniform()))
            assert abs(abs(w) - 1.0) <= 1e-12


class TestInverse:
    def test_self_inverse_for_gamma_one(self):
        T = DiscAutomorphism(0.37, 1.0)
        inv = automorphism_inverse(T)
        assert inv.a == pytest.approx(T.a) and inv.gamma == pytest.approx(T.gamma)

    def test_identity_inverse(self):
        inv = automorphism_inverse(DiscAutomorphism(0.0, -1.0))
        assert inv.a == 0 and inv.gamma == -1

    def test_round_trips_random_points(self):
        T = DiscAutomorphism(0.4 + 0.1j, np.exp(1j * np.pi / 3))
        inv = automorphism_inverse(T)
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = disc_point(rng)
            assert abs(automorphism_eval(inv, automorphism_eval(T, z)) - z) <= 1e-13


class TestLimitBound:
    def test_uniform_on_compact(self):
        # |gamma0 - T(z)| <= 2 |gamma0 - a gamma| / (1 - |z|): the numerator of
        # gamma0 - T(z) is (gamma0 - a gamma) + z (gamma - conj(a) gamma0), two
        # terms of equal modulus
        rng = np.random.default_rng(3)
        r = 0.7
        grid = r * np.exp(2j * np.pi * np.arange(64) / 64)
        for _ in range(20):
            a = disc_point(rng)
            g = np.exp(2j * np.pi * rng.uniform())
            g0 = np.exp(2j * np.pi * rng.uniform())
            T = DiscAutomorphism(a, g)
            worst = max(abs(g0 - automorphism_eval(T, z)) for z in grid)
            assert worst <= 2 * abs(g0 - a * g) / (1 - r) + 1e-12
