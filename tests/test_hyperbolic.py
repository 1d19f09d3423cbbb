import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blaschkelab import (
    DiscAutomorphism,
    automorphism_eval,
    collinearity_residual,
    geodesic_point,
    hull_contains,
    hyperbolic_convex_hull,
    klein_to_poincare,
    poincare_to_klein,
    pseudo_hyperbolic_distance,
)

disc_points = st.builds(
    lambda r, t: complex(r * np.cos(t), r * np.sin(t)),
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)


def rand_disc(rng, radius=0.85):
    return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())


class TestGeodesicPoint:
    def test_through_origin_is_euclidean(self):
        assert geodesic_point(0.0, 0.8, 0.5) == pytest.approx(0.4)

    def test_endpoints_exact(self):
        z1, z2 = 0.2 + 0.3j, -0.5 + 0.1j
        assert abs(geodesic_point(z1, z2, 0.0) - z1) <= 1e-14
        assert abs(geodesic_point(z1, z2, 1.0) - z2) <= 1e-14

    def test_against_direct_formula(self):
        z1, z2, t = 0.5j, 0.3, 0.25
        m = (z1 - z2) / (1 - np.conj(z1) * z2)
        expected = (z1 - m * t) / (1 - np.conj(z1) * m * t)
        assert geodesic_point(z1, z2, t) == pytest.approx(expected, abs=1e-15)

    def test_stays_inside(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z1, z2 = rand_disc(rng), rand_disc(rng)
            for t in np.linspace(0, 1, 11):
                assert abs(geodesic_point(z1, z2, t)) < 1.0


class TestCollinearity:
    def test_diameter_is_geodesic(self):
        assert collinearity_residual(0.0, 0.3, 0.6) <= 1e-15

    def test_non_collinear_triple(self):
        assert collinearity_residual(0.1, 0.5j, -0.5) > 0.1

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            collinearity_residual(0.1, 0.1, 0.5)

    def test_points_sampled_from_one_geodesic(self):
        z1, z2 = 0.4 + 0.2j, -0.3 + 0.5j
        z3 = geodesic_point(z1, z2, 0.37)
        assert collinearity_residual(z1, z2, z3) <= 1e-12


class TestPseudoHyperbolicDistance:
    def test_coincident(self):
        assert pseudo_hyperbolic_distance(0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    def test_from_origin(self):
        assert pseudo_hyperbolic_distance(0.0, 0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("z1,z2", [(1.0, 0.2), (0.2, 1.0), (1.0, 1.0), (0.6 + 0.8j, 0.0), (0.3, 2.0)])
    def test_points_off_the_open_disc_raise(self, z1, z2):
        # (1, 1) made 0/0: nan and a RuntimeWarning, which this turns into an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="inside the unit disc"):
                pseudo_hyperbolic_distance(z1, z2)

    @settings(max_examples=40, deadline=None)
    @given(disc_points, disc_points, disc_points,
           st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_automorphism_invariance(self, z1, z2, a, t):
        T = DiscAutomorphism(a, np.exp(1j * t))
        lhs = pseudo_hyperbolic_distance(z1, z2)
        rhs = pseudo_hyperbolic_distance(automorphism_eval(T, z1), automorphism_eval(T, z2))
        assert abs(lhs - rhs) <= 1e-12


class TestKleinModel:
    def test_origin_fixed(self):
        assert poincare_to_klein(0.0) == 0.0
        assert klein_to_poincare(0.0) == 0.0

    def test_known_value(self):
        assert poincare_to_klein(0.6) == pytest.approx(1.2 / 1.36, abs=1e-15)

    def test_round_trip(self):
        p = 0.3 + 0.4j
        assert abs(klein_to_poincare(poincare_to_klein(p)) - p) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(disc_points)
    def test_round_trip_property(self, p):
        assert abs(klein_to_poincare(poincare_to_klein(p)) - p) <= 1e-12

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            poincare_to_klein(1.0)
        with pytest.raises(ValueError):
            klein_to_poincare(1.0 + 0j)

    def test_geodesics_become_chords(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            z1, z2 = rand_disc(rng), rand_disc(rng)
            if abs(z1 - z2) < 1e-3:
                continue
            ks = [poincare_to_klein(geodesic_point(z1, z2, t)) for t in np.linspace(0, 1, 20)]
            a, b = ks[0], ks[-1]
            span = abs(b - a)
            for k in ks[1:-1]:
                cross = (b.real - a.real) * (k.imag - a.imag) - (b.imag - a.imag) * (k.real - a.real)
                assert abs(cross) / span <= 1e-9


class TestHull:
    def test_single_point(self):
        h = hyperbolic_convex_hull([0.2 + 0.1j])
        assert h.degenerate_kind == "point"
        assert h.poincare_vertices == (0.2 + 0.1j,)

    def test_collinear_collapses_to_segment(self):
        h = hyperbolic_convex_hull([0.0, 0.3, 0.6])
        assert h.degenerate_kind == "segment"
        assert sorted(v.real for v in h.poincare_vertices) == [0.0, 0.6]

    def test_triangle(self):
        pts = [0.5, -0.5, 0.5j]
        h = hyperbolic_convex_hull(pts)
        assert h.degenerate_kind == "polygon"
        assert sorted((v.real, v.imag) for v in h.poincare_vertices) == sorted(
            (complex(p).real, complex(p).imag) for p in pts
        )

    def test_duplicates_ignored(self):
        h = hyperbolic_convex_hull([0.5, 0.5, -0.5])
        assert h.degenerate_kind == "segment"

    def test_chain_of_near_duplicates_is_one_point(self):
        # neighbours lie 0.88e-12 apart (pseudo-hyperbolic), the ends 1.76e-12
        h = hyperbolic_convex_hull([0.3, 0.3 + 0.8e-12, 0.3 + 1.6e-12])
        assert h.degenerate_kind == "point"
        assert h.poincare_vertices == (0.3,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic_convex_hull([])

    def test_klein_vertices_match(self):
        h = hyperbolic_convex_hull([0.5, -0.5, 0.5j, 0.1 + 0.1j])
        for p, k in zip(h.poincare_vertices, h.klein_vertices):
            assert abs(poincare_to_klein(p) - k) <= 1e-15
            assert abs(klein_to_poincare(k) - p) <= 1e-12

    def test_klein_polygon_is_convex(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            pts = [rand_disc(rng) for _ in range(6)]
            h = hyperbolic_convex_hull(pts)
            if h.degenerate_kind != "polygon":
                continue
            kv = h.klein_vertices
            n = len(kv)
            for i in range(n):
                a, b, c = kv[i], kv[(i + 1) % n], kv[(i + 2) % n]
                cross = (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)
                assert cross > 0  # strictly counterclockwise


class TestHullContains:
    def test_vertices_at_zero_tolerance(self):
        h = hyperbolic_convex_hull([0.5, -0.5, 0.5j])
        for v in h.poincare_vertices:
            assert hull_contains(h, v, 0.0)

    def test_segment_midpoint(self):
        h = hyperbolic_convex_hull([0.5, -0.5])
        assert hull_contains(h, 0.0, 0.0)

    def test_interior_and_exterior(self):
        h = hyperbolic_convex_hull([0.5, -0.5, 0.5j])
        assert hull_contains(h, 0.1j, 0.0)
        assert not hull_contains(h, -0.5j, 1e-9)
        assert not hull_contains(h, 0.9, 1e-9)

    def test_geodesic_edges_belong_to_hull(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pts = [rand_disc(rng) for _ in range(5)]
            h = hyperbolic_convex_hull(pts)
            vs = h.poincare_vertices
            for i in range(len(vs)):
                z1, z2 = vs[i], vs[(i + 1) % len(vs)]
                for t in np.linspace(0, 1, 9):
                    assert hull_contains(h, geodesic_point(z1, z2, t), 1e-9)
