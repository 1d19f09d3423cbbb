"""Tests of the benchmark's oracles and input constructions.

    python3 -m pytest bench -q
"""

import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import oracles as O

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _random_zeros(seed, n, radius=0.9):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(size=n))
    return tuple(complex(z) for z in r * np.exp(2j * np.pi * rng.uniform(size=n)))


def _mp_product(zeros, gamma, z):
    out = mpmath.mpc(complex(gamma))
    for a in zeros:
        a = mpmath.mpc(a)
        out *= (a - z) / (1 - mpmath.conj(a) * z)
    return out


def test_blaschke_is_z_power_for_zeros_at_origin():
    z = np.array([0.3 + 0.4j, -0.7j, 0.5])
    assert np.allclose(O.blaschke((0j,) * 3, -1.0, z), z ** 3, rtol=1e-15)


def test_blaschke_vanishes_at_zeros_and_has_modulus_one_on_circle():
    zeros = _random_zeros(1, 7)
    assert np.max(np.abs(O.blaschke(zeros, 1j, np.array(zeros)))) < 1e-15
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(np.abs(O.blaschke(zeros, 1j, circle)) - 1.0)) < 1e-14


def test_blaschke_blocks_match_one_broadcast():
    zeros = _random_zeros(2, 5)
    z = 0.9 * np.exp(2j * np.pi * np.linspace(0, 1, 3 * O.CHUNK + 17))
    direct = 1j * np.prod((np.array(zeros) - z[:, None]) / (1 - np.conj(zeros) * z[:, None]), axis=1)
    assert np.array_equal(O.blaschke(zeros, 1j, z), direct)


def test_derivative_matches_50_digit_differentiation():
    zeros, gamma = _random_zeros(3, 9), np.exp(0.7j)
    pts = [0.2 + 0.1j, -0.6 + 0.5j, 0.95j, 1.5 - 0.2j]
    d, scale = O.derivative(zeros, gamma, np.array(pts))
    with mpmath.workdps(50):
        for k, z in enumerate(pts):
            ref = complex(mpmath.diff(lambda w: _mp_product(zeros, gamma, w), mpmath.mpc(z)))
            assert abs(d[k] - ref) <= 1e-13 * scale[k]
            assert scale[k] >= abs(ref)


def test_log_derivative_is_derivative_over_value():
    zeros = _random_zeros(4, 6)
    z = np.array([0.1 + 0.2j, -0.5j, 0.8])
    s, size = O.log_derivative(zeros, z)
    d, _ = O.derivative(zeros, 1.0, z)
    assert np.allclose(s, d / O.blaschke(zeros, 1.0, z), rtol=1e-13)
    assert np.all(size >= np.abs(s))


def test_boundary_derivative_modulus_is_the_poisson_sum():
    zeros = _random_zeros(5, 8)
    theta = np.linspace(0.0, 2 * np.pi, 50)
    w = np.exp(1j * theta)
    poisson = sum((1 - abs(a) ** 2) / np.abs(w - a) ** 2 for a in zeros)
    assert np.allclose(O.boundary_derivative_modulus(zeros, theta), poisson, rtol=1e-13)


def test_critical_newton_step_finds_known_critical_points():
    a = 0.6
    # (z^2 - a^2)/(1 - a^2 z^2) has its only finite critical point at 0
    assert O.critical_newton_step((a, -a), 0.0) < 1e-16
    assert O.critical_newton_step((a, -a), 0.3) > 0.1
    # a double zero is a critical point; a simple zero is not
    assert O.critical_newton_step((0.2j, 0.2j, 0.5), 0.2j) == 0.0
    assert O.critical_newton_step((0.2j, 0.5), 0.5) == float("inf")


def test_second_derivative_matches_50_digit_differentiation():
    zeros, gamma = _random_zeros(6, 5), np.exp(0.3j)
    z = 0.1 - 0.35j
    with mpmath.workdps(50):
        ref = complex(mpmath.diff(lambda w: _mp_product(zeros, gamma, w), mpmath.mpc(z), 2))
    assert abs(O.second_derivative(zeros, gamma, z) - ref) <= 1e-12 * abs(ref)


def test_fiber_defects_accept_the_fiber_and_reject_a_repeated_point():
    c = 0.3 + 0.2j
    fiber = [c ** (1 / 3) * np.exp(2j * np.pi * k / 3) for k in range(3)]
    eval_defect, product_defect = O.fiber_defects((0j,) * 3, -1.0, c, fiber)
    assert eval_defect < 1e-15 and product_defect < 1e-14
    _, repeated = O.fiber_defects((0j,) * 3, -1.0, c, [fiber[0], fiber[0], fiber[1]])
    assert repeated > 1e-2


def test_reflection_pairing():
    interior = [(0.3 + 0.1j, 1), (-0.5j, 2), (0j, 1)]
    exterior = [(1 / np.conj(0.3 + 0.1j), 1), (1 / np.conj(-0.5j), 2)]
    assert O.reflection_unpaired(interior, exterior, 1e-12) == []
    assert len(O.reflection_unpaired(interior, exterior[:1], 1e-12)) == 2
    assert len(O.reflection_unpaired(interior, exterior + [(3.0, 1)], 1e-12)) == 1


def _geodesic_midpoint(p, q):
    # move p to 0, halve the pseudo-hyperbolic radius of q's image, move back
    m = (q - p) / (1 - np.conj(p) * q)
    t = np.tanh(0.5 * np.arctanh(abs(m))) * m / abs(m)
    return (t + p) / (1 + np.conj(p) * t)


def test_hull_distance_on_triangle_segment_and_point():
    tri = [0.5, -0.4 + 0.3j, -0.2 - 0.6j]
    assert O.hull_distance(tri, 0.0) == 0.0
    assert O.hull_distance(tri, 0.9j) > 0.1
    assert O.hull_distance(tri, _geodesic_midpoint(tri[0], tri[1])) < 1e-15
    assert O.hull_distance([0.5, -0.4j], _geodesic_midpoint(0.5, -0.4j)) < 1e-15
    assert O.hull_distance([0.5, -0.4j], 0.0) > 1e-3
    assert O.hull_distance([0.5], 0.5) == 0.0


def test_hull_distance_agrees_with_convex_combinations():
    rng = np.random.default_rng(7)
    pts = list(_random_zeros(8, 6, 0.8))
    k = O.klein(pts)
    weights = rng.dirichlet(np.ones(len(pts)), size=200)
    inside = weights @ k  # convex combinations in the Klein model
    for q in inside:
        p = q / (1 + np.sqrt(1 - abs(q) ** 2))  # back to the Poincare disc
        assert O.hull_distance(pts, p) < 1e-12


def test_mp_roots_are_critical_points_and_fiber():
    zeros, gamma = _random_zeros(9, 5), np.exp(1.1j)
    crit = O.mp_critical_points(zeros, gamma)
    assert len(crit) == 2 * len(zeros) - 2
    assert all(O.critical_newton_step(zeros, c) < 1e-13 * max(1, abs(c)) for c in crit)
    c = 0.2 - 0.5j
    fiber = O.mp_fiber(zeros, gamma, c)
    assert len(fiber) == len(zeros)
    assert np.max(np.abs(O.blaschke(zeros, gamma, np.array(fiber)) - c)) < 1e-14


def test_unmatched_counts_both_sides():
    assert O.unmatched([1.0, 2.0], [2.0, 1.0 + 1e-12], 1e-9) == 0
    assert O.unmatched([1.0, 1.0], [1.0, 2.0], 1e-9) == 2
    assert O.unmatched([1.0], [1.0, 2.0], 1e-9) == 1


def test_with_critical_point_builds_a_critical_point_inside_the_envelope():
    workloads = pytest.importorskip("workloads")
    rng = np.random.default_rng(11)
    for order in (4, 9, 16, 24):
        zeros, _, p = workloads.with_critical_point(rng, order, 0.8)
        assert len(zeros) == order and max(abs(z) for z in zeros) < 0.91
        assert O.critical_newton_step(zeros, p) < 1e-12


def test_valence_radius_keeps_the_fiber_inside():
    workloads = pytest.importorskip("workloads")
    zeros, w = _random_zeros(12, 16, 0.8), 0.25 + 0.1j
    r = workloads.valence_radius(zeros, w)
    values = O.blaschke(zeros, 1.0, r * np.exp(2j * np.pi * np.arange(4096) / 4096))
    assert np.min(np.abs(values)) >= abs(w) + 0.1
