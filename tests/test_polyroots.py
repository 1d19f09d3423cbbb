import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from blaschkelab import Polynomial, find_roots, polish_root


def expand(roots):
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, np.array([-r, 1.0 + 0j]))
    return c


def test_trimming_keeps_degree():
    p = Polynomial((1.0, 2.0, 1e-20))
    assert p.degree == 1


def test_derivative_and_cauchy_bound():
    p = Polynomial((1.0, -3.0, 0.0, 2.0))
    assert p.derivative().coeffs == (-3.0 + 0j, 0j, 6.0 + 0j)
    assert p.cauchy_radius() == 1.0 + 3.0 / 2.0
    with pytest.raises(ValueError):
        Polynomial((5.0,)).derivative()


def test_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        Polynomial((0.0,))


def test_quadratic_pair():
    rs = find_roots(Polynomial((-0.25, 0.0, 1.0)))
    locs = sorted(rs.locations(), key=lambda z: z.real)
    assert locs[0] == pytest.approx(-0.5, abs=1e-12)
    assert locs[1] == pytest.approx(0.5, abs=1e-12)
    assert all(m == 1 for _, m in rs.roots)


def test_triple_root_multiplicity():
    rs = find_roots(Polynomial(tuple(expand([0.3, 0.3, 0.3]))))
    assert rs.roots == ((pytest.approx(0.3, abs=1e-9), 3),)


def test_quintuple_root_multiplicity():
    rs = find_roots(Polynomial(tuple(expand([0.4] * 5))))
    ((loc, mult),) = rs.roots
    assert mult == 5 and loc == pytest.approx(0.4, abs=1e-9)


def test_close_distinct_roots_stay_separate():
    rs = find_roots(Polynomial(tuple(expand([0.3, 0.3005]))))
    assert sorted(m for _, m in rs.roots) == [1, 1]
    locs = sorted(rs.locations(), key=lambda z: z.real)
    assert locs[0] == pytest.approx(0.3, abs=1e-10)
    assert locs[1] == pytest.approx(0.3005, abs=1e-10)


def test_derivative_numerator_of_symmetric_product():
    # P = z^2 - 0.25, Q = 1 - 0.25 z^2: P'Q - PQ' expands to 1.875 z
    P = np.array([-0.25, 0.0, 1.0])
    Q = np.array([1.0, 0.0, -0.25])
    N = npoly.polysub(
        npoly.polymul(npoly.polyder(P), Q), npoly.polymul(P, npoly.polyder(Q))
    )
    np.testing.assert_allclose(N, [0.0, 1.875], atol=1e-15)
    rs = find_roots(Polynomial(tuple(N)))
    assert rs.roots == ((0j, 1),)


def test_large_mirror_root():
    rs = find_roots(Polynomial(tuple(expand([0.5, 1e3]))))
    locs = sorted(rs.locations(), key=lambda z: z.real)
    assert locs[0] == pytest.approx(0.5, rel=1e-12)
    assert locs[1] == pytest.approx(1e3, rel=1e-12)
    assert max(rs.residuals) <= 1e-8


def test_residual_gate_and_count_random():
    rng = np.random.default_rng(123)
    for _ in range(25):
        d = int(rng.integers(1, 13))
        roots = [complex(*rng.uniform(-2, 2, 2)) for _ in range(d)]
        rs = find_roots(Polynomial(tuple(expand(roots))))
        assert rs.total_multiplicity == d
        assert max(rs.residuals) <= 1e-8


def test_real_coefficients_conjugate_closure():
    rng = np.random.default_rng(5)
    for _ in range(15):
        d = int(rng.integers(2, 9))
        coeffs = tuple(rng.uniform(-1, 1, d + 1))
        rs = find_roots(Polynomial(coeffs))
        locs = rs.locations()
        for z in locs:
            partner = min(abs(np.conj(z) - w) for w in locs)
            assert partner <= 1e-9


def test_reconstruction_degree_up_to_16():
    rng = np.random.default_rng(99)
    for _ in range(10):
        d = int(rng.integers(2, 17))
        roots = [complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(d)]
        rs = find_roots(Polynomial(tuple(expand(roots))))
        rebuilt = expand(rs.locations())
        scale = np.max(np.abs(expand(roots)))
        assert np.max(np.abs(rebuilt - expand(roots))) <= 1e-7 * scale


def test_deterministic():
    p = Polynomial(tuple(expand([0.1 + 0.2j, -0.4, 0.9j, 0.3 - 0.3j])))
    assert find_roots(p) == find_roots(p)


def test_rejected_multiplicity_candidates_emit_no_warning():
    # 172 simple roots on one ring: the coarse clustering candidates merge
    # them, and refining such a candidate overflows the 171st derivative
    p = Polynomial((-1e-3,) + (0,) * 171 + (1,))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rs = find_roots(p)
    assert [m for _, m in rs.roots] == [1] * 172
    assert max(abs(abs(r) - 1e-3 ** (1 / 172)) for r in rs.locations()) <= 1e-12


def test_degree_zero_rejected():
    with pytest.raises(ValueError):
        find_roots(Polynomial((1.0,)))


class TestPolish:
    def test_simple_root(self):
        p = Polynomial((-0.25, 0.0, 1.0))
        res = polish_root(p, 0.49)
        assert not res.stalled
        assert res.root == pytest.approx(0.5, abs=1e-12)

    def test_origin_cubed_from_nearby_guess(self):
        # either clean convergence or a reported stall is acceptable here
        p = Polynomial((0.0, 0.0, 0.0, 1.0))
        res = polish_root(p, 0.1)
        if not res.stalled:
            assert abs(res.root) <= 1e-4
        else:
            assert res.root == 0.1

    def test_random_cubics_polish_holds_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            roots = [complex(*rng.uniform(-1, 1, 2)) for _ in range(3)]
            p = Polynomial(tuple(expand(roots)))
            for z in find_roots(p).locations():
                res = polish_root(p, z)
                assert res.stalled or abs(p(res.root)) <= 1e-10
