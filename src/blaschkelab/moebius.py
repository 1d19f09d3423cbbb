"""Disc automorphisms and their exact group algebra.

An automorphism of the unit disc is the map

    z -> gamma * (a - z) / (1 - conj(a) * z)

with ``|a| < 1`` and ``|gamma| = 1``.  The rotation ``z -> gamma * z`` is the
``(a=0, -gamma)`` case, and the identity is canonically represented by
``(a=0, gamma=-1)``.  Composition and inversion are done in closed form so
that the group structure carries no sampling error.  Everything here is a
pure function of immutable values and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import coerce_points, uncoerce
from .errors import PoleProximityError

# strict interior margin for the fixed parameter a
INTERIOR_MARGIN = 1e-15
# denominator threshold below which the point counts as the pole 1/conj(a)
POLE_TOL = 1e-14
# slack allowed beyond the closed disc for evaluation points
DOMAIN_SLACK = 1e-9


def _renormalized_unimodular(gamma) -> complex:
    g = complex(gamma)
    mod = abs(g)
    if not np.isfinite(mod) or mod == 0.0:
        raise ValueError(f"unimodular constant must be finite and nonzero, got {gamma!r}")
    return g / mod


@dataclass(frozen=True)
class DiscAutomorphism:
    """Parameter pair (a, gamma) of the map gamma*(a - z)/(1 - conj(a)*z).

    gamma is renormalized to exact unit modulus on construction so that long
    composition chains do not accumulate modulus drift.
    """

    a: complex
    gamma: complex

    def __post_init__(self):
        a = complex(self.a)
        if not abs(a) < 1.0 - INTERIOR_MARGIN:
            raise ValueError(f"automorphism parameter must satisfy |a| < 1, got |a| = {abs(a)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "gamma", _renormalized_unimodular(self.gamma))

    @classmethod
    def identity(cls) -> "DiscAutomorphism":
        return cls(0.0, -1.0)

    @classmethod
    def rotation(cls, gamma) -> "DiscAutomorphism":
        """The rotation z -> gamma*z, i.e. the pair (0, -gamma)."""
        return cls(0.0, -complex(gamma))

    def __call__(self, z):
        return automorphism_eval(self, z)


def automorphism_eval(T: DiscAutomorphism, z):
    """Evaluate T at z (scalar or ndarray of points in the closed disc).

    Raises PoleProximityError when z is numerically at the pole 1/conj(a),
    and ValueError for points beyond the closed disc tolerance band.
    """
    zz, scalar = coerce_points(z)
    den = 1.0 - np.conj(T.a) * zz
    if np.any(np.abs(den) < POLE_TOL):
        raise PoleProximityError("evaluation point coincides with the pole 1/conj(a)")
    if np.any(np.abs(zz) > 1.0 + DOMAIN_SLACK):
        raise ValueError("automorphism evaluation point lies outside the closed disc")
    return uncoerce(T.gamma * (T.a - zz) / den, scalar)


def automorphism_compose(S: DiscAutomorphism, T: DiscAutomorphism) -> DiscAutomorphism:
    """The automorphism U with U(z) = S(T(z)), computed in closed form.

    Writing S = (b, d) and T = (a, g), expanding S(T(z)) and matching it to
    the canonical form gives

        U.a     = (a - b*conj(g)) / (1 - conj(a)*b*conj(g))
        U.gamma = -d * (g - b*conj(a)) / (1 - a*conj(b)*g)

    The new gamma is unimodular because |g - conj(a)*b| = |1 - a*conj(b)*g|.
    """
    a, g = T.a, T.gamma
    b, d = S.a, S.gamma
    new_a = (a - b * np.conj(g)) / (1.0 - np.conj(a) * b * np.conj(g))
    new_gamma = -d * (g - b * np.conj(a)) / (1.0 - a * np.conj(b) * g)
    return DiscAutomorphism(new_a, new_gamma)


def automorphism_inverse(T: DiscAutomorphism) -> DiscAutomorphism:
    """The inverse automorphism, again in closed form: (gamma*a, conj(gamma))."""
    return DiscAutomorphism(T.gamma * T.a, np.conj(T.gamma))


def automorphism_limit_bound(a, gamma, gamma0, z) -> float:
    """Bound 2|gamma0 - a*gamma| / (1 - |z|) on |gamma0 - T_{a,gamma}(z)|.

    The bound holds for every |z| < 1 because the numerator of
    gamma0 - T(z) splits as (gamma0 - a*gamma) + z*(gamma - conj(a)*gamma0)
    and both terms have the same modulus.  The computed value of T(z) is
    checked against the bound; a violation can only come from numerical
    breakdown and raises ArithmeticError.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError("the bound degenerates for |z| >= 1")
    gamma = _renormalized_unimodular(gamma)
    gamma0 = complex(gamma0)  # taken as given so that gamma0 = a*gamma yields bound 0
    if not np.isfinite(gamma0):
        raise ValueError("gamma0 must be finite")
    bound = 2.0 * abs(gamma0 - a * gamma) / (1.0 - abs(z))
    actual = abs(gamma0 - automorphism_eval(DiscAutomorphism(a, gamma), z))
    if actual > bound + 1e-12:
        raise ArithmeticError(
            f"limit bound violated: |gamma0 - T(z)| = {actual} > {bound} + 1e-12"
        )
    return bound
