"""Disc automorphisms and their inverses.

An automorphism of the unit disc is the map

    z -> gamma * (a - z) / (1 - conj(a) * z)

with ``|a| < 1`` and ``|gamma| = 1``.  The rotation ``z -> gamma * z`` is the
``(a=0, -gamma)`` case, and the identity is canonically represented by
``(a=0, gamma=-1)``.  The inverse is again such a pair, in closed form.
Everything here is a pure function of immutable values and safe to call
concurrently.
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


@dataclass(frozen=True)
class DiscAutomorphism:
    """Parameter pair (a, gamma) of the map gamma*(a - z)/(1 - conj(a)*z).

    gamma is renormalized to exact unit modulus on construction so that long
    composition chains do not accumulate modulus drift.
    """

    a: complex
    gamma: complex

    def __post_init__(self):
        a, g = complex(self.a), complex(self.gamma)
        if not abs(a) < 1.0 - INTERIOR_MARGIN:
            raise ValueError(f"automorphism parameter must satisfy |a| < 1, got |a| = {abs(a)}")
        if not np.isfinite(abs(g)) or g == 0:
            raise ValueError(f"unimodular constant must be finite and nonzero, got {self.gamma!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "gamma", g / abs(g))


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


def automorphism_inverse(T: DiscAutomorphism) -> DiscAutomorphism:
    """The inverse automorphism, again in closed form: (gamma*a, conj(gamma))."""
    return DiscAutomorphism(T.gamma * T.a, np.conj(T.gamma))
