"""Numerical toolkit for finite Blaschke products on the unit disc."""

from types import ModuleType as _ModuleType

from .blaschke import CriticalSet, FiniteBlaschkeProduct, critical_sets, fiber_sets
from .errors import (
    BoundaryProximityError,
    CircleStraddleError,
    ContourThroughFiberError,
    ExtractionAmbiguityError,
    InvalidAnnulusError,
    NonConvergenceError,
    PoleProximityError,
    ZeroProximityError,
)
from .hyperbolic import (
    HyperbolicHull,
    collinearity_residual,
    euclidean_convex_hull,
    geodesic_point,
    hull_contains,
    hyperbolic_convex_hull,
    klein_to_poincare,
    poincare_to_klein,
    pseudo_hyperbolic_distance,
)
from .lab import (
    ConvergenceRecord,
    CounterexampleResult,
    SeparationEstimate,
    SequenceSpec,
    ValenceReport,
    convergence_experiment,
    counterexample_run,
    default_valence_radius,
    density_family,
    density_family3,
    derivative_at_zero_identity,
    fatou_limit_scan,
    fatou_quotient,
    random_product,
    renormalized_conjugate,
    rotation_constant,
    separation_estimate,
    valence,
)
from .moebius import DiscAutomorphism, automorphism_eval, automorphism_inverse

__version__ = "0.1.0"

# the public names are the ones imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
