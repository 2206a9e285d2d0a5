"""Closed p-elastic curves on the unit sphere, 0 < p < 1.

Solves the closure condition for the conserved momentum, reconstructs the
curves, evaluates their bending energy and second variation, and lifts them
to flat tori in the 3-sphere.
"""

from .closure import (
    ClosureIndex,
    is_admissible,
    lambda_grid,
    lambda_p,
    period,
    solve_closure,
    solve_closures,
)
from .curve import CurveTrace, sample_profile, trace_closed_curve
from .energy import circle_energy, circle_radius, energy_closed
from .errors import PElasticaError
from .qpotential import (
    ElasticaParams,
    a_star,
    classify_positive_roots,
    curvature_bounds,
    kappa_star,
    make_params,
)
from .quad import integrate_over_arch, kappa_moment, parts_identity_residual
from .stability import (
    SecondVariationReport,
    circle_second_variation,
    second_variation,
    upsilon,
    upsilon_elliptic_half,
)

__all__ = [
    "ClosureIndex",
    "CurveTrace",
    "ElasticaParams",
    "PElasticaError",
    "SecondVariationReport",
    "a_star",
    "circle_energy",
    "circle_radius",
    "circle_second_variation",
    "classify_positive_roots",
    "curvature_bounds",
    "energy_closed",
    "integrate_over_arch",
    "is_admissible",
    "kappa_moment",
    "kappa_star",
    "lambda_grid",
    "lambda_p",
    "make_params",
    "parts_identity_residual",
    "period",
    "sample_profile",
    "second_variation",
    "solve_closure",
    "solve_closures",
    "trace_closed_curve",
    "upsilon",
    "upsilon_elliptic_half",
]

__version__ = "0.1.0"
