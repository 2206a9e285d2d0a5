"""Bending energy of critical curves and circles.

For a closed critical curve the energy reduces to a single arch quadrature,

    Theta = 2 m p (1-p) int_beta^alpha kappa^(p-1) / sqrt(Q) dkappa,

while circles of Euclidean radius r have the closed form
2 pi r^(1-p) (1-r^2)^(p/2).
"""

from __future__ import annotations

import math

from .errors import DomainError
from .qpotential import ElasticaParams, a_star
from .quad import integrate_over_arch


def energy_limit(p: float, m: int = 1) -> float:
    """Analytic limit of the closed-curve energy as the momentum approaches
    its threshold: m sqrt(2 a_*) pi."""
    return m * math.sqrt(2.0 * a_star(p)) * math.pi


def energy_closed(params: ElasticaParams, m: int) -> float:
    """Total bending energy over m curvature periods."""
    if m < 1:
        raise DomainError("m must be at least 1")
    # kappa^(p-1) = 1/r, with r = kappa^(1-p) formed by the arch rule
    moment = integrate_over_arch(params, lambda k, q, r, a: 1.0 / r).value
    return _closed_energy(params.p, m, moment)


def _closed_energy(p: float, m: int, moment: float) -> float:
    """Energy over m curvature periods from the arch moment M(p-1)."""
    return 2.0 * m * p * (1.0 - p) * moment


def circle_energy(r: float, p: float) -> float:
    """Bending energy 2 pi r^(1-p) (1-r^2)^(p/2) of the r-circle.

    Maximized at r = sqrt(1-p); tends to 0 as r -> 1, which realizes the
    zero infimum of the energy over all closed convex curves.
    """
    if not 0.0 < r < 1.0:
        raise DomainError("circle radius must lie in (0, 1)")
    if not 0.0 < p < 1.0:
        raise DomainError("exponent must lie in (0, 1)")
    return 2.0 * math.pi * r ** (1.0 - p) * (1.0 - r * r) ** (p / 2.0)


def circle_radius(p: float) -> float:
    """Euclidean radius sqrt(1-p) of the critical circle."""
    if not 0.0 <= p < 1.0:
        raise DomainError("circle_radius requires p in [0, 1)")
    return math.sqrt(1.0 - p)
