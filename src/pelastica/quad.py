"""Singular-endpoint quadrature for integrals of the form int f(kappa)/sqrt(Q).

All closure, energy and second-variation quantities reduce to integrals over
one curvature arch [beta, alpha] with inverse-square-root singularities at
both ends.  The substitution kappa = beta + (alpha-beta) sin^2(theta) removes
them because Q has simple zeros at the roots, leaving the smooth integrand

    2 f(kappa(theta)) / sqrt(g(kappa(theta))),  theta in [0, pi/2],

with g(kappa) = Q(kappa) / ((alpha-kappa)(kappa-beta)).  Root distances and g
are evaluated in the theta variable throughout: for momenta far above the
threshold the integrand develops interior layers narrower than the floating
point resolution of kappa itself, but they stay resolvable in theta.

The rule is adaptive 15-point Gauss-Legendre in theta.  Every panel is
evaluated together with its two halves, whose difference is its error
estimate, and panels go through the integrand in blocks: the initial graded
mesh at most 128 panels (5760 nodes) per call, each bisection its two
children in one call.  The values equal those of one call per rule bit for
bit, since every node and every weighted sum is formed the same way.
"""

from __future__ import annotations

import heapq
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure, DomainError, ResolutionError
from .qpotential import ElasticaParams, q_second

DEFAULT_REL_TOL = 1e-10
# Below this relative magnitude Q is dominated by roundoff cancellation and is
# replaced by its cubic Taylor expansion about the nearest root (with the root
# distance taken exactly from the theta substitution, so no cancellation).
# Direct evaluation runs in extended precision, keeping it accurate to ~5e-12
# down to the switch.
_Q_SWITCH = 1e-8
_PANEL_CAP = 20000
_GRADE_LEVELS = 48
# Smallest theta the graded mesh may reach (it grades to an eighth of
# grade_floor); finer panel ends would run out of float64 range.
_THETA_FLOOR = 1e-300
# Panels per integrand call on the initial mesh: bounds the node arrays
# (45 nodes a panel) when grade_floor asks for ~1000 grade levels.
_BLOCK_PANELS = 128

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def limit_at_maximum(params: ElasticaParams, numerator: Callable) -> float:
    """Local-maximum limit of the arch integral as the roots collapse.

    As a -> a_* both roots tend to kappa_* and the integral tends to
    numerator(kappa_*) * pi / sqrt(-Q''(kappa_*)/2).
    """
    ks = params.kappa_star
    curv = -0.5 * q_second(params.p, params.a, ks)
    num = _wrap_numerator(numerator)
    return float(num(np.asarray([ks]), np.asarray([0.0]))[0]) * math.pi / math.sqrt(curv)


@dataclass(frozen=True)
class SingularIntegral:
    """Value of one arch integral together with its error estimate."""

    params: ElasticaParams
    value: float
    error_estimate: float


def _wrap_numerator(numerator: Callable) -> Callable:
    """Accept either f(kappa) or f(kappa, q); always call with both.

    The two-argument form lets numerators with near-cancelling denominators
    (e.g. a kappa^(2(1-p)) - p^2 = Q + (1-p)^2 kappa^2) reuse the stabilized
    Q values instead of recomputing them with cancellation.
    """
    try:
        n_args = len(inspect.signature(numerator).parameters)
    except (TypeError, ValueError):
        n_args = 1
    if n_args >= 2:
        return numerator
    return lambda kappa, q: np.broadcast_to(np.asarray(numerator(kappa)), kappa.shape)


def _q_derivatives(p: float, a: float, kappa: float):
    """First three kappa-derivatives of Q at a point, in extended precision.

    Extended range matters as much as precision here: kappa^(e-3) can
    overflow float64 when the lower root sits near 1e-300.
    """
    e = np.longdouble(2.0 * (1.0 - p))
    k = np.longdouble(kappa)
    a_l = np.longdouble(a)
    c = np.longdouble((1.0 - p) ** 2)
    d1 = a_l * e * k ** (e - 1.0) - 2.0 * c * k
    d2 = a_l * e * (e - 1.0) * k ** (e - 2.0) - 2.0 * c
    d3 = a_l * e * (e - 1.0) * (e - 2.0) * k ** (e - 3.0)
    return d1, d2, d3


def _make_theta_integrand(params: ElasticaParams, numerator: Callable):
    p, a = params.p, params.a
    beta, alpha = np.longdouble(params.beta), np.longdouble(params.alpha)
    width = alpha - beta
    db = _q_derivatives(p, a, params.beta)
    da = _q_derivatives(p, a, params.alpha)
    num = _wrap_numerator(numerator)
    a_l, e_l = np.longdouble(a), np.longdouble(2.0 * (1.0 - p))
    mid_c = np.longdouble((1.0 - p) ** 2)
    p2_l = np.longdouble(p) ** 2

    def taylor(coeffs, d):
        d1, d2, d3 = coeffs
        return d * (d1 + d * (0.5 * d2 + d * (d3 / 6.0)))

    def integrand(theta):
        s2 = np.sin(theta).astype(np.longdouble) ** 2
        c2 = np.cos(theta).astype(np.longdouble) ** 2
        # Root distances come straight from the substitution, so they stay
        # meaningful even when kappa - beta underflows the ulp of kappa.
        d_beta = width * s2
        d_alpha = width * c2
        kl = beta + d_beta
        lead = a_l * kl**e_l
        mid_term = mid_c * kl**2
        q_direct = lead - mid_term - p2_l
        q_scale = lead + mid_term + p2_l
        q_taylor = np.where(s2 < c2, taylor(db, d_beta), taylor(da, -d_alpha))
        cancelling = np.abs(q_direct) < _Q_SWITCH * q_scale
        q = np.where(cancelling, q_taylor, q_direct)
        if np.any(q <= 0.0):
            raise DomainError("Q <= 0 inside (beta, alpha): inconsistent roots")
        # Everything stays in extended precision: on the deepest graded
        # panels theta^2 underflows float64 and the integrand's pointwise
        # values can overflow it, even though the integral is O(1).
        g = q / (width**2 * s2 * c2)
        return 2.0 * num(kl, q) / np.sqrt(g)

    return integrand


def _panels(f, lo, hi):
    """Heap entries (-|coarse - fine|, lo, hi, fine) for the panels [lo, hi].

    coarse is the GL15 rule on a panel and fine the sum of the rules on its
    two halves.  The 45 nodes of every panel go through one integrand call.
    """
    mid = 0.5 * (lo + hi)
    # rows: the whole panel, its left half, its right half
    start, end = np.stack([lo, lo, mid]), np.stack([hi, mid, hi])
    centre, half = 0.5 * (start + end), 0.5 * (end - start)
    nodes = centre[..., None] + half[..., None] * _GL_NODES
    values = f(nodes.ravel()).reshape(nodes.shape)
    # The weighted sums run in the integrand's (extended) precision before
    # narrowing.
    rules = (half * (values @ _GL_WEIGHTS)).astype(float)
    coarse, fine = rules[0], rules[1] + rules[2]
    neg_err = -np.abs(coarse - fine)
    return list(zip(neg_err.tolist(), lo.tolist(), hi.tolist(), fine.tolist()))


def integrate_over_arch(
    params: ElasticaParams,
    numerator: Callable,
    rel_tol: float = DEFAULT_REL_TOL,
    grade_floor: float | None = None,
) -> SingularIntegral:
    """Compute int_beta^alpha numerator(kappa)/sqrt(Q) dkappa adaptively.

    Uses 15-point Gauss-Legendre panels in the theta variable on an initial
    mesh graded geometrically toward both endpoints, evaluated in blocks of
    at most 128 panels per integrand call, then repeatedly bisects the panel
    with the worst error estimate, both children in one call.  Numerators
    receive 1-D node arrays and must act elementwise.  Numerators with an
    interior layer near the lower root (the layer theta scale can fall below
    1e-40 for momenta far above threshold) should pass its theta scale as
    grade_floor so the initial mesh reaches it; a floor the mesh cannot
    reach (below 8 * 1e-300, including 0 from an underflowed scale) raises
    ResolutionError.  Near-circular parameters short-circuit to the
    local-maximum limit.
    """
    if not 1e-14 <= rel_tol <= 1e-3:
        raise DomainError("rel_tol must lie in [1e-14, 1e-3]")
    if params.near_circular:
        return SingularIntegral(
            params=params, value=limit_at_maximum(params, numerator), error_estimate=0.0
        )

    f = _make_theta_integrand(params, numerator)
    half_pi = 0.5 * math.pi
    low_levels = _GRADE_LEVELS
    if grade_floor is not None:
        if not grade_floor / 8.0 >= _THETA_FLOOR:
            raise ResolutionError(
                f"inner layer's theta scale is below {8.0 * _THETA_FLOOR:g}, "
                "the arch mesh's reach"
            )
        needed = math.ceil(math.log2(half_pi / (grade_floor / 8.0)))
        low_levels = max(low_levels, needed)
    lows = [half_pi * 2.0**-k for k in range(low_levels, 0, -1)]
    highs = [half_pi * (1.0 - 2.0**-k) for k in range(2, _GRADE_LEVELS + 1)]
    breaks = np.array([0.0] + lows + highs + [half_pi])

    heap = []
    for start in range(0, len(breaks) - 1, _BLOCK_PANELS):
        block = breaks[start : start + _BLOCK_PANELS + 1]
        heap += _panels(f, block[:-1], block[1:])
    heapq.heapify(heap)
    total = sum(item[3] for item in heap)
    total_err = sum(-item[0] for item in heap)
    n_panels = len(heap)
    while total_err > rel_tol * max(abs(total), 1e-300):
        if n_panels >= _PANEL_CAP:
            raise ConvergenceFailure("adaptive quadrature exceeded panel cap")
        neg_err, lo, hi, fine = heapq.heappop(heap)
        total -= fine
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        for child in _panels(f, np.array([lo, mid]), np.array([mid, hi])):
            heapq.heappush(heap, child)
            total += child[3]
            total_err -= child[0]
        n_panels += 1
    return SingularIntegral(params=params, value=total, error_estimate=total_err)


def kappa_moment(params: ElasticaParams, t: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Moment M(t) = int_beta^alpha kappa^t / sqrt(Q) dkappa.

    These moments satisfy the integration-by-parts identity

        (1-p)^2 (1+t) M(1+t) = a (1+t-p) M(1+t-2p) - t p^2 M(-1+t),

    which downstream rewrites of the second variation rely on.
    """
    return integrate_over_arch(params, lambda k: k**t, rel_tol).value


def parts_identity_residual(
    params: ElasticaParams, t: float, rel_tol: float = DEFAULT_REL_TOL
) -> float:
    """Relative residual of the integration-by-parts identity at exponent t.

    Normalized by the largest of the three term magnitudes: near t = -1 the
    identity's sides both vanish, so side-based normalization is meaningless.
    """
    p, a = params.p, params.a
    t1 = (1.0 - p) ** 2 * (1.0 + t) * kappa_moment(params, 1.0 + t, rel_tol)
    t2 = a * (1.0 + t - p) * kappa_moment(params, 1.0 + t - 2.0 * p, rel_tol)
    t3 = t * p**2 * kappa_moment(params, -1.0 + t, rel_tol)
    scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
    return abs(t1 - (t2 - t3)) / scale
