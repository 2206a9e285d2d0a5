"""Singular-endpoint quadrature for integrals of the form int f(kappa)/sqrt(Q).

All closure, energy and second-variation quantities reduce to integrals over
one curvature arch [beta, alpha] with inverse-square-root singularities at
both ends.  The substitution kappa = beta + (alpha-beta) sin^2(theta) removes
them because Q has simple zeros at the roots, leaving the smooth integrand

    2 f(kappa(theta)) / sqrt(g(kappa(theta))),  theta in [0, pi/2],

with g(kappa) = Q(kappa) / ((alpha-kappa)(kappa-beta)).  Root distances and g
are evaluated in the theta variable throughout: for momenta far above the
threshold the integrand develops interior layers narrower than the floating
point resolution of kappa itself, but they stay resolvable in theta.  The
float64 roots are first refined by one extended-precision Newton step, so
that Q vanishes at the substitution's ends as closely as the Taylor switch
near them assumes.

One rule serves every arch quantity of a (p, a).  Its initial mesh is graded
geometrically toward theta = 0, halving the panel ends down to an eighth of

    floor = min(sqrt(beta / (alpha - beta)), grade_floor),

and never fewer than 8 levels.  sqrt(beta / (alpha - beta)) is the theta at
which kappa - beta reaches beta, the layer of every kappa^t moment;
grade_floor is a numerator's own, deeper layer (Lambda's).  Toward
theta = pi/2 the integrand is analytic, since Q has a simple root at alpha,
so the rest of the arch takes uniform panels no wider than pi/8 and three
halving levels.  The reference table's integrals take a median of 14 panels.

Each node forms r = kappa^(1-p) once, the only non-integer power of the rule,
then Q = a r^2 - (1-p)^2 kappa^2 - p^2 and the Jacobian.  Numerators are
called as numerator(kappa, q, r) with the nodes' curvature, stabilised Q and
r, and return one row of values or a stack of rows; every row is integrated
on the same nodes.

What stays adaptive: every panel's 15-point Gauss-Legendre rule in theta is
compared with the sum of the rules on its two halves (45 nodes a panel), and
while the summed estimate of any row misses rel_tol, the panel with the worst
relative estimate is bisected, both children in one integrand call.  The
initial mesh goes through the integrand in blocks of at most 128 panels
(5760 nodes) per call; the values equal those of one call per rule bit for
bit, since every node and every weighted sum is formed the same way.
"""

from __future__ import annotations

import heapq
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
# Fewest halving levels toward theta = 0, and the levels toward pi/2.
_LOW_LEVELS = 8
_HIGH_LEVELS = 3
# Smallest theta the graded mesh may reach (it grades to an eighth of
# grade_floor); finer panel ends would run out of float64 range.
_THETA_FLOOR = 1e-300
# Panels per integrand call on the initial mesh: bounds the node arrays
# (45 nodes a panel) when grade_floor asks for ~1000 grade levels.
_BLOCK_PANELS = 128

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def limit_at_maximum(params: ElasticaParams, numerator: Callable):
    """Local-maximum limit of the arch integral as the roots collapse.

    As a -> a_* both roots tend to kappa_* and the integral tends to
    numerator(kappa_*) * pi / sqrt(-Q''(kappa_*)/2), one value per row.
    """
    ks = params.kappa_star
    curv = -0.5 * q_second(params.p, params.a, ks)
    kappa = np.asarray([ks])
    values = np.asarray(numerator(kappa, np.zeros(1), kappa ** (1.0 - params.p)), dtype=float)
    limit = values.reshape(values.shape[:-1]) * math.pi / math.sqrt(curv)
    return float(limit) if limit.ndim == 0 else limit


@dataclass(frozen=True)
class SingularIntegral:
    """Value of one arch integral together with its error estimate.

    Both are floats for a one-row numerator and arrays, one entry per row,
    for a stack of rows.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray


def _q_derivatives(p: float, a: float, kappa):
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


def _polish_root(p: float, a: float, kappa: float):
    """One extended-precision Newton step on Q from a float64 root.

    At small p the upper root is ill-conditioned in float64 (~1e-12
    relative at p = 0.01); the substitution needs it to the precision of
    the Taylor switch, or g grows a spurious spike where the switch meets
    the root's error.
    """
    k = np.longdouble(kappa)
    r = k ** np.longdouble(1.0 - p)
    q = np.longdouble(a) * r * r - np.longdouble((1.0 - p) ** 2) * k * k
    q -= np.longdouble(p) ** 2
    return k - q / _q_derivatives(p, a, k)[0]


def _make_theta_integrand(params: ElasticaParams, numerator: Callable):
    """theta nodes -> (rows, nodes) integrand values of the numerator."""
    p, a = params.p, params.a
    beta, alpha = _polish_root(p, a, params.beta), _polish_root(p, a, params.alpha)
    width = alpha - beta
    db = _q_derivatives(p, a, beta)
    da = _q_derivatives(p, a, alpha)
    a_l, e_l = np.longdouble(a), np.longdouble(1.0 - p)
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
        r = kl**e_l
        lead = a_l * r * r
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
        return np.asarray(numerator(kl, q, r)).reshape(-1, theta.size) * (2.0 / np.sqrt(g))

    return integrand


def _arch_breaks(params: ElasticaParams, grade_floor: float | None = None) -> np.ndarray:
    """Panel ends in theta of the initial mesh for one (p, a)."""
    half_pi = 0.5 * math.pi
    # sqrt(beta / (alpha - beta)) in logs: the ratio underflows at large a.
    floor = math.exp(0.5 * (math.log(params.beta) - math.log(params.alpha - params.beta)))
    if grade_floor is not None:
        floor = min(floor, grade_floor)
    low_levels = max(_LOW_LEVELS, math.ceil(math.log2(half_pi / (floor / 8.0))))
    # halving toward 0 up to pi/8, uniform pi/8 panels, halving toward pi/2
    lows = [half_pi * 2.0**-k for k in range(low_levels, 1, -1)]
    mids = [0.25 * math.pi, 0.375 * math.pi]
    highs = [half_pi - 0.125 * math.pi * 2.0**-k for k in range(1, _HIGH_LEVELS + 1)]
    return np.array([0.0] + lows + mids + highs + [half_pi])


def _panels(f, lo, hi):
    """(fine, err) of the panels [lo, hi], each of shape (rows, panels).

    fine sums the GL15 rules on a panel's two halves and err is its distance
    from the rule on the whole panel.  The 45 nodes of every panel go through
    one integrand call.
    """
    mid = 0.5 * (lo + hi)
    # axis 0: the whole panel, its left half, its right half
    start, end = np.stack([lo, lo, mid]), np.stack([hi, mid, hi])
    centre, half = 0.5 * (start + end), 0.5 * (end - start)
    nodes = centre[..., None] + half[..., None] * _GL_NODES
    values = f(nodes.ravel()).reshape((-1,) + nodes.shape)
    # The weighted sums run in the integrand's (extended) precision before
    # narrowing.
    rules = (half * (values @ _GL_WEIGHTS)).astype(float)
    coarse, fine = rules[:, 0], rules[:, 1] + rules[:, 2]
    return fine, np.abs(coarse - fine)


def _heap_entries(lo, hi, fine, err, scale):
    """Heap entries (-priority, lo, hi, fine, err), one per panel.

    A panel's priority is its largest error relative to the scale of its row.
    """
    priority = np.max(err / scale[:, None], axis=0)
    return list(zip((-priority).tolist(), lo.tolist(), hi.tolist(), fine.T, err.T))


def integrate_over_arch(
    params: ElasticaParams,
    numerator: Callable,
    rel_tol: float = DEFAULT_REL_TOL,
    grade_floor: float | None = None,
) -> SingularIntegral:
    """Compute int_beta^alpha numerator(kappa, q, r)/sqrt(Q) dkappa adaptively.

    numerator(kappa, q, r) receives 1-D extended-precision node arrays (the
    curvature, the stabilised Q and r = kappa^(1-p)), must act elementwise,
    and returns an array of the nodes' shape or a stack of such rows; a stack
    is integrated on shared nodes and gives one value per row.

    The initial mesh is 15-point Gauss-Legendre panels in theta, graded
    geometrically toward the lower root down to an eighth of the smaller of
    sqrt(beta/(alpha-beta)) and grade_floor (at least 8 levels) and coarse
    toward the upper root, evaluated in blocks of at most 128 panels per
    integrand call.  While any row's error estimate misses rel_tol, the panel
    with the worst relative estimate is bisected, both children in one call.
    Numerators with an interior layer deeper than the moment layer (the
    layer's theta scale can fall below 1e-40 for momenta far above
    threshold) pass its theta scale as grade_floor; a floor the mesh cannot
    reach (below 8 * 1e-300, including 0 from an underflowed scale) raises
    ResolutionError.  Near-circular parameters short-circuit to the
    local-maximum limit.
    """
    if not 1e-14 <= rel_tol <= 1e-3:
        raise DomainError("rel_tol must lie in [1e-14, 1e-3]")
    if params.near_circular:
        limit = limit_at_maximum(params, numerator)
        return SingularIntegral(value=limit, error_estimate=0.0 * limit)

    f = _make_theta_integrand(params, numerator)
    if grade_floor is not None and not grade_floor / 8.0 >= _THETA_FLOOR:
        raise ResolutionError(
            f"inner layer's theta scale is below {8.0 * _THETA_FLOOR:g}, "
            "the arch mesh's reach"
        )
    breaks = _arch_breaks(params, grade_floor)
    los, his = breaks[:-1], breaks[1:]
    blocks = [
        _panels(f, los[start : start + _BLOCK_PANELS], his[start : start + _BLOCK_PANELS])
        for start in range(0, len(los), _BLOCK_PANELS)
    ]
    fine = np.concatenate([b[0] for b in blocks], axis=1)
    err = np.concatenate([b[1] for b in blocks], axis=1)
    total, total_err = fine.sum(axis=1), err.sum(axis=1)
    scale = np.maximum(np.abs(total), 1e-300)
    heap = _heap_entries(los, his, fine, err, scale)
    heapq.heapify(heap)
    n_panels = len(heap)
    while np.any(total_err > rel_tol * np.maximum(np.abs(total), 1e-300)):
        if n_panels >= _PANEL_CAP:
            raise ConvergenceFailure("adaptive quadrature exceeded panel cap")
        _, lo, hi, v, e = heapq.heappop(heap)
        total = total - v
        total_err = total_err - e
        mid = 0.5 * (lo + hi)
        c_lo, c_hi = np.array([lo, mid]), np.array([mid, hi])
        for child in _heap_entries(c_lo, c_hi, *_panels(f, c_lo, c_hi), scale):
            heapq.heappush(heap, child)
            total = total + child[3]
            total_err = total_err + child[4]
        n_panels += 1
    if total.size == 1:
        total, total_err = float(total[0]), float(total_err[0])
    return SingularIntegral(value=total, error_estimate=total_err)


def kappa_moment(params: ElasticaParams, t: float) -> float:
    """Moment M(t) = int_beta^alpha kappa^t / sqrt(Q) dkappa.

    These moments satisfy the integration-by-parts identity

        (1-p)^2 (1+t) M(1+t) = a (1+t-p) M(1+t-2p) - t p^2 M(-1+t),

    which downstream rewrites of the second variation rely on.
    """
    return integrate_over_arch(params, lambda k, q, r: k**t).value


def parts_identity_residual(params: ElasticaParams, t: float) -> float:
    """Relative residual of the integration-by-parts identity at exponent t.

    Normalized by the largest of the three term magnitudes: near t = -1 the
    identity's sides both vanish, so side-based normalization is meaningless.
    """
    p, a = params.p, params.a
    t1 = (1.0 - p) ** 2 * (1.0 + t) * kappa_moment(params, 1.0 + t)
    t2 = a * (1.0 + t - p) * kappa_moment(params, 1.0 + t - 2.0 * p)
    t3 = t * p**2 * kappa_moment(params, -1.0 + t)
    scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
    return abs(t1 - (t2 - t3)) / scale
