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
that Q vanishes at the substitution's ends as closely as its Taylor forms
about them assume.  Each node within 1e-5 of the nearer root, relative to
that root, takes Q's cubic Taylor form about it, with the root distance
taken exactly from theta; every other node takes the direct form.  The
choice rests on the nodes' positions, never on the computed Q.

One rule serves every arch quantity of a (p, a), on one mesh.  Below
theta = pi/8 it is uniform in u = log theta, in which the smooth integrand
above, F(theta), becomes theta F(theta): panels at most 3 wide in u run
from pi/8 down to an eighth of

    floor = min(sqrt(beta / (alpha - beta)), grade_floor),

and at least down to pi/2 2^-8, with one theta panel from 0 beneath them.
sqrt(beta / (alpha - beta)) is the theta at which kappa - beta reaches
beta, the layer of every kappa^t moment; grade_floor is a numerator's own,
deeper layer (Lambda's).  Below a layer F is about constant and above it F
is a power of theta, so in u a layer is a transition of width O(1) however
deep it lies, and theta F is smooth on the scale of a panel; one panel
spans 3 / log 2 = 4.3 octaves of theta.  Toward theta = pi/2 the integrand
is analytic, since Q has a simple root at alpha, so the rest of the arch
takes uniform theta panels no wider than pi/8 and three halving levels.
The mesh grades toward theta = 0 only, so a numerator's layers must lie
there.  A floor below 8e-300 raises ResolutionError: its log panels' theta
would leave float64's normal range.

Each node forms r = kappa^(1-p) once, the only non-integer power of the rule,
then Q = a r^2 - (1-p)^2 kappa^2 - p^2 and the Jacobian.  r is formed without
a long double pow: kappa = m 2^E exactly (frexp), 1-p is split into a 42-bit
head and its tail so that each product with E is exact even where long
double is float64, and with I the integer nearest (1-p) E,

    r = exp2(((1-p) E - I) + (1-p) log2 m) 2^I,

whose exp2 argument stays in (-2, 1); r is within 2 ulp of the pow.  Q's
Taylor form is evaluated only at the nodes where it replaces the direct one.
Numerators are called as numerator(kappa, q, r) with the nodes' curvature,
stabilised Q and r, and return one row of values or a stack of rows; every
row is integrated on the same nodes.

What stays adaptive: every panel's 15-point Gauss-Legendre rule in its own
variable (theta, or u on a log panel, whose nodes take the Jacobian
dtheta/du = theta) is compared with the sum of the rules on its two halves
in that variable (45 nodes a panel).  While the summed estimate of any row
misses rel_tol, a round bisects every panel whose estimate exceeds an even
share, rel_tol |total| / panels, of such a row's tolerance, and re-sums the
rows.  The initial mesh and each round's children go through the integrand
in blocks of at most 128 panels (5760 nodes) per call; the values equal
those of one call per rule bit for bit, since every node and every weighted
sum is formed the same way.

ArchTrace runs the same rule on the rows of arc length, progression and
swept area, evaluates its final mesh's half panels once more in such blocks
and keeps their 15 node values as the Legendre coefficients of their
antiderivative in the half panel's own variable: a dense output of the
three integrals, from which a curve's profile is read at any arc length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure, DomainError, ResolutionError
from .qpotential import ElasticaParams, q_second

DEFAULT_REL_TOL = 1e-10
# Q is its cubic Taylor expansion about a root at the nodes whose distance d
# from it is below this fraction of the root.  Relative to Q, the expansion's
# remainder grows like (d/kappa)^3 and the direct form's rounding like
# eps_ld kappa/d, both times kappa/(alpha - beta) near threshold; they meet
# where (d/kappa)^4 ~ eps_ld, d/kappa ~ 2e-5, at any width.
_TAYLOR_REACH = 1e-5
_PANEL_CAP = 20000
# The log panels start no higher than pi/2 2^-_LOW_LEVELS; halving levels
# toward pi/2.
_LOW_LEVELS = 8
_HIGH_LEVELS = 3
# Widest initial panel in u = log theta.  Wider panels still meet rel_tol,
# but the arch trace's dense output interpolates on them: at width 4 the
# Hopf lift's horizontality reads 1.3e-10 on p = 0.7 gamma_{11,19}, above
# the 1e-10 its test allows.
_LOG_WIDTH = 3.0
# Smallest theta the mesh may reach (its log panels start at an eighth of
# grade_floor); finer panel ends would run out of float64 range.
_THETA_FLOOR = 1e-300
# Panels per integrand call: bounds the node arrays (45 nodes a panel) when
# grade_floor asks for ~1000 grade levels or a round bisects thousands.
_BLOCK_PANELS = 128

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
# GL15 values -> Legendre coefficients of their interpolant, and of its
# antiderivative from x = -1 (exact: the rule integrates degree 29).
_TO_LEGENDRE = (
    (np.arange(15) + 0.5)[:, None]
    * np.polynomial.legendre.legvander(_GL_NODES, 14).T
    * _GL_WEIGHTS
)
_ANTIDERIVATIVE = np.polynomial.legendre.legint(_TO_LEGENDRE, lbnd=-1)
# Newton steps on a panel polynomial: at most this many, and none after a
# step in the local variable x in [-1, 1] below _NEWTON_X_TOL, since the
# convergence is quadratic and the next step would be at roundoff.
_NEWTON_STEPS = 8
_NEWTON_X_TOL = 1e-8


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


def _power(k: np.ndarray, e: float) -> np.ndarray:
    """k ** e, in k's dtype, for an array k of positive normal float64 values.

    With k = m 2^E (m in [1/2, 1)) and I the integer nearest e E,
    k^e = exp2((e E - I) + e log2 m) 2^I.  e E is formed from a head of e
    of at most 42 bits and its tail of at most 11, so both products with
    E (|E| < 2^11) are exact in float64; an unsplit e E would be off by up
    to ~180 ulp where long double is float64.  Within 2 ulp of k ** e;
    long double's pow was the costliest step of a node.
    """
    head_m, head_e = math.frexp(e)
    head = math.ldexp(math.floor(math.ldexp(head_m, 42)), head_e - 42)
    m, exponent = np.frexp(k)
    product = exponent * head
    whole = np.rint(product)
    dtype = k.dtype.type
    t = (product - whole).astype(k.dtype) + exponent * dtype(e - head)
    t += dtype(e) * np.log2(m)
    return np.ldexp(np.exp2(t), whole.astype(np.int32))


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


def _theta_map(params: ElasticaParams):
    """(alpha - beta, theta -> (kappa, Q, r, sin^2 theta, cos^2 theta)).

    The map works in extended precision with the polished roots.  At the
    nodes within _TAYLOR_REACH of the nearer root, relative to that root, Q
    is its cubic Taylor expansion about the root; the choice depends on the
    nodes' exact root distances alone, never on the computed Q.
    """
    p, a = params.p, params.a
    beta, alpha = _polish_root(p, a, params.beta), _polish_root(p, a, params.alpha)
    width = alpha - beta
    db = _q_derivatives(p, a, beta)
    da = _q_derivatives(p, a, alpha)
    a_l, e = np.longdouble(a), 1.0 - p
    mid_c = np.longdouble((1.0 - p) ** 2)
    p2_l = np.longdouble(p) ** 2

    def taylor(coeffs, d):
        d1, d2, d3 = coeffs
        return d * (d1 + d * (0.5 * d2 + d * (d3 / 6.0)))

    def at(theta):
        s2 = np.sin(theta).astype(np.longdouble) ** 2
        c2 = np.cos(theta).astype(np.longdouble) ** 2
        # Root distances come straight from the substitution, so they stay
        # meaningful even when kappa - beta underflows the ulp of kappa.
        d_beta = width * s2
        d_alpha = width * c2
        kl = beta + d_beta
        r = _power(kl, e)
        q = a_l * r * r - mid_c * kl**2 - p2_l
        nearer_beta = s2 < c2
        near_beta = nearer_beta & (d_beta < _TAYLOR_REACH * beta)
        near_alpha = ~nearer_beta & (d_alpha < _TAYLOR_REACH * alpha)
        q[near_beta] = taylor(db, d_beta[near_beta])
        q[near_alpha] = taylor(da, -d_alpha[near_alpha])
        return kl, q, r, s2, c2

    return width, at


def _make_theta_integrand(params: ElasticaParams, numerator: Callable):
    """theta nodes -> (rows, nodes) integrand values of the numerator."""
    width, at = _theta_map(params)

    def integrand(theta):
        kl, q, r, s2, c2 = at(theta)
        if np.any(q <= 0.0):
            raise DomainError("Q <= 0 inside (beta, alpha): inconsistent roots")
        # Everything stays in extended precision: on the deepest panels
        # theta^2 underflows float64 and the integrand's pointwise
        # values can overflow it, even though the integral is O(1).
        g = q / (width**2 * s2 * c2)
        return np.asarray(numerator(kl, q, r)).reshape(-1, theta.size) * (2.0 / np.sqrt(g))

    return integrand


def _arch_breaks(params: ElasticaParams, grade_floor: float | None = None):
    """Panel ends in theta of the initial mesh for one (p, a), and a mask of
    the panels integrated in u = log theta."""
    half_pi = 0.5 * math.pi
    # sqrt(beta / (alpha - beta)) in logs: the ratio underflows at large a.
    floor = math.exp(0.5 * (math.log(params.beta) - math.log(params.alpha - params.beta)))
    if grade_floor is not None:
        floor = min(floor, grade_floor)
    u_low = math.log(min(floor / 8.0, half_pi * 2.0**-_LOW_LEVELS))
    u_high = math.log(0.125 * math.pi)
    logs = math.ceil((u_high - u_low) / _LOG_WIDTH)
    # a theta panel from 0, uniform log panels up to pi/8, uniform pi/8
    # panels, halving toward pi/2
    lows = np.exp(np.linspace(u_low, u_high, logs + 1))[:-1]
    mids = [0.125 * math.pi, 0.25 * math.pi, 0.375 * math.pi]
    highs = [half_pi - 0.125 * math.pi * 2.0**-k for k in range(1, _HIGH_LEVELS + 1)]
    breaks = np.concatenate([[0.0], lows, mids, highs, [half_pi]])
    log = np.zeros(breaks.size - 1, dtype=bool)
    log[1 : logs + 1] = True
    return breaks, log


def _local_nodes(lo, hi, log, x):
    """(theta, h, dtheta) at local variables x in [-1, 1] of the panels
    [lo, hi]: the nodes, the panels' half widths h in their own variables
    and d theta / d(own variable) at the nodes.

    lo, hi and log hold one entry per panel, and x broadcasts against
    (panels, 1).  A panel's own variable is theta, or u = log theta where
    log is set; a log panel's nodes are theta = lo exp(h (1 + x)), formed
    from its end rather than from u, whose rounding deep in the layer (|u|
    up to ~690) would cost theta ~1e-13 of its relative precision.
    """
    lo, hi, log = lo[:, None], hi[:, None], log[:, None]
    # the bottom theta panel starts at 0; a theta panel's ratio is unused
    h = np.where(log, 0.5 * np.log(hi / np.where(log, lo, hi)), 0.5 * (hi - lo))
    theta = np.where(log, lo * np.exp(h * (1.0 + x)), 0.5 * (lo + hi) + h * x)
    return theta, h, np.where(log, theta, 1.0)


def _midpoints(lo, hi, log):
    """Midpoints in theta of the panels [lo, hi], each in its own variable."""
    return _local_nodes(lo, hi, log, 0.0)[0][:, 0]


def _panels(f, lo, hi, log):
    """(fine, err) of the panels [lo, hi], each of shape (rows, panels).

    fine sums the GL15 rules on a panel's two halves and err is its distance
    from the rule on the whole panel, all in the panel's own variable.  The
    panels go through the integrand in blocks of at most _BLOCK_PANELS, 45
    nodes a panel, in one call each.
    """
    blocks = []
    for start in range(0, len(lo), _BLOCK_PANELS):
        b_lo, b_hi = lo[start : start + _BLOCK_PANELS], hi[start : start + _BLOCK_PANELS]
        b_log = log[start : start + _BLOCK_PANELS]
        mid = _midpoints(b_lo, b_hi, b_log)
        # the whole panels, their left halves, their right halves
        begin, end = np.concatenate([b_lo, b_lo, mid]), np.concatenate([b_hi, mid, b_hi])
        theta, h, dtheta = _local_nodes(begin, end, np.tile(b_log, 3), _GL_NODES)
        values = f(theta.ravel()).reshape(-1, *theta.shape) * dtheta
        # weighted sums in the integrand's (extended) precision, then narrowed
        rules = (h[:, 0] * (values @ _GL_WEIGHTS)).astype(float)
        blocks.append(rules.reshape(rules.shape[0], 3, -1))
    rules = np.concatenate(blocks, axis=-1)
    coarse, fine = rules[:, 0], rules[:, 1] + rules[:, 2]
    return fine, np.abs(coarse - fine)


def _adapt(params, numerator, rel_tol, grade_floor):
    """Row totals, their error sums and the final mesh's panels (lo, hi,
    log), refined in rounds; a round's children follow the panels it leaves
    whole.
    """
    f = _make_theta_integrand(params, numerator)
    if grade_floor is not None and not grade_floor / 8.0 >= _THETA_FLOOR:
        raise ResolutionError(
            f"inner layer's theta scale is below {8.0 * _THETA_FLOOR:g}, "
            "the arch mesh's reach"
        )
    breaks, log = _arch_breaks(params, grade_floor)
    lo, hi = breaks[:-1], breaks[1:]
    fine, err = _panels(f, lo, hi, log)
    while True:
        total, total_err = fine.sum(axis=1), err.sum(axis=1)
        tol = rel_tol * np.maximum(np.abs(total), 1e-300)
        missing = total_err > tol
        if not np.any(missing):
            return total, total_err, lo, hi, log
        split = np.any(err[missing] > tol[missing, None] / lo.size, axis=0)
        if lo.size + np.count_nonzero(split) > _PANEL_CAP:
            raise ConvergenceFailure("adaptive quadrature exceeded panel cap")
        mid = _midpoints(lo[split], hi[split], log[split])
        c_lo, c_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
        c_log = np.tile(log[split], 2)
        c_fine, c_err = _panels(f, c_lo, c_hi, c_log)
        lo, hi = np.concatenate([lo[~split], c_lo]), np.concatenate([hi[~split], c_hi])
        log = np.concatenate([log[~split], c_log])
        fine = np.concatenate([fine[:, ~split], c_fine], axis=1)
        err = np.concatenate([err[:, ~split], c_err], axis=1)


def _check_rel_tol(rel_tol: float) -> None:
    if not 1e-14 <= rel_tol <= 1e-3:
        raise DomainError("rel_tol must lie in [1e-14, 1e-3]")


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

    The initial mesh is 15-point Gauss-Legendre panels, uniform in
    u = log theta from pi/8 down to an eighth of the smaller of
    sqrt(beta/(alpha-beta)) and grade_floor (at least to pi/2 2^-8), one
    theta panel below and coarse theta panels toward the upper root,
    evaluated in blocks of at most 128 panels per integrand call.  While any
    row's error estimate misses rel_tol, rounds bisect the panels above an
    even share of its tolerance (see the module docstring) in the same
    blocks, up to 20000 panels (ConvergenceFailure).

    The mesh is fine only toward theta = 0, at the lower root: a
    numerator's layers must lie there.  One with a layer elsewhere, such as
    toward the upper root, can come back wrong with a tiny error estimate.
    Numerators with a layer deeper than the moment layer (its theta scale
    can fall below 1e-40 for momenta far above threshold) pass its theta
    scale as grade_floor; a floor the mesh cannot reach (below 8 * 1e-300,
    including 0 from an underflowed scale) raises ResolutionError.
    Near-circular parameters short-circuit to the local-maximum limit.
    """
    _check_rel_tol(rel_tol)
    if params.near_circular:
        limit = limit_at_maximum(params, numerator)
        return SingularIntegral(value=limit, error_estimate=0.0 * limit)

    total, total_err, *_ = _adapt(params, numerator, rel_tol, grade_floor)
    if total.size == 1:
        total, total_err = float(total[0]), float(total_err[0])
    return SingularIntegral(value=total, error_estimate=total_err)


def _progression_numerator(p: float) -> Callable:
    """Lambda's numerator kappa^(1-p) / (a kappa^(2(1-p)) - p^2).

    The denominator is formed as Q + (1-p)^2 kappa^2; the Q-aware form avoids
    the cancellation that wrecks it in the inner layer at large a.
    """

    def numerator(k, q, r):
        return r / (q + (1.0 - p) ** 2 * k**2)

    return numerator


def _progression_layer(params: ElasticaParams) -> float | None:
    """theta scale of the inner layer of Lambda's numerator, or None.

    The denominator collapses to ~(1-p)^2 beta^2 at the lower root while Q
    grows like Q'(beta) (alpha-beta) theta^2 away from it; their crossover
    sets the theta scale of the inner layer the quadrature mesh must reach.
    With the on-shell Q'(beta) = 2p(1-p)(p - (1-p) beta^2)/beta the scale is
    formed in logs: at large momenta beta and the layer fall far below the
    float range, and a layer the mesh cannot reach must raise there.
    """
    p, beta = params.p, params.beta
    on_shell = p - (1.0 - p) * beta * beta
    if on_shell <= 0.0:
        return None
    return math.exp(
        math.log1p(-p)
        + 1.5 * math.log(beta)
        - 0.5 * math.log(2.0 * p * (1.0 - p) * on_shell * (params.alpha - beta))
    )


class ArchTrace:
    """Curvature, progression and swept area of a curve as functions of arc
    length, from one arch quadrature over half a curvature period.

    Three rows are integrated on one mesh from the curvature minimum beta to
    the maximum alpha:

        ds   = p(1-p)/kappa                               dkappa/sqrt(Q)
        dpsi = p(1-p)^2 sqrt(a) kappa^(1-p)/(a kappa^(2(1-p)) - p^2) dkappa/sqrt(Q)
        dA   = (1 - p/(sqrt(a) kappa^(1-p))) dpsi

    (psi's numerator is Lambda's, A is the area swept between the curve and
    the pole (1, 0, 0)).  Every half panel of the final mesh keeps its 15
    Gauss-Legendre values as the Legendre coefficients of their antiderivative
    in the half panel's local variable x in [-1, 1], so each row is a
    piecewise polynomial in theta or, on a log panel, in log theta and costs
    no further integrand calls.  Near-circular parameters raise
    ResolutionError.

    at(s) reduces s to the rising half period by the profile's symmetries:
    reflection, kappa(T - s) = kappa(s), kappa'(T - s) = -kappa'(s),
    psi(T - s) = Lambda - psi(s), A(T - s) = A(T) - A(s); and shift, s + T
    adding Lambda to psi and A(T) to A.  It then solves s(x) = s by
    Newton's method on the panel polynomial, maps x back to theta, reads
    kappa = beta + (alpha - beta) sin^2(theta) and kappa' =
    +-kappa sqrt(Q)/(p(1-p)) from the first integral, and psi and A from
    their antiderivatives.
    """

    def __init__(self, params: ElasticaParams, rel_tol: float = DEFAULT_REL_TOL):
        _check_rel_tol(rel_tol)
        if params.near_circular:
            raise ResolutionError("near-circular arch: too narrow for the trace to resolve")
        p, sqrt_a = params.p, math.sqrt(params.a)
        progression = _progression_numerator(p)

        def numerator(k, q, r):
            dpsi = p * (1.0 - p) ** 2 * sqrt_a * progression(k, q, r)
            return p * (1.0 - p) / k, dpsi, (1.0 - p / (sqrt_a * r)) * dpsi

        _, _, lo, hi, log = _adapt(params, numerator, rel_tol, _progression_layer(params))
        # the half panels in theta order; the panels tile [0, pi/2]
        order = np.argsort(lo)
        lo, hi, log = lo[order], hi[order], log[order]
        mid = _midpoints(lo, hi, log)
        self._lo = np.column_stack([lo, mid]).ravel()
        self._hi = np.column_stack([mid, hi]).ravel()
        self._log = np.repeat(log, 2)
        # (rows, half panels, 15), evaluated in blocks of at most the 45
        # nodes of _BLOCK_PANELS panels
        f = _make_theta_integrand(params, numerator)
        nodes, half, dtheta = _local_nodes(self._lo, self._hi, self._log, _GL_NODES)
        blocks = np.split(nodes, range(3 * _BLOCK_PANELS, len(nodes), 3 * _BLOCK_PANELS))
        values = np.concatenate([f(b.ravel()).reshape(3, *b.shape) for b in blocks], axis=1)
        values *= dtheta
        # Scaled by the half width in extended precision before narrowing:
        # the integrand's values can overflow float64 on the deepest panels.
        antiderivative = values @ _ANTIDERIVATIVE.T * half
        self._antiderivative = antiderivative.astype(float)
        self._slope = (values[0] @ _TO_LEGENDRE.T * half).astype(float)
        # P_k(1) = 1, so a half panel's integral is its coefficients' sum.
        steps = antiderivative.sum(axis=-1)
        self._cumulative = np.concatenate(
            [np.zeros((3, 1)), np.cumsum(steps, axis=1).astype(float)], axis=1
        )
        self.params = params
        self._theta_map = _theta_map(params)[1]
        half_period, half_progression, half_area = self._cumulative[:, -1]
        self.period = 2.0 * half_period
        self.progression = 2.0 * half_progression
        self.area = 2.0 * half_area

    def _locate(self, s_half: np.ndarray):
        """Half panel index, local variable x and Legendre basis at x of the
        points where the arc-length row reaches s_half in [0, T/2]."""
        cumulative = self._cumulative[0]
        last = len(self._lo) - 1
        panel = np.clip(np.searchsorted(cumulative, s_half, side="right") - 1, 0, last)
        target = s_half - cumulative[panel]
        coeffs, slope = self._antiderivative[0, panel], self._slope[panel]
        x = np.clip(2.0 * target / (cumulative[panel + 1] - cumulative[panel]) - 1.0, -1.0, 1.0)
        for _ in range(_NEWTON_STEPS):
            basis = np.polynomial.legendre.legvander(x, _GL_NODES.size)
            step = (np.einsum("ij,ij->i", basis, coeffs) - target) / np.einsum(
                "ij,ij->i", basis[:, :-1], slope
            )
            x = np.clip(x - step, -1.0, 1.0)
            if np.max(np.abs(step), initial=0.0) < _NEWTON_X_TOL:
                break
        else:
            raise ConvergenceFailure("Newton's method on the arc-length polynomial failed")
        return panel, x, np.polynomial.legendre.legvander(x, _GL_NODES.size)

    def at(self, s):
        """(kappa, kappa', psi, A) at arc lengths s, an array of any shape,
        with s = 0 at the curvature minimum."""
        s = np.asarray(s, dtype=float)
        flat = s.ravel()
        turns = np.floor(flat / self.period)
        rest = flat - turns * self.period
        falling = rest > 0.5 * self.period
        panel, x, basis = self._locate(np.where(falling, self.period - rest, rest))
        theta = _local_nodes(self._lo[panel], self._hi[panel], self._log[panel], x[:, None])[0]
        kappa, q, *_ = self._theta_map(theta[:, 0])
        p = self.params.p
        speed = kappa * np.sqrt(np.maximum(q, 0.0)) / (p * (1.0 - p))
        psi_half, area_half = self._cumulative[1:, panel] + np.einsum(
            "rij,ij->ri", self._antiderivative[1:, panel], basis
        )
        columns = (
            kappa.astype(float),
            np.where(falling, -speed, speed).astype(float),
            turns * self.progression + np.where(falling, self.progression - psi_half, psi_half),
            turns * self.area + np.where(falling, self.area - area_half, area_half),
        )
        return tuple(column.reshape(s.shape) for column in columns)


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
