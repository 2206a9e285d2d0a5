"""Curvature potential of the conserved momentum, its roots and classification.

For an exponent p in (0, 1) and momentum a, non-constant periodic curvature
profiles oscillate between the two positive roots of

    Q(kappa) = a * kappa^(2(1-p)) - (1-p)^2 * kappa^2 - p^2,

which exist exactly when a exceeds the threshold a_* = p^p (1-p)^(1-p).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConvergenceFailure, DomainError, NoPeriodicOrbit

# Relative half-width (w.r.t. kappa_*) below which an orbit is treated as a
# perturbed circle and quadratures switch to their local-maximum limits.
NEAR_CIRCULAR_WIDTH = 1e-6

_BRACKET_EPS = 1e-8
# Absolute tolerance of the root searches in u = log(kappa): the smallest
# normal float, so that Brent's least step stays positive where a root sits
# at u = 0 and the relative tolerance alone would vanish.
_ROOT_XTOL = sys.float_info.min
# Brent's method's default relative tolerance, as in scipy's brentq.
_ZEROIN_RTOL = 4.0 * sys.float_info.epsilon
# Largest log(kappa) the quadrature layer can square without overflowing
# float64; kappa_star beyond exp of this is rejected up front.
_LOG_KAPPA_CAP = 150.0 * math.log(10.0)
# Smallest log(kappa) of a normal float64; the curvature minimum may not fall
# below it.
_LOG_KAPPA_FLOOR = math.log(sys.float_info.min)


def q_eval(p: float, a: float, kappa):
    """Evaluate Q(kappa) = a k^(2(1-p)) - (1-p)^2 k^2 - p^2 for kappa > 0."""
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa <= 0.0):
        raise DomainError("q_eval requires kappa > 0")
    val = a * kappa ** (2.0 * (1.0 - p)) - (1.0 - p) ** 2 * kappa**2 - p**2
    return float(val) if val.ndim == 0 else val


def q_prime(p: float, a: float, kappa):
    """First derivative of Q with respect to kappa."""
    kappa = np.asarray(kappa, dtype=float)
    val = 2.0 * a * (1.0 - p) * kappa ** (1.0 - 2.0 * p) - 2.0 * (1.0 - p) ** 2 * kappa
    return float(val) if val.ndim == 0 else val


def q_second(p: float, a: float, kappa: float) -> float:
    """Second derivative of Q with respect to kappa."""
    return 2.0 * a * (1.0 - p) * (1.0 - 2.0 * p) * kappa ** (-2.0 * p) - 2.0 * (1.0 - p) ** 2


def a_star(p: float) -> float:
    """Momentum threshold p^p (1-p)^(1-p); symmetric under p <-> 1-p."""
    if not 0.0 < p < 1.0:
        raise DomainError("a_star requires p in (0, 1)")
    return math.exp(p * math.log(p) + (1.0 - p) * math.log1p(-p))


def kappa_star(p: float, a: float) -> float:
    """Location of the single positive maximum of Q."""
    return (a / (1.0 - p)) ** (1.0 / (2.0 * p))


def momentum_cap(p: float) -> float:
    """Largest momentum whose curvature maximum stays representable.

    Beyond this the quadrature would have to square kappa values past the
    float64 range; scans should stop here.
    """
    val = 2.0 * p * _LOG_KAPPA_CAP + math.log1p(-p)
    return math.inf if val > 700.0 else math.exp(val)


@dataclass(frozen=True)
class ElasticaParams:
    """Validated (p, a) pair with derived constants and curvature bounds.

    beta < alpha are the two positive roots of Q; the curvature of the
    associated curve oscillates within [beta, alpha].
    """

    p: float
    a: float
    a_star: float
    kappa_star: float
    beta: float
    alpha: float

    @property
    def near_circular(self) -> bool:
        return self.alpha - self.beta < NEAR_CIRCULAR_WIDTH * self.kappa_star

    def q_prime(self, kappa):
        return q_prime(self.p, self.a, kappa)


def _q_sign_log(p: float, a: float, u):
    """Sign surrogate for Q at kappa = exp(u) (a float or an array), safe at
    any magnitude.

    Q > 0  iff  log a + 2(1-p) u > log((1-p)^2 e^{2u} + p^2), and the right
    hand side is a logaddexp, so neither kappa^2 nor kappa^(2(1-p)) is ever
    formed explicitly.  Also valid for p < 0, where Q keeps this form.
    """
    return math.log(a) + 2.0 * (1.0 - p) * u - np.logaddexp(
        2.0 * u + 2.0 * math.log1p(-p), 2.0 * math.log(abs(p))
    )


def _zeroin(
    f, xa: float, xb: float, xtol: float, rtol: float = _ZEROIN_RTOL, maxiter: int = 100
) -> float:
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of scipy's brentq.c, so it returns the same bits:
    inverse quadratic or secant steps, accepted when
    2|stry| < min(|spre|, 3|sbis| - delta), bisection otherwise, and a step
    of at least delta = (xtol + rtol |xcur|) / 2.  An endpoint where f is
    exactly 0 is returned as is; no sign change, a NaN value of f or more
    than maxiter iterations raise ConvergenceFailure.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ConvergenceFailure(f"root bracket function is NaN at {x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConvergenceFailure("root bracket does not straddle a sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise ConvergenceFailure(f"Brent root search exceeded {maxiter} iterations")


def curvature_bounds(p: float, a: float) -> tuple[float, float]:
    """Return (beta, alpha), the two positive roots of Q, beta < alpha.

    Brackets are analytically guaranteed: Q(0+) = -p^2 < 0, Q(kappa_*) > 0
    for a > a_*, and Q(U) < 0 at U = (a/(1-p)^2)^(1/(2p)).  Each root is
    found by Brent's method (_zeroin) on the sign surrogate _q_sign_log in
    u = log(kappa), where a bracket spanning hundreds of decades is a few
    hundred wide; the search ends within 8 ulps of u of a sign change, after
    ~15 evaluations.  Momenta whose curvature maximum or minimum leaves the
    float64 range raise DomainError before any search.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("curvature_bounds requires p in (0, 1)")
    thr = a_star(p)
    if a <= thr:
        raise NoPeriodicOrbit(f"a = {a} does not exceed a_* = {thr}")
    log_ks = (math.log(a) - math.log1p(-p)) / (2.0 * p)
    if log_ks > _LOG_KAPPA_CAP:
        raise DomainError(
            "curvature maximum exceeds the representable range; reduce the momentum"
        )
    # beta sits just above the point where the leading term of Q balances p^2
    log_beta = (2.0 * math.log(p) - math.log(a)) / (2.0 * (1.0 - p))
    if log_beta < _LOG_KAPPA_FLOOR:
        raise DomainError(
            "curvature minimum falls below the representable range; reduce the momentum"
        )
    # At u_hi the two leading terms of Q cancel exactly, leaving only -p^2;
    # the margin keeps the computed sign out of roundoff noise.
    u_hi = (math.log(a) - 2.0 * math.log1p(-p)) / (2.0 * p) + math.log1p(1e-6)
    # Just below the point where the leading term alone balances p^2 the
    # computed Q is negative beyond cancellation noise (the 0.9 factor leaves
    # a deficit of a few percent of p^2).
    u_lo = min(log_ks + math.log(_BRACKET_EPS), log_beta + math.log(0.9))
    sign = partial(_q_sign_log, p, a)
    beta = _zeroin(sign, u_lo, log_ks, xtol=_ROOT_XTOL)
    alpha = _zeroin(sign, log_ks, u_hi, xtol=_ROOT_XTOL)
    return math.exp(beta), math.exp(alpha)


def make_params(p: float, a: float) -> ElasticaParams:
    """Construct validated parameters for a non-circular orbit."""
    beta, alpha = curvature_bounds(p, a)
    return ElasticaParams(
        p=p, a=a, a_star=a_star(p), kappa_star=kappa_star(p, a), beta=beta, alpha=alpha
    )


def _log_sign_fn(p: float, a: float):
    """Sign surrogate of the oscillation bracket at kappa = exp(u), u a float
    or an array.

    Working in the log keeps the scan overflow-free at any curvature
    magnitude; the surrogate shares the sign (and roots) of the bracketed
    function exactly.
    """
    if p < 1.0:
        return lambda u: _q_sign_log(p, a, u)
    # For p > 1 the oscillation bracket is a - (p-1)^2 k^(2p) - p^2 k^(2(p-1)).
    return lambda u: math.log(a) - np.logaddexp(
        2.0 * p * u + 2.0 * math.log(p - 1.0),
        2.0 * (p - 1.0) * u + 2.0 * math.log(p),
    )


def classify_positive_roots(p: float, a: float) -> tuple[float, ...]:
    """Simple positive roots, ascending, by log-space grid scanning plus
    refinement.

    Two simple roots occur only for p in (0, 1) with a > a_*; every other
    real p yields at most one.
    """
    if a <= 0.0:
        raise DomainError("classify_positive_roots requires a > 0")
    if p in (0.0, 1.0):
        raise DomainError("p in {0, 1} admits no critical curves; classify separately")
    fn = _log_sign_fn(p, a)
    if 0.0 < p < 1.0 and a > a_star(p):
        # both roots are analytically localized: the lower one where the
        # leading term balances p^2, the upper one where it balances the
        # kappa^2 term; pad each side by a safe margin
        u_lo = (2.0 * math.log(p) - math.log(a)) / (2.0 * (1.0 - p)) - 2.0
        u_hi = (math.log(a) - 2.0 * math.log1p(-p)) / (2.0 * p) + 2.0
    else:
        u_lo, u_hi = -200.0, 200.0
    grid = np.linspace(u_lo, u_hi, 1024)
    vals = fn(grid)
    roots = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)):
        u = grid[i] if vals[i] == 0.0 else _zeroin(fn, grid[i], grid[i + 1], xtol=1e-14)
        roots.append(math.exp(u))
    return tuple(roots)
