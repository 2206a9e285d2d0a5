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

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceFailure, DomainError, NoPeriodicOrbit

# Relative half-width (w.r.t. kappa_*) below which an orbit is treated as a
# perturbed circle and quadratures switch to their local-maximum limits.
NEAR_CIRCULAR_WIDTH = 1e-6

_ROOT_REL_TOL = 1e-12
_BRACKET_EPS = 1e-8
_MAX_BISECT = 200
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


def _q_sign_log(p: float, a: float, u: float) -> float:
    """Sign surrogate for Q at kappa = exp(u), safe at any magnitude.

    Q > 0  iff  log a + 2(1-p) u > log((1-p)^2 e^{2u} + p^2), and the right
    hand side is a logaddexp, so neither kappa^2 nor kappa^(2(1-p)) is ever
    formed explicitly.  Also valid for p < 0, where Q keeps this form.
    """
    return math.log(a) + 2.0 * (1.0 - p) * u - np.logaddexp(
        2.0 * u + 2.0 * math.log1p(-p), 2.0 * math.log(abs(p))
    )


def _refine_root(p: float, a: float, lo: float, hi: float) -> float:
    """Geometric bisection in log kappa, then two Newton polish steps.

    Bisecting in the log keeps the iteration count bounded by the log of the
    bracket's dynamic range (which can exceed 1e50 for extreme exponents)
    rather than the range itself.
    """
    ulo, uhi = math.log(lo), math.log(hi)
    flo = _q_sign_log(p, a, ulo)
    fhi = _q_sign_log(p, a, uhi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ConvergenceFailure("root bracket does not straddle a sign change")
    for _ in range(_MAX_BISECT):
        umid = 0.5 * (ulo + uhi)
        if uhi - ulo <= _ROOT_REL_TOL:
            break
        fmid = _q_sign_log(p, a, umid)
        if fmid == 0.0:
            return math.exp(umid)
        if flo * fmid < 0.0:
            uhi = umid
        else:
            ulo, flo = umid, fmid
    else:
        raise ConvergenceFailure("bisection exceeded iteration cap")
    u = 0.5 * (ulo + uhi)
    # The root can sit at the very edge of the final bracket, so the Newton
    # acceptance window is padded by one bracket width on each side.
    pad = uhi - ulo
    for _ in range(2):
        # d/du of the sign surrogate; sigma is the weight of the kappa^2 term.
        arg = 2.0 * (math.log(p) - math.log1p(-p) - u)
        sigma = 0.0 if arg > 700.0 else 1.0 / (1.0 + math.exp(arg))
        deriv = 2.0 * (1.0 - p) - 2.0 * sigma
        if deriv == 0.0:
            break
        cand = u - _q_sign_log(p, a, u) / deriv
        if ulo - pad < cand < uhi + pad:
            u = cand
    return math.exp(u)


def curvature_bounds(p: float, a: float) -> tuple[float, float]:
    """Return (beta, alpha), the two positive roots of Q, beta < alpha.

    Brackets are analytically guaranteed: Q(0+) = -p^2 < 0, Q(kappa_*) > 0
    for a > a_*, and Q(U) < 0 at U = (a/(1-p)^2)^(1/(2p)).  Momenta whose
    curvature maximum or minimum leaves the float64 range raise DomainError.
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
    ks = math.exp(log_ks)
    # At upper the two leading terms of Q cancel exactly, leaving only -p^2;
    # the margin keeps the computed sign out of pow() roundoff noise.
    upper = math.exp((math.log(a) - 2.0 * math.log1p(-p)) / (2.0 * p)) * (1.0 + 1e-6)
    # Just below the point where the leading term alone balances p^2 the
    # computed Q is negative beyond cancellation noise (the 0.9 factor leaves
    # a deficit of a few percent of p^2).
    lo = min(_BRACKET_EPS * ks, 0.9 * math.exp(log_beta))
    beta = _refine_root(p, a, lo, ks)
    alpha = _refine_root(p, a, ks, upper)
    return beta, alpha


def make_params(p: float, a: float) -> ElasticaParams:
    """Construct validated parameters for a non-circular orbit."""
    beta, alpha = curvature_bounds(p, a)
    return ElasticaParams(
        p=p, a=a, a_star=a_star(p), kappa_star=kappa_star(p, a), beta=beta, alpha=alpha
    )


@dataclass(frozen=True)
class RootClassification:
    """Simple positive roots of the bracketed function relevant for p."""

    count: int
    roots: tuple
    bracket_function: str  # "Q" for p < 1, "Qtilde" for p > 1


def _log_sign_fn(p: float, a: float):
    """Sign surrogate of the oscillation bracket at kappa = exp(u).

    Working in the log keeps the scan overflow-free at any curvature
    magnitude; the surrogate shares the sign (and roots) of the bracketed
    function exactly.
    """
    if p < 1.0:
        return "Q", lambda u: _q_sign_log(p, a, u)
    # For p > 1 the oscillation bracket is a - (p-1)^2 k^(2p) - p^2 k^(2(p-1)).
    return "Qtilde", lambda u: math.log(a) - np.logaddexp(
        2.0 * p * u + 2.0 * math.log(p - 1.0),
        2.0 * (p - 1.0) * u + 2.0 * math.log(p),
    )


def classify_positive_roots(p: float, a: float) -> RootClassification:
    """Count simple positive roots by log-space grid scanning plus refinement.

    Two simple roots occur only for p in (0, 1) with a > a_*; every other
    real p yields at most one.
    """
    if a <= 0.0:
        raise DomainError("classify_positive_roots requires a > 0")
    if p in (0.0, 1.0):
        raise DomainError("p in {0, 1} admits no critical curves; classify separately")
    name, fn = _log_sign_fn(p, a)
    if 0.0 < p < 1.0 and a > a_star(p):
        # both roots are analytically localized: the lower one where the
        # leading term balances p^2, the upper one where it balances the
        # kappa^2 term; pad each side by a safe margin
        u_lo = (2.0 * math.log(p) - math.log(a)) / (2.0 * (1.0 - p)) - 2.0
        u_hi = (math.log(a) - 2.0 * math.log1p(-p)) / (2.0 * p) + 2.0
    else:
        u_lo, u_hi = -200.0, 200.0
    grid = np.linspace(u_lo, u_hi, 1024)
    vals = np.array([fn(u) for u in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(math.exp(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(
                math.exp(brentq(fn, grid[i], grid[i + 1], xtol=1e-14))
            )
    return RootClassification(count=len(roots), roots=tuple(roots), bracket_function=name)
