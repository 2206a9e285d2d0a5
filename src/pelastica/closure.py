"""Angular progression per curvature period and the closure condition.

A curve with momentum a closes after m curvature periods, winding n times,
exactly when the progression per period Lambda(a) equals 2 pi n / m.  The
admissible targets are constrained by the asymptotics

    Lambda(a) -> sqrt(2) pi  (a -> a_*),    Lambda(a) -> pi  (a -> infinity),

so (n, m) must be coprime with m < 2n < sqrt(2) m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from scipy.optimize import brentq

from .errors import DomainError, NotFound, ResolutionError
from .qpotential import ElasticaParams, a_star, make_params, momentum_cap
from .quad import DEFAULT_REL_TOL, integrate_over_arch

_SCAN_BASE = 1e-4  # first grid offset relative to a_*
_SCAN_CAP = 1e6  # scan stops at a = cap * a_*
_LIMIT_GUARD = 1e-6  # refuse targets this close to the unattained sqrt(2) pi


@dataclass(frozen=True)
class ClosureIndex:
    """Coprime winding/lobe pair (n, m), optionally with its solved momentum.

    When several momenta meet the closure target (uniqueness is only
    conjectured), all refined brackets are kept and a_solved is the smallest.
    """

    n: int
    m: int
    a_solved: float | None = None
    a_candidates: tuple = ()

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise DomainError("closure indices must be natural numbers")

    @property
    def q(self) -> float:
        return self.n / self.m

    @property
    def target(self) -> float:
        return 2.0 * math.pi * self.n / self.m


def is_admissible(n: int, m: int) -> bool:
    """True iff gcd(n, m) = 1 and m < 2n < sqrt(2) m (exact integer test)."""
    if n < 1 or m < 1:
        return False
    return math.gcd(n, m) == 1 and m < 2 * n and 4 * n * n < 2 * m * m


def lambda_p(params: ElasticaParams, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Angular progression over one curvature period.

    Near-circular parameters return the local-maximum limit, which
    simplifies to sqrt(2) pi.
    """
    p = params.p

    # a k^(2(1-p)) - p^2 = Q + (1-p)^2 k^2; the Q-aware form avoids the
    # cancellation that wrecks the denominator in the inner layer at large a.
    def numerator(k, q):
        return k ** (1.0 - p) / (q + (1.0 - p) ** 2 * k**2)

    # The denominator collapses to ~(1-p)^2 beta^2 at the lower root while Q
    # grows like Q'(beta) (alpha-beta) theta^2 away from it; their crossover
    # sets the theta scale of the inner layer the quadrature mesh must reach.
    # With the on-shell Q'(beta) = 2p(1-p)(p - (1-p) beta^2)/beta the scale is
    # formed in logs: at large momenta beta and the layer fall far below the
    # float range, and a layer the mesh cannot reach must raise there.
    beta = params.beta
    layer = None
    on_shell = p - (1.0 - p) * beta * beta
    if on_shell > 0.0:
        layer = math.exp(
            math.log1p(-p)
            + 1.5 * math.log(beta)
            - 0.5 * math.log(2.0 * p * (1.0 - p) * on_shell * (params.alpha - beta))
        )
    pref = 2.0 * p * (1.0 - p) ** 2 * math.sqrt(params.a)
    return pref * integrate_over_arch(params, numerator, rel_tol, grade_floor=layer).value


def period(params: ElasticaParams, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Arc length of one full curvature period, 2p(1-p) int dkappa/(kappa sqrt(Q))."""
    p = params.p
    val = integrate_over_arch(params, lambda k: 1.0 / k, rel_tol).value
    return 2.0 * p * (1.0 - p) * val


def solve_closure(p: float, index: ClosureIndex, tol: float = 1e-10) -> ClosureIndex:
    """Solve Lambda(a) = 2 pi n / m for the momentum a.

    Scans the geometric grid a_k = a_* (1 + 2^k * 1e-4) for sign changes and
    refines every bracket found; monotonicity of Lambda is conjectural, so no
    uniqueness is assumed.  a_solved is the smallest refined root.  The scan
    ends at momentum_cap or at the first momentum whose Lambda the arch mesh
    cannot resolve, whichever comes first.
    """
    if not is_admissible(index.n, index.m):
        raise DomainError(f"({index.n}, {index.m}) is not an admissible closure pair")
    if tol < 1e-10:
        raise DomainError("closure tolerance below 1e-10 is not supported")
    target = index.target
    if abs(target - math.sqrt(2.0) * math.pi) < _LIMIT_GUARD:
        raise NotFound(
            "closure target is within 1e-6 of sqrt(2) pi, which is approached but not attained"
        )
    thr = a_star(p)
    quad_tol = min(DEFAULT_REL_TOL, tol * 1e-1)

    def gap(a: float) -> float:
        return lambda_p(make_params(p, a), quad_tol) - target

    a_cap = min(thr * (1.0 + _SCAN_CAP), momentum_cap(p))
    roots = []
    a_prev = thr * (1.0 + _SCAN_BASE)
    g_prev = gap(a_prev)
    k = 1
    while True:
        a_next = thr * (1.0 + 2.0**k * _SCAN_BASE)
        if a_next > a_cap:
            break
        try:
            g_next = gap(a_next)
        except ResolutionError:
            break
        if g_prev == 0.0:
            roots.append(a_prev)
        elif g_prev * g_next < 0.0:
            roots.append(brentq(gap, a_prev, a_next, xtol=1e-15, rtol=1e-14))
        a_prev, g_prev = a_next, g_next
        k += 1
    if not roots:
        raise NotFound(f"no momentum solves Lambda = 2 pi {index.n}/{index.m} below {_SCAN_CAP} a_*")
    roots.sort()
    return replace(index, a_solved=roots[0], a_candidates=tuple(roots))
