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

from .errors import DomainError, NotFound, ResolutionError
from .qpotential import ElasticaParams, _zeroin, a_star, make_params, momentum_cap
from .quad import (
    DEFAULT_REL_TOL,
    _integrate_arches,
    _progression_layer,
    _progression_numerator,
    _resolves,
    integrate_over_arch,
)

_SCAN_BASE = 1e-4  # first grid offset relative to a_*
_SCAN_CAP = 1e6  # scan stops at a = cap * a_*
_LIMIT_GUARD = 1e-6  # refuse targets this close to the unattained sqrt(2) pi
# Lambda's quadrature tolerance in the closure scan: a tenth of the default.
_SCAN_REL_TOL = DEFAULT_REL_TOL * 0.1


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
    def target(self) -> float:
        return 2.0 * math.pi * self.n / self.m


def is_admissible(n: int, m: int) -> bool:
    """True iff gcd(n, m) = 1 and m < 2n < sqrt(2) m (exact integer test)."""
    if n < 1 or m < 1:
        return False
    return math.gcd(n, m) == 1 and m < 2 * n and 4 * n * n < 2 * m * m


def lambda_grid(params_seq, rel_tol: float = DEFAULT_REL_TOL) -> tuple[float, ...]:
    """Angular progression over one curvature period at each of a sequence
    of parameters at one p, in one arch quadrature.

    The momenta's panels share integrand blocks, while each momentum keeps
    its own mesh, refinement and checks, so every value equals lambda_p's
    for its parameters alone, bit for bit.  If the arch mesh cannot resolve
    Lambda at any of them, ResolutionError is raised before any integrand
    is evaluated.
    """
    params_seq = tuple(params_seq)
    if not params_seq:
        return ()
    p = params_seq[0].p
    if any(params.p != p for params in params_seq):
        raise DomainError("lambda_grid needs every parameter set at one p")
    layers = [_progression_layer(params) for params in params_seq]
    integrals = _integrate_arches(params_seq, _progression_numerator(p), rel_tol, layers)
    return tuple(
        2.0 * p * (1.0 - p) ** 2 * math.sqrt(params.a) * integral.value
        for params, integral in zip(params_seq, integrals)
    )


def lambda_p(params: ElasticaParams, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Angular progression over one curvature period.

    Near-circular parameters return the local-maximum limit, which
    simplifies to sqrt(2) pi.
    """
    return lambda_grid((params,), rel_tol)[0]


def period(params: ElasticaParams) -> float:
    """Arc length of one full curvature period, 2p(1-p) int dkappa/(kappa sqrt(Q))."""
    p = params.p
    val = integrate_over_arch(params, lambda k, q, r: 1.0 / k).value
    return 2.0 * p * (1.0 - p) * val


def solve_closure(p: float, index: ClosureIndex) -> ClosureIndex:
    """Solve Lambda(a) = 2 pi n / m for the momentum a; see solve_closures."""
    return solve_closures(p, (index,))[0]


def solve_closures(p: float, indices) -> tuple[ClosureIndex, ...]:
    """Solve Lambda(a) = 2 pi n / m for the momentum a of every index at p.

    Scans the geometric grid a_k = a_* (1 + 2^k * 1e-4) once for all targets
    and refines every sign change of each target's gap by Brent's method;
    monotonicity of Lambda is conjectural, so no uniqueness is assumed.
    a_solved is the smallest refined root.  Lambda is computed at p wherever
    p's arch resolves it (below momentum_cap(p) and the mesh's reach), and
    past that at 1 - p: the polar dual has Lambda_p(a) = Lambda_{1-p}(a) at
    every momentum.  The scan ends at 1e6 a_*, or at the first momentum that
    neither side resolves, and NotFound names the farther of the two stops:
    the last momentum before both momentum caps, or the first one whose
    Lambda the arch mesh cannot resolve.  Every index is checked before any
    Lambda is computed; the results keep the order of indices.

    Each grid momentum's side is settled first (make_params, the
    momentum_cap test and the arch rule's own reach predicate), and then
    Lambda of the whole own-side grid comes from one lambda_grid call and
    that of the 1 - p continuation from a second, bit for bit the values of
    one call per momentum.  Brent's refinement computes one momentum at a
    time.  Lambda is computed once per momentum and kept only for this call.
    """
    indices = tuple(indices)
    for index in indices:
        if not is_admissible(index.n, index.m):
            raise DomainError(f"({index.n}, {index.m}) is not an admissible closure pair")
        if abs(index.target - math.sqrt(2.0) * math.pi) < _LIMIT_GUARD:
            raise NotFound(
                "closure target is within 1e-6 of sqrt(2) pi, which is approached but not "
                "attained"
            )
    if not indices:
        return ()
    thr = a_star(p)
    a_end = thr * (1.0 + _SCAN_CAP)
    sides = tuple((q, min(a_end, momentum_cap(q))) for q in (p, 1.0 - p))

    def side(a: float):
        """The parameters at a of the first side, p or 1 - p, whose arch
        resolves Lambda there, or None."""
        for q, a_cap in sides:
            if a <= a_cap:
                params = make_params(q, a)
                if _resolves(params, _progression_layer(params)):
                    return params
        return None

    grid, by_side = [], {q: [] for q, _ in sides}
    k = 0
    while True:
        a_next = thr * (1.0 + 2.0**k * _SCAN_BASE)
        params = side(a_next)
        if params is None:
            break
        grid.append(a_next)
        by_side[params.p].append(params)
        k += 1
    if not grid:
        raise ResolutionError(f"neither p nor 1 - p resolves Lambda at a = {a_next!r}")
    # {momentum: Lambda}, one batched quadrature per side, shared by the scan
    # and every refinement
    lam = {}
    for params_seq in by_side.values():
        values = lambda_grid(params_seq, _SCAN_REL_TOL)
        lam.update(zip((params.a for params in params_seq), values))

    def progression(a: float) -> float:
        if a not in lam:
            params = side(a)
            if params is None:
                raise ResolutionError(f"neither p nor 1 - p resolves Lambda at a = {a!r}")
            lam[a] = lambda_p(params, _SCAN_REL_TOL)
        return lam[a]

    a_reach = max(a_cap for _, a_cap in sides)
    if a_next > a_reach:
        limit = "momentum_cap" if a_reach < a_end else f"{_SCAN_CAP:g} a_*"
        offset, why = 2.0 ** (k - 1) * _SCAN_BASE, f"the last grid momentum before {limit}"
    else:
        offset, why = 2.0**k * _SCAN_BASE, "where the arch mesh cannot resolve Lambda"

    solved = []
    for index in indices:
        target = index.target

        def gap(a: float) -> float:
            return progression(a) - target

        roots = []
        for a_lo, a_hi in zip(grid, grid[1:]):
            g_lo = gap(a_lo)
            if g_lo == 0.0:
                roots.append(a_lo)
            elif g_lo * gap(a_hi) < 0.0:
                roots.append(_zeroin(gap, a_lo, a_hi, xtol=1e-15, rtol=1e-14))
        if not roots:
            raise NotFound(
                f"no momentum solves Lambda = 2 pi {index.n}/{index.m}: the scan stopped at "
                f"a = a_* (1 + {offset:g}), {why}"
            )
        roots.sort()
        solved.append(replace(index, a_solved=roots[0], a_candidates=tuple(roots)))
    return tuple(solved)
