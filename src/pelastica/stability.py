"""Second variation of the bending energy along closed critical curves.

The constant normal variation phi = 1 reduces the quadratic form to
2 m Upsilon(a), with Upsilon a single arch quadrature of eta/sqrt(Q) (one
for all the momenta of a grid at one p: upsilon_grid).  Three algebraic
rewrites of Upsilon (obtained through the moment identity in
quad.kappa_moment) serve as independent cross-checks, and p = 1/2 admits a
closed form in complete elliptic integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import CurveTrace
from .errors import DomainError, ResolutionError
from .qpotential import ElasticaParams, a_star
from .quad import DEFAULT_REL_TOL, _integrate_arches

_AGM_TOL = 1e-15
_MIN_SAMPLES_PER_PERIOD = 200


def elliptic_ke(zeta: float) -> tuple[float, float]:
    """Complete elliptic integrals (K, E) of modulus zeta by AGM iteration."""
    if not 0.0 <= zeta < 1.0:
        raise DomainError("elliptic modulus must lie in [0, 1)")
    a, b, c = 1.0, math.sqrt(1.0 - zeta * zeta), zeta
    c_sum = 0.5 * c * c
    power = 1.0
    for _ in range(64):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        c_sum += 0.5 * power * c * c
        if abs(c) < _AGM_TOL:
            break
    k_val = math.pi / (2.0 * a)
    return k_val, k_val * (1.0 - c_sum)


def _powers(kappa, r):
    """kappa^t for t = 1-p, -1-p, p-1, p+1, p-3 from kappa and r = kappa^(1-p)."""
    k2 = kappa * kappa
    inv_r = 1.0 / r
    return r, r / k2, inv_r, k2 * inv_r, inv_r / k2


def _eta(p: float, a, powers):
    """Integrand numerator of the phi = 1 second variation, from the
    momentum a (a float, or one float64 value per panel) and the five powers
    of kappa that _powers returns.

    eta = -(p+1) a k^(1-p) - (2-p) a k^(-1-p) + (1-p)^2 (2p+1) k^(p+1)
          + 2 (4p^2-4p+1) k^(p-1) + p^2 (3-2p) k^(p-3).
    """
    m_1mp, m_m1mp, m_pm1, m_1pp, m_pm3 = powers
    return (
        -(p + 1.0) * a * m_1mp
        - (2.0 - p) * a * m_m1mp
        + (1.0 - p) ** 2 * (2.0 * p + 1.0) * m_1pp
        + 2.0 * (4.0 * p**2 - 4.0 * p + 1.0) * m_pm1
        + p**2 * (3.0 - 2.0 * p) * m_pm3
    )


def upsilon_limit(p: float) -> float:
    """Limit of Upsilon as the momentum approaches its threshold:
    -sqrt(2 a_*) pi."""
    return -math.sqrt(2.0 * a_star(p)) * math.pi


@dataclass(frozen=True)
class SecondVariationReport:
    """Upsilon with cross-check residuals and the resulting quadratic form."""

    upsilon: float
    delta_squared: float
    rewrite_residuals: tuple[float, float, float]


def _rewrite_values(params: ElasticaParams, moments) -> tuple[float, float, float]:
    """Three equivalent three-moment expressions for Upsilon.

    moments are M(t) for t = 1-p, -1-p, p-1, p+1, p-3, in that order.
    """
    p, a = params.p, params.a
    c_crit = -4.0 * p**4 + 8.0 * p**3 + 2.0 * p**2 - 6.0 * p + 1.0
    m_1mp, m_m1mp, m_pm1, m_1pp, m_pm3 = moments
    r1 = (
        -a * p**2 / (1.0 + p) * m_1mp
        - a * (1.0 - p) ** 2 / (2.0 - p) * m_m1mp
        + c_crit / ((1.0 + p) * (2.0 - p)) * m_pm1
    )
    r2 = (
        -a * (1.0 - p) * (p**4 - 2.0 * p**3 - 3.0 * p**2 + 6.0 * p - 1.0)
        / (p**3 * (2.0 - p)) * m_1mp
        - a * (1.0 - p) ** 2 / (2.0 - p) * m_m1mp
        - (1.0 - p) ** 2 * c_crit / (p**3 * (2.0 - p)) * m_1pp
    )
    r3 = (
        -a * p**2 / (1.0 + p) * m_1mp
        - p**2 * c_crit / ((1.0 + p) * (1.0 - p) ** 3) * m_pm3
        - a * p * (-(p**5) + 4.0 * p**4 - p**3 - 8.0 * p**2 + 3.0 * p + 2.0)
        / ((1.0 + p) * (1.0 - p) ** 3 * (2.0 - p)) * m_m1mp
    )
    return r1, r2, r3


def _upsilon_rows(params_seq, rel_tol: float = DEFAULT_REL_TOL) -> list:
    """[direct Upsilon, M(1-p), M(-1-p), M(p-1), M(p+1), M(p-3)] at each of
    a sequence of parameters at one p: the six rows of one arch quadrature,
    on shared nodes, whose momenta share the integrand blocks."""
    p = params_seq[0].p
    if any(params.p != p for params in params_seq):
        raise DomainError("upsilon_grid needs every parameter set at one p")

    def numerator(k, q, r, a):
        powers = _powers(k, r)
        return (_eta(p, a, powers),) + powers

    integrals = _integrate_arches(
        params_seq, numerator, rel_tol, (None,) * len(params_seq), rows=6
    )
    return [integral.value.tolist() for integral in integrals]


def upsilon_grid(
    params_seq, m: int = 1, rel_tol: float = DEFAULT_REL_TOL
) -> tuple[SecondVariationReport, ...]:
    """Upsilon at each of a sequence of parameters at one p, by direct
    quadrature, cross-checked against its three rewrites.

    The direct integral of eta and the five moments of the rewrites are the
    rows of one arch integral, so they share its nodes, and the momenta's
    panels share the integrand blocks of one arch quadrature.  Each
    momentum keeps its own mesh, refinement and checks, and eta forms its
    (p + 1) a and (2 - p) a in float64 from the momentum of each node's
    arch, so every report equals upsilon's for its parameters alone, bit
    for bit.
    """
    if m < 1:
        raise DomainError("m must be at least 1")
    params_seq = tuple(params_seq)
    if not params_seq:
        return ()
    reports = []
    for params, (direct, *moments) in zip(params_seq, _upsilon_rows(params_seq, rel_tol)):
        scale = abs(direct) + 1e-300
        residuals = tuple(abs(r - direct) / scale for r in _rewrite_values(params, moments))
        reports.append(
            SecondVariationReport(
                upsilon=direct, delta_squared=2.0 * m * direct, rewrite_residuals=residuals
            )
        )
    return tuple(reports)


def upsilon(
    params: ElasticaParams, m: int = 1, rel_tol: float = DEFAULT_REL_TOL
) -> SecondVariationReport:
    """Upsilon by direct quadrature, cross-checked against its three
    rewrites: the one-momentum form of upsilon_grid."""
    return upsilon_grid((params,), m, rel_tol)[0]


def upsilon_elliptic_half(a: float) -> float:
    """Closed form of Upsilon at p = 1/2.

    The potential becomes quadratic, with roots alpha beta = 1 and
    alpha + beta = 4a, giving
    Upsilon = -(4/3) (sqrt(alpha) a E(zeta) + sqrt(beta) K(zeta)),
    zeta = sqrt((alpha - beta)/alpha).
    """
    if a <= 0.5:
        raise DomainError("p = 1/2 requires momentum a > 1/2")
    disc = math.sqrt(4.0 * a * a - 1.0)
    alpha = 2.0 * a + disc
    beta = 1.0 / alpha
    zeta = math.sqrt((alpha - beta) / alpha)
    k_val, e_val = elliptic_ke(zeta)
    return -(4.0 / 3.0) * (math.sqrt(alpha) * a * e_val + math.sqrt(beta) * k_val)


def second_variation(trace: CurveTrace) -> float:
    """Second variation under the constant normal variation phi = 1.

    Composite trapezoid of the phi^2 density mu over the uniform arc-length
    grid of the trace; over a closed curve it equals 2 m Upsilon.
    """
    st = trace.states
    if trace.index is not None:
        per_period = (len(st) - 1) / trace.index.m
        if per_period < _MIN_SAMPLES_PER_PERIOD:
            raise ResolutionError(
                f"need at least {_MIN_SAMPLES_PER_PERIOD} samples per period"
            )
    p = trace.params.p
    kappa, kp = st.kappa, st.kappa_prime
    mu = (
        -p * (1.0 - p) * ((p + 1.0) * kappa**2 + 2.0 - p) * kappa ** (p - 4.0) * kp**2
        + (1.0 - p) * kappa ** (p + 2.0)
        - 3.0 * kappa**p
        + p * kappa ** (p - 2.0)
    )
    return float(np.trapezoid(mu, st.s))


def circle_second_variation(p: float) -> float:
    """Second variation of the critical circle under phi = 1.

    Equals -2 Theta at the circle: -4 pi p^(p/2) (1-p)^((1-p)/2).
    """
    if not 0.0 < p < 1.0:
        raise DomainError("circle_second_variation requires p in (0, 1)")
    return -4.0 * math.pi * math.exp(
        0.5 * (p * math.log(p) + (1.0 - p) * math.log1p(-p))
    )

