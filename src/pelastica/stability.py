"""Second variation of the bending energy along closed critical curves.

The constant normal variation phi = 1 reduces the quadratic form to
2 m Upsilon(a), with Upsilon a single arch quadrature of eta/sqrt(Q).  Three
algebraic rewrites of Upsilon (obtained through the moment identity in
quad.kappa_moment) serve as independent cross-checks, and p = 1/2 admits a
closed form in complete elliptic integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import CurveTrace
from .errors import DomainError, ResolutionError
from .qpotential import ElasticaParams, a_star, make_params
from .quad import DEFAULT_REL_TOL, integrate_over_arch, kappa_moment

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


def eta(params: ElasticaParams, kappa):
    """Integrand numerator of the phi = 1 second variation.

    eta = -(p+1) a k^(1-p) - (2-p) a k^(-1-p) + (1-p)^2 (2p+1) k^(p+1)
          + 2 (4p^2-4p+1) k^(p-1) + p^2 (3-2p) k^(p-3).
    """
    kappa = np.asarray(kappa)
    if np.any(kappa <= 0.0):
        raise DomainError("eta requires kappa > 0")
    p, a = params.p, params.a
    return (
        -(p + 1.0) * a * kappa ** (1.0 - p)
        - (2.0 - p) * a * kappa ** (-1.0 - p)
        + (1.0 - p) ** 2 * (2.0 * p + 1.0) * kappa ** (p + 1.0)
        + 2.0 * (4.0 * p**2 - 4.0 * p + 1.0) * kappa ** (p - 1.0)
        + p**2 * (3.0 - 2.0 * p) * kappa ** (p - 3.0)
    )


def upsilon_limit(p: float) -> float:
    """Limit of Upsilon as the momentum approaches its threshold:
    -sqrt(2 a_*) pi."""
    return -math.sqrt(2.0 * a_star(p)) * math.pi


@dataclass(frozen=True)
class SecondVariationReport:
    """Upsilon with cross-check residuals and the resulting quadratic form."""

    params: ElasticaParams
    m: int
    upsilon: float
    delta_squared: float
    rewrite_residuals: tuple[float, float, float]
    method: str  # "quadrature" or "ellipticClosedForm"


def _rewrite_values(params: ElasticaParams, rel_tol: float) -> tuple[float, float, float]:
    """Three equivalent three-moment expressions for Upsilon."""
    p, a = params.p, params.a
    c_crit = -4.0 * p**4 + 8.0 * p**3 + 2.0 * p**2 - 6.0 * p + 1.0

    def mom(t):
        return kappa_moment(params, t, rel_tol)

    m_1mp = mom(1.0 - p)
    m_m1mp = mom(-1.0 - p)
    r1 = (
        -a * p**2 / (1.0 + p) * m_1mp
        - a * (1.0 - p) ** 2 / (2.0 - p) * m_m1mp
        + c_crit / ((1.0 + p) * (2.0 - p)) * mom(-1.0 + p)
    )
    r2 = (
        -a * (1.0 - p) * (p**4 - 2.0 * p**3 - 3.0 * p**2 + 6.0 * p - 1.0)
        / (p**3 * (2.0 - p)) * m_1mp
        - a * (1.0 - p) ** 2 / (2.0 - p) * m_m1mp
        - (1.0 - p) ** 2 * c_crit / (p**3 * (2.0 - p)) * mom(1.0 + p)
    )
    r3 = (
        -a * p**2 / (1.0 + p) * m_1mp
        - p**2 * c_crit / ((1.0 + p) * (1.0 - p) ** 3) * mom(-3.0 + p)
        - a * p * (-(p**5) + 4.0 * p**4 - p**3 - 8.0 * p**2 + 3.0 * p + 2.0)
        / ((1.0 + p) * (1.0 - p) ** 3 * (2.0 - p)) * m_m1mp
    )
    return r1, r2, r3


def upsilon(
    params: ElasticaParams, m: int = 1, rel_tol: float = DEFAULT_REL_TOL
) -> SecondVariationReport:
    """Upsilon by direct quadrature, cross-checked against its three rewrites."""
    if m < 1:
        raise DomainError("m must be at least 1")
    direct = integrate_over_arch(params, lambda k: eta(params, k), rel_tol).value
    scale = abs(direct) + 1e-300
    residuals = tuple(abs(r - direct) / scale for r in _rewrite_values(params, rel_tol))
    return SecondVariationReport(
        params=params,
        m=m,
        upsilon=direct,
        delta_squared=2.0 * m * direct,
        rewrite_residuals=residuals,
        method="quadrature",
    )


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


@dataclass(frozen=True)
class VariationField:
    """Periodic scalar field phi over the trace with supplied derivatives."""

    phi: np.ndarray
    phi_prime: np.ndarray
    phi_second: np.ndarray

    def __post_init__(self):
        for arr in (self.phi, self.phi_prime, self.phi_second):
            if len(arr) != len(self.phi):
                raise DomainError("field arrays must share one length")


def constant_field(n: int, value: float = 1.0) -> VariationField:
    """The phi = const variation (the paper's instability witness)."""
    return VariationField(
        phi=np.full(n, value), phi_prime=np.zeros(n), phi_second=np.zeros(n)
    )


def second_variation(trace: CurveTrace, phi: VariationField) -> float:
    """General quadratic form of the second variation over a sampled trace.

    Composite trapezoid over the uniform arc-length grid; the three pieces
    weight (phi'')^2, (phi')^2 and phi^2 with curvature-dependent densities.
    """
    states = trace.states
    if len(phi.phi) != len(states):
        raise DomainError("variation field length must match the trace")
    s = np.array([st.s for st in states])
    if trace.index is not None:
        per_period = (len(states) - 1) / trace.index.m
        if per_period < _MIN_SAMPLES_PER_PERIOD:
            raise ResolutionError(
                f"need at least {_MIN_SAMPLES_PER_PERIOD} samples per period"
            )
    p = trace.params.p
    kappa = np.array([st.kappa for st in states])
    kp = np.array([st.kappa_prime for st in states])
    mu = (
        -p * (1.0 - p) * ((p + 1.0) * kappa**2 + 2.0 - p) * kappa ** (p - 4.0) * kp**2
        + (1.0 - p) * kappa ** (p + 2.0)
        - 3.0 * kappa**p
        + p * kappa ** (p - 2.0)
    )
    integrand = (
        -p * (1.0 - p) * kappa ** (p - 2.0) * phi.phi_second**2
        + (1.0 - p)
        * ((2.0 * p + 1.0) * kappa**2 + 2.0 * p)
        * kappa ** (p - 2.0)
        * phi.phi_prime**2
        + mu * phi.phi**2
    )
    return float(np.trapezoid(integrand, s))


def circle_second_variation(p: float) -> float:
    """Second variation of the critical circle under phi = 1.

    Equals -2 Theta at the circle: -4 pi p^(p/2) (1-p)^((1-p)/2).
    """
    if not 0.0 < p < 1.0:
        raise DomainError("circle_second_variation requires p in (0, 1)")
    return -4.0 * math.pi * math.exp(
        0.5 * (p * math.log(p) + (1.0 - p) * math.log1p(-p))
    )


def fourier_diagnostic(trace: CurveTrace, k_max: int = 8) -> list[tuple[str, float]]:
    """Second variation over a coarse Fourier basis (diagnostic only).

    Evaluates phi in {1, cos(2 pi k s / L), sin(2 pi k s / L)} for
    k = 1..k_max and returns labelled values; the most negative entry hints
    at the least stable direction.
    """
    s = np.array([st.s for st in trace.states])
    length = s[-1]
    out = [("const", second_variation(trace, constant_field(len(s))))]
    for k in range(1, k_max + 1):
        w = 2.0 * math.pi * k / length
        for label, f, df, d2f in (
            (f"cos{k}", np.cos(w * s), -w * np.sin(w * s), -w * w * np.cos(w * s)),
            (f"sin{k}", np.sin(w * s), w * np.cos(w * s), -w * w * np.sin(w * s)),
        ):
            field = VariationField(phi=f, phi_prime=df, phi_second=d2f)
            out.append((label, second_variation(trace, field)))
    return out


def stability_report(
    p: float, a: float, m: int = 1, rel_tol: float = DEFAULT_REL_TOL
) -> SecondVariationReport:
    """Convenience wrapper building params and evaluating upsilon."""
    return upsilon(make_params(p, a), m=m, rel_tol=rel_tol)
