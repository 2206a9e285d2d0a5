"""Reference profile, tests only: the curvature ODE integrated by DOP853.

The library traces a curve by arch quadrature (quad.ArchTrace).  This module
keeps the time-stepping pipeline it replaced, so that the tests compare the
quadrature trace with an integration that shares none of its code: the
expanded Euler-Lagrange equation for kappa, with psi' on-shell and the swept
area A' = (1 - x) psi', from kappa(0) = beta, kappa'(0) = psi(0) = A(0) = 0.
It also keeps the pieces of the ODE pipeline and of its lift that the
closed-form library needs none of: psi' on-shell, the analytic unit tangent
and the fiber direction.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import solve_ivp

from pelastica.closure import period
from pelastica.curve import ProfileSamples


def psi_rate(p: float, a: float, kappa, kappa_prime):
    """Angular speed psi' evaluated on-shell.

    The raw form (1-p) sqrt(a) k^(2-p) / (a k^(2(1-p)) - p^2) loses all
    precision near the curvature minimum for large momenta; substituting the
    first integral turns the denominator into
    (1-p)^2 (k^2 + p^2 (k'/k)^2), which is cancellation-free.
    """
    kappa = np.asarray(kappa, dtype=float)
    kp = np.asarray(kappa_prime, dtype=float)
    denom = (1.0 - p) * (kappa**2 + p**2 * (kp / kappa) ** 2)
    return math.sqrt(a) * kappa ** (2.0 - p) / denom


def unit_tangent(params, kappa, kappa_prime, psi) -> np.ndarray:
    """Analytic unit tangent gamma'(s) from profile values, shape (..., 3).

    Takes numpy arrays or scalars (ArchTrace.at's values).
    """
    p, a = params.p, params.a
    x = p * kappa ** (p - 1.0) / math.sqrt(a)
    xp = p * (p - 1.0) * kappa ** (p - 2.0) * kappa_prime / math.sqrt(a)
    r = np.sqrt(1.0 - x**2)
    rp = -x * xp / r
    psip = psi_rate(p, a, kappa, kappa_prime)
    sin_psi, cos_psi = np.sin(psi), np.cos(psi)
    return np.stack(
        [xp, rp * sin_psi + r * psip * cos_psi, rp * cos_psi - r * psip * sin_psi],
        axis=-1,
    )


def fiber_direction(q):
    """Unit-fiber tangent at q: multiplication by i on both complex slots."""
    q = np.asarray(q, dtype=float)
    return np.stack([-q[..., 1], q[..., 0], -q[..., 3], q[..., 2]], axis=-1)


def first_integral_residual(p, a, kappa, kappa_prime):
    """Absolute deviation of the conserved momentum along a trajectory.

    The conserved combination is
    p^2 (1-p)^2 k^(2(p-2)) k'^2 + (1-p)^2 k^(2p) + p^2 k^(2(p-1)) = a.
    """
    kappa = np.asarray(kappa, dtype=float)
    kp = np.asarray(kappa_prime, dtype=float)
    val = (
        p**2 * (1.0 - p) ** 2 * kappa ** (2.0 * (p - 2.0)) * kp**2
        + (1.0 - p) ** 2 * kappa ** (2.0 * p)
        + p**2 * kappa ** (2.0 * (p - 1.0))
    )
    return np.abs(val - a)


def ode_profile(params, periods, rtol=1e-10, samples_per_period=512):
    """DOP853 solution of (kappa, kappa', psi, A) over `periods` periods.

    Returns scipy's result: t and y at samples_per_period uniform samples per
    period (the library's sampling) and the dense output sol.
    """
    p, a = params.p, params.a
    x_scale = p / math.sqrt(a)

    def rhs(s, y):
        k, kp, _, _ = y
        k2pp = (2.0 - p) * kp * kp / k - k**3 / p + k / (1.0 - p)
        psip = psi_rate(p, a, k, kp)
        return (kp, k2pp, psip, (1.0 - x_scale * k ** (p - 1.0)) * psip)

    s_end = periods * period(params)
    n_samples = max(2, int(round(samples_per_period * periods)) + 1)
    sol = solve_ivp(
        rhs,
        (0.0, s_end),
        [params.beta, 0.0, 0.0, 0.0],
        method="DOP853",
        rtol=rtol,
        atol=rtol * min(params.beta, 1.0),
        dense_output=True,
        t_eval=np.linspace(0.0, s_end, n_samples),
    )
    assert sol.success, sol.message
    return sol


def ode_trace(trace, rtol=1e-10):
    """The trace of the same closed curve with its samples from the ODE."""
    sol = ode_profile(trace.params, trace.index.m, rtol=rtol)
    return replace(trace, states=ProfileSamples(sol.t, *sol.y))
