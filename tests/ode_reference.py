"""Reference profile, tests only: the curvature ODE integrated by DOP853.

The library traces a curve by arch quadrature (quad.ArchTrace).  This module
keeps the time-stepping pipeline it replaced, so that the tests compare the
quadrature trace with an integration that shares none of its code: the
expanded Euler-Lagrange equation for kappa, with psi' on-shell and the swept
area A' = (1 - x) psi', from kappa(0) = beta, kappa'(0) = psi(0) = A(0) = 0.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import solve_ivp

from pelastica.closure import period
from pelastica.curve import ProfileSamples, psi_rate


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
