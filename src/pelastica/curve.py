"""Curvature profile reconstruction and the embedded spherical curve.

The curvature of a critical curve solves a second order ODE (the expanded
Euler-Lagrange equation), which we integrate together with the angular
progression psi.  The curve itself then comes from the explicit
parameterization

    gamma(s) = (x, sqrt(1-x^2) sin psi, sqrt(1-x^2) cos psi),
    x(s) = p kappa^(p-1)(s) / sqrt(a),

which stays inside an open half-sphere and winds monotonically around the
pole (0, 0, +-1).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .closure import ClosureIndex, period, solve_closure
from .errors import DomainError, InvariantBreach, StepFailure
from .qpotential import ElasticaParams, make_params

DEFAULT_STEP_TOL = 1e-10
SAMPLES_PER_PERIOD = 512
_RESIDUAL_BREACH = 1e-6


@dataclass(frozen=True)
class CurveState:
    """Profile sample: arc length, curvature, its derivative, progression."""

    s: float
    kappa: float
    kappa_prime: float
    psi: float


def first_integral_residual(p: float, a: float, kappa, kappa_prime):
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


@dataclass
class ProfileResult:
    """Integrated curvature profile with uniform samples and dense output."""

    params: ElasticaParams
    states: list[CurveState]
    sol: object  # scipy OdeSolution over [0, s_end]
    s_end: float

    def state_at(self, s: float) -> CurveState:
        k, kp, psi = self.sol(s)
        return CurveState(s=s, kappa=float(k), kappa_prime=float(kp), psi=float(psi))


def integrate_profile(
    params: ElasticaParams,
    s_end: float,
    step_tol: float = DEFAULT_STEP_TOL,
    samples_per_period: int = SAMPLES_PER_PERIOD,
    period_hint: float | None = None,
) -> ProfileResult:
    """Integrate the curvature ODE from the minimum-curvature point.

    State is (kappa, kappa', psi) with kappa(0) = beta, kappa'(0) = 0,
    psi(0) = 0.  Sampling is uniform with samples_per_period points per
    curvature period (period_hint, computed if not given).
    """
    if s_end <= 0.0:
        raise DomainError("s_end must be positive")
    p, a = params.p, params.a

    def rhs(s, y):
        k, kp, psi = y
        k2pp = (2.0 - p) * kp * kp / k - k**3 / p + k / (1.0 - p)
        return (kp, k2pp, psi_rate(p, a, k, kp))

    rho = period_hint if period_hint is not None else period(params)
    n_samples = max(2, int(round(samples_per_period * s_end / rho)) + 1)
    s_grid = np.linspace(0.0, s_end, n_samples)
    sol = solve_ivp(
        rhs,
        (0.0, s_end),
        [params.beta, 0.0, 0.0],
        method="DOP853",
        rtol=step_tol,
        atol=step_tol * min(params.beta, 1.0),
        dense_output=True,
        t_eval=s_grid,
    )
    if not sol.success:
        raise StepFailure(f"profile integration failed: {sol.message}")
    kappa, kappa_prime, psi = sol.y
    worst = float(np.max(first_integral_residual(p, a, kappa, kappa_prime)))
    if worst > _RESIDUAL_BREACH * a:
        raise InvariantBreach(
            f"first-integral residual {worst:.3e} exceeds {_RESIDUAL_BREACH:g} * a"
        )
    states = [
        CurveState(s=float(s), kappa=float(k), kappa_prime=float(kp), psi=float(ps))
        for s, k, kp, ps in zip(s_grid, kappa, kappa_prime, psi)
    ]
    return ProfileResult(params=params, states=states, sol=sol.sol, s_end=s_end)


@dataclass
class CurveTrace:
    """Embedded curve samples with closure diagnostics."""

    params: ElasticaParams
    index: ClosureIndex | None
    states: list[CurveState]
    points: np.ndarray  # (N, 3) unit vectors
    closure_gap: float
    winding_number: int
    profile: ProfileResult | None = field(default=None, repr=False)


def _embed_points(params: ElasticaParams, kappa, psi) -> np.ndarray:
    p, a = params.p, params.a
    x = p * np.asarray(kappa, dtype=float) ** (p - 1.0) / math.sqrt(a)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise DomainError("height coordinate left (0, 1); parameters are inconsistent")
    r = np.sqrt(1.0 - x**2)
    psi = np.asarray(psi, dtype=float)
    return np.column_stack([x, r * np.sin(psi), r * np.cos(psi)])


def embed(
    params: ElasticaParams,
    states: Sequence[CurveState],
    index: ClosureIndex | None = None,
    profile: ProfileResult | None = None,
) -> CurveTrace:
    """Map profile states to points on the unit sphere.

    closure_gap is the distance between the first and last points and
    winding_number the number of full turns of psi.
    """
    kappa = np.array([st.kappa for st in states])
    psi = np.array([st.psi for st in states])
    points = _embed_points(params, kappa, psi)
    gap = float(np.linalg.norm(points[-1] - points[0]))
    winding = int(round(psi[-1] / (2.0 * math.pi)))
    return CurveTrace(
        params=params,
        index=index,
        states=list(states),
        points=points,
        closure_gap=gap,
        winding_number=winding,
        profile=profile,
    )


def trace_closed_curve(
    p: float,
    index: ClosureIndex,
    step_tol: float = DEFAULT_STEP_TOL,
    samples_per_period: int = SAMPLES_PER_PERIOD,
) -> CurveTrace:
    """Solve the closure condition (unless already solved) and build the trace."""
    if index.a_solved is None:
        index = solve_closure(p, index)
    params = make_params(p, index.a_solved)
    rho = period(params)
    profile = integrate_profile(
        params,
        index.m * rho,
        step_tol=step_tol,
        samples_per_period=samples_per_period,
        period_hint=rho,
    )
    return embed(params, profile.states, index=index, profile=profile)


def unit_tangent(params: ElasticaParams, kappa, kappa_prime, psi) -> np.ndarray:
    """Analytic unit tangent gamma'(s) from profile values, shape (..., 3).

    Takes numpy arrays or scalars (the dense profile solution's values).
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


def tangent_vectors(trace: CurveTrace) -> np.ndarray:
    """Analytic unit tangents gamma'(s) at every sample."""
    kappa = np.array([st.kappa for st in trace.states])
    kp = np.array([st.kappa_prime for st in trace.states])
    psi = np.array([st.psi for st in trace.states])
    return unit_tangent(trace.params, kappa, kp, psi)


def geodesic_curvature_check(trace: CurveTrace) -> float:
    """Max deviation between finite-difference geodesic curvature and kappa.

    The geodesic curvature on the sphere is the component of gamma'' along
    gamma x gamma' for a unit-speed curve; interior samples only (one-sided
    stencils at the ends are too noisy to be informative).
    """
    pts = trace.points
    s = np.array([st.s for st in trace.states])
    if len(s) < 5:
        raise DomainError("trace too short for finite differences")
    h = s[1] - s[0]
    # Fourth-order central stencils; second order is not accurate enough for
    # the 1e-4 contract at the default sampling density.
    d1 = (-pts[4:] + 8.0 * pts[3:-1] - 8.0 * pts[1:-3] + pts[:-4]) / (12.0 * h)
    d2 = (
        -pts[4:] + 16.0 * pts[3:-1] - 30.0 * pts[2:-2] + 16.0 * pts[1:-3] - pts[:-4]
    ) / (12.0 * h**2)
    normal = np.cross(pts[2:-2], d1)
    kg = np.einsum("ij,ij->i", d2, normal)
    kappa = np.array([st.kappa for st in trace.states])[2:-2]
    return float(np.max(np.abs(np.abs(kg) - kappa)))


def monotone_progression_check(trace: CurveTrace) -> bool:
    """True iff the angular progression is strictly increasing."""
    psi = [st.psi for st in trace.states]
    return all(b > a for a, b in zip(psi[:-1], psi[1:]))


def trace_to_csv(trace: CurveTrace, path: str) -> None:
    """Write `s,kappa,kappa_prime,psi,x,y,z` rows with 12 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s", "kappa", "kappa_prime", "psi", "x", "y", "z"])
        for st, pt in zip(trace.states, trace.points):
            writer.writerow(
                [f"{v:.12g}" for v in (st.s, st.kappa, st.kappa_prime, st.psi, *pt)]
            )


def trace_to_json(trace: CurveTrace, path: str) -> None:
    """Write trace metadata and samples as JSON."""
    meta = {
        "p": trace.params.p,
        "a": trace.params.a,
        "n": trace.index.n if trace.index else None,
        "m": trace.index.m if trace.index else None,
        "closureGap": trace.closure_gap,
        "windingNumber": trace.winding_number,
        "samples": [
            {
                "s": st.s,
                "kappa": st.kappa,
                "kappa_prime": st.kappa_prime,
                "psi": st.psi,
                "point": [float(v) for v in pt],
            }
            for st, pt in zip(trace.states, trace.points)
        ],
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=1)


def trace_to_svg(trace: CurveTrace, path: str, size: int = 640) -> None:
    """Orthographic projection onto the plane x = 0 as a closed polyline."""
    yz = trace.points[:, 1:]
    half = size / 2.0
    scale = 0.45 * size
    coords = " ".join(
        f"{half + scale * y:.2f},{half - scale * z:.2f}" for y, z in yz
    )
    body = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<circle cx="{half}" cy="{half}" r="{scale}" fill="none" '
        f'stroke="#cccccc" stroke-width="1"/>\n'
        f'<polyline points="{coords}" fill="none" stroke="#1f4e8c" '
        f'stroke-width="1.5"/>\n</svg>\n'
    )
    with open(path, "w") as fh:
        fh.write(body)
