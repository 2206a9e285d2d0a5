"""Lift of spherical curves to flat tori in the 3-sphere of radius 2.

Identifying R^4 with C^2 via q = (z, w), the submersion

    pi(z, w) = (1/4) (|z|^2 - |w|^2, 2 conj(z) w)

maps the radius-2 sphere onto the unit 2-sphere with circle fibers generated
by q -> e^(it) q.  On that sphere the projection Jacobian J satisfies
J J^T = I, J q = 2 pi(q) and J (iq) = 0, so the horizontal lift of a unit
base tangent T is exactly J^T T; the lift of a closed base curve is
integrated once as an ODE with that velocity.  Phase-rotating the lift sweeps
out a flat torus (or cylinder segment when the holonomy does not close) whose
mean curvature is kappa/2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .curve import CurveTrace, tangent_vectors, unit_tangent
from .errors import (
    CoverOverflow,
    DomainError,
    PoleCollision,
    SeedError,
    StepFailure,
)

SPHERE_RADIUS = 2.0
_SEED_TOL = 1e-8
DEFAULT_ANGLE_TOL = 1e-6
MAX_COVERS = 64


def hopf_project(q):
    """Project points of the radius-2 sphere in R^4 to the unit 2-sphere."""
    q = np.asarray(q, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    x0, x1, x2, x3 = q.T
    base = np.column_stack(
        [
            0.25 * (x0**2 + x1**2 - x2**2 - x3**2),
            0.5 * (x0 * x2 + x1 * x3),
            0.5 * (x0 * x3 - x1 * x2),
        ]
    )
    return base[0] if single else base


def fiber_direction(q):
    """Unit-fiber tangent at q: multiplication by i on both complex slots."""
    q = np.asarray(q, dtype=float)
    return np.stack([-q[..., 1], q[..., 0], -q[..., 3], q[..., 2]], axis=-1)


def fiber_seed(base_point) -> np.ndarray:
    """Deterministic point of the fiber over a base point.

    Chooses the representative with the first complex slot real and
    positive, which exists whenever the base point is off (-1, 0, 0).
    """
    x, y, z3 = (float(v) for v in base_point)
    if x <= -1.0 + 1e-12:
        raise SeedError("no canonical seed over the antipodal pole")
    zmod = math.sqrt(2.0 * (1.0 + x))
    return np.array([zmod, 0.0, 2.0 * y / zmod, 2.0 * z3 / zmod])


def _projection_jacobian(q) -> np.ndarray:
    """Differential of hopf_project at points q (..., 4), as an array (3, 4, ...)."""
    x0, x1, x2, x3 = np.asarray(q, dtype=float).T
    return 0.5 * np.array(
        [
            [x0, x1, -x2, -x3],
            [x2, x3, x0, x1],
            [x3, -x2, -x1, x0],
        ]
    )


def _horizontal_velocity(q, tangent) -> np.ndarray:
    """Horizontal lift J(q)^T T of base tangents T at points q of the sphere.

    J^T T is orthogonal to q while hopf_project(q) is orthogonal to T.  Once
    an integrated lift drifts off the base curve that fails and J^T T gains a
    radial part; it is removed, so that the flow keeps |q| = 2.
    """
    q = np.asarray(q, dtype=float)
    vel = np.einsum("ij...,...i->...j", _projection_jacobian(q), tangent)
    radial = np.einsum("...i,...i->...", vel, q) / np.einsum("...i,...i->...", q, q)
    return vel - radial[..., None] * q


@dataclass
class HopfLift:
    """Horizontal lift samples over one traversal of the base curve."""

    trace: CurveTrace
    s: np.ndarray
    points: np.ndarray  # (N, 4), norm 2
    holonomy_angle: float  # fiber phase mismatch in [0, 2 pi)
    sol: object = field(repr=False)  # scipy OdeSolution over [0, s[-1]]


def horizontal_lift(
    trace: CurveTrace, seed: np.ndarray | None = None, step_tol: float = 1e-11
) -> HopfLift:
    """Integrate the unique horizontal curve over the base trace.

    The velocity is J^T T for the analytic base tangent T; the solution keeps
    its dense output so that the torus mesh can resample it.
    """
    if trace.profile is None:
        raise DomainError("trace must carry its integrated profile")
    gamma0 = trace.points[0]
    if seed is None:
        seed = fiber_seed(gamma0)
    seed = np.asarray(seed, dtype=float)
    if abs(np.linalg.norm(seed) - SPHERE_RADIUS) > _SEED_TOL:
        raise SeedError("seed must lie on the radius-2 sphere")
    if np.linalg.norm(hopf_project(seed) - gamma0) > _SEED_TOL:
        raise SeedError("seed does not project onto the base start point")

    params, profile_at = trace.params, trace.profile.sol

    def rhs(s, q):
        return _horizontal_velocity(q, unit_tangent(params, *profile_at(s)))

    s_grid = np.array([st.s for st in trace.states])
    sol = solve_ivp(
        rhs,
        (0.0, float(s_grid[-1])),
        seed,
        method="DOP853",
        rtol=step_tol,
        atol=step_tol,
        t_eval=s_grid,
        dense_output=True,
    )
    if not sol.success:
        raise StepFailure(f"horizontal lift integration failed: {sol.message}")
    points = sol.y.T
    z_end = complex(points[-1, 0], points[-1, 1])
    w_end = complex(points[-1, 2], points[-1, 3])
    z0 = complex(seed[0], seed[1])
    w0 = complex(seed[2], seed[3])
    # Hermitian inner product of endpoints; equals 4 e^(i holonomy) when the
    # endpoint sits on the start fiber.
    phase = z_end * z0.conjugate() + w_end * w0.conjugate()
    angle = math.atan2(phase.imag, phase.real) % (2.0 * math.pi)
    return HopfLift(trace=trace, s=s_grid, points=points, holonomy_angle=angle, sol=sol.sol)


def horizontality_residual(lift: HopfLift) -> float:
    """Max |<lift velocity, fiber direction>| over all samples."""
    vels = _horizontal_velocity(lift.points, tangent_vectors(lift.trace))
    fib = fiber_direction(lift.points)
    return float(np.max(np.abs(np.einsum("ij,ij->i", vels, fib))))


def _closing_covers(angle: float, angle_tol: float, max_covers: int) -> int | None:
    for c in range(1, max_covers + 1):
        mismatch = (c * angle) % (2.0 * math.pi)
        if min(mismatch, 2.0 * math.pi - mismatch) < angle_tol:
            return c
    return None


@dataclass
class HopfPatch:
    """Phase-swept torus (or cylinder segment) mesh over a lifted curve."""

    lift: HopfLift
    covers: int
    closed: bool
    vertices: np.ndarray  # (t_samples, s_total, 4)
    h_field: np.ndarray  # (s_total,) mean curvature kappa/2 per s column
    kappa: np.ndarray = field(repr=False, default=None)


def build_torus(
    trace: CurveTrace,
    lift: HopfLift | None = None,
    t_samples: int = 256,
    s_samples: int = 128,
    angle_tol: float = DEFAULT_ANGLE_TOL,
    max_covers: int = MAX_COVERS,
    require_closed: bool = False,
) -> HopfPatch:
    """Sweep the lift through the fiber phases into a quad mesh.

    If the lift holonomy is a rational angle, the s-range is extended over
    the smallest closing cover (the lift over cover k equals the first cover
    phase-rotated by k times the holonomy, so no re-integration is needed).
    Generic holonomy yields an open cylinder segment: the full fiber
    preimage is still a torus, but its (t, s) chart has a phase-twisted seam
    that a structured grid cannot close, so the seam stays open and the
    discrete estimators mask the boundary columns.
    """
    if lift is None:
        lift = horizontal_lift(trace)
    length = float(lift.s[-1])
    covers = _closing_covers(lift.holonomy_angle, angle_tol, max_covers)
    closed = covers is not None
    if not closed:
        if require_closed:
            raise CoverOverflow(
                f"holonomy {lift.holonomy_angle:.6f} rad does not close within "
                f"{max_covers} covers"
            )
        covers = 1

    s_one = np.linspace(0.0, length, s_samples, endpoint=False)
    lift_one = lift.sol(s_one).T
    lift_points = np.concatenate(
        [_phase_rotate(lift_one, c * lift.holonomy_angle) for c in range(covers)], axis=0
    )
    kappa = np.tile(trace.profile.sol(s_one)[0], covers)

    t = np.linspace(0.0, 2.0 * math.pi, t_samples, endpoint=False)
    cos_t, sin_t = np.cos(t), np.sin(t)
    x0, x1, x2, x3 = lift_points.T
    vertices = np.empty((t_samples, lift_points.shape[0], 4))
    vertices[..., 0] = np.outer(cos_t, x0) - np.outer(sin_t, x1)
    vertices[..., 1] = np.outer(sin_t, x0) + np.outer(cos_t, x1)
    vertices[..., 2] = np.outer(cos_t, x2) - np.outer(sin_t, x3)
    vertices[..., 3] = np.outer(sin_t, x2) + np.outer(cos_t, x3)
    return HopfPatch(
        lift=lift,
        covers=covers,
        closed=closed,
        vertices=vertices,
        h_field=0.5 * kappa,
        kappa=kappa,
    )


def _phase_rotate(points: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    x0, x1, x2, x3 = points.T
    return np.column_stack(
        [c * x0 - s * x1, s * x0 + c * x1, c * x2 - s * x3, s * x2 + c * x3]
    )


def _triangle_fans(nt: int, ns: int, wrap_s: bool):
    """Triangle index triples for the (possibly s-open) structured grid.

    Each quad (i, j) gives (a, b, c) then (a, c, d), quads in row-major order.
    """
    i = np.arange(nt)[:, None]
    j = np.arange(ns if wrap_s else ns - 1)[None, :]
    i2, j2 = (i + 1) % nt, (j + 1) % ns
    a, b, c, d = np.broadcast_arrays(i * ns + j, i2 * ns + j, i2 * ns + j2, i * ns + j2)
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def _cotan_and_areas(verts: np.ndarray, tris: np.ndarray):
    """Cotangent weights per triangle corner and barycentric vertex areas."""
    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    cots = []
    for a, b, c in ((p0, p1, p2), (p1, p2, p0), (p2, p0, p1)):
        u, v = b - a, c - a
        dot = np.einsum("ij,ij->i", u, v)
        cross2 = np.einsum("ij,ij->i", u, u) * np.einsum("ij,ij->i", v, v) - dot**2
        cots.append(dot / np.sqrt(np.maximum(cross2, 1e-300)))
    area = 0.5 * np.sqrt(np.maximum(cross2, 1e-300))
    vertex_area = np.zeros(len(verts))
    for col in range(3):
        np.add.at(vertex_area, tris[:, col], area / 3.0)
    return cots, area, vertex_area


def discrete_mean_curvature(patch: HopfPatch) -> np.ndarray:
    """Intrinsic-in-the-3-sphere mean curvature from the cotangent Laplacian.

    The ambient mean curvature vector of the mesh in R^4 combines the
    curvature within the sphere with the sphere's own normal curvature 1/2
    (radius 2), so |H_ambient|^2 = H^2 + 1/4 is inverted per vertex.
    """
    nt, ns, _ = patch.vertices.shape
    verts = patch.vertices.reshape(nt * ns, 4)
    tris = _triangle_fans(nt, ns, patch.closed)
    cots, _, vertex_area = _cotan_and_areas(verts, tris)
    lap = np.zeros_like(verts)
    # cotangent at corner k weights the opposite edge (k+1, k+2)
    for corner, (ja, jb) in enumerate(((1, 2), (2, 0), (0, 1))):
        w = cots[corner]
        va, vb = tris[:, ja], tris[:, jb]
        diff = verts[vb] - verts[va]
        np.add.at(lap, va, w[:, None] * diff)
        np.add.at(lap, vb, -w[:, None] * diff)
    lap /= 2.0 * vertex_area[:, None]
    h_amb = 0.5 * np.linalg.norm(lap, axis=1)
    h_sq = np.maximum(h_amb**2 - 0.25, 0.0)
    return np.sqrt(h_sq).reshape(nt, ns)


def discrete_gaussian_curvature(patch: HopfPatch) -> np.ndarray:
    """Angle-defect Gaussian curvature per vertex (flat tori give ~0)."""
    nt, ns, _ = patch.vertices.shape
    verts = patch.vertices.reshape(nt * ns, 4)
    tris = _triangle_fans(nt, ns, patch.closed)
    defect = np.full(len(verts), 2.0 * math.pi)
    p = [verts[tris[:, k]] for k in range(3)]
    for k in range(3):
        u = p[(k + 1) % 3] - p[k]
        v = p[(k + 2) % 3] - p[k]
        cosang = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        np.subtract.at(defect, tris[:, k], np.arccos(np.clip(cosang, -1.0, 1.0)))
    _, _, vertex_area = _cotan_and_areas(verts, tris)
    kg = defect / vertex_area
    if not patch.closed:
        # boundary columns carry meaningless defects on an open segment
        kg = kg.reshape(nt, ns)
        kg[:, 0] = 0.0
        kg[:, -1] = 0.0
        return kg
    return kg.reshape(nt, ns)


def surface_el_identity_residual(trace: CurveTrace) -> float:
    """Gap between the surface and base-curve critical-point equations.

    With the torus flat and its mean curvature kappa/2, the surface
    Euler-Lagrange expression p (H^(p-1))'' + 4(p-1) H^(p+1) + p H^(p-1)
    equals 2^(1-p) times the base expression
    p (kappa^(p-1))'' + (p-1) kappa^(p+1) + p kappa^(p-1) identically; both
    are evaluated by the same finite-difference stencil and compared.
    """
    p = trace.params.p
    s = np.array([st.s for st in trace.states])
    kappa = np.array([st.kappa for st in trace.states])
    h = 0.5 * kappa
    ds = s[1] - s[0]

    def second_deriv(f):
        return (f[2:] - 2.0 * f[1:-1] + f[:-2]) / ds**2

    surf = (
        p * second_deriv(h ** (p - 1.0))
        + 4.0 * (p - 1.0) * (h ** (p + 1.0))[1:-1]
        + p * (h ** (p - 1.0))[1:-1]
    )
    base = (
        p * second_deriv(kappa ** (p - 1.0))
        + (p - 1.0) * (kappa ** (p + 1.0))[1:-1]
        + p * (kappa ** (p - 1.0))[1:-1]
    )
    return float(np.max(np.abs(surf - 2.0 ** (1.0 - p) * base)))


def stereographic_project(
    vertices: np.ndarray, pole=(0.0, 0.0, 0.0, -1.0)
) -> np.ndarray:
    """Project radius-2 sphere points to R^3 from the given pole direction.

    The image plane is the hyperplane through the origin orthogonal to the
    pole; coordinates are expressed in a fixed orthonormal basis of it.
    """
    pole = np.asarray(pole, dtype=float)
    n = pole / np.linalg.norm(pole)
    shape = vertices.shape[:-1]
    v = vertices.reshape(-1, 4)
    height = v @ n
    denom = SPHERE_RADIUS - height
    if np.any(denom < 1e-6 * SPHERE_RADIUS):
        raise PoleCollision("a mesh vertex lies too close to the projection pole")
    planar = (v - np.outer(height, n)) * (SPHERE_RADIUS / denom)[:, None]
    basis = _plane_basis(n)
    return (planar @ basis.T).reshape(*shape, 3)


def inverse_stereographic(points3: np.ndarray, pole=(0.0, 0.0, 0.0, -1.0)) -> np.ndarray:
    """Analytic inverse of stereographic_project."""
    pole = np.asarray(pole, dtype=float)
    n = pole / np.linalg.norm(pole)
    basis = _plane_basis(n)
    shape = points3.shape[:-1]
    y = points3.reshape(-1, 3) @ basis
    t = np.einsum("ij,ij->i", y, y)
    r2 = SPHERE_RADIUS**2
    v = (2.0 * r2 * y + np.outer(SPHERE_RADIUS * (t - r2), n)) / (t + r2)[:, None]
    return v.reshape(*shape, 4)


def _plane_basis(n: np.ndarray) -> np.ndarray:
    """Orthonormal basis (3 x 4) of the hyperplane orthogonal to n."""
    mat = np.eye(4) - np.outer(n, n)
    # take the three dominant left singular vectors of the projector
    u, sv, _ = np.linalg.svd(mat)
    return u[:, :3].T


def patch_to_obj(patch: HopfPatch, path: str, pole=(0.0, 0.0, 0.0, -1.0)) -> None:
    """Write the projected mesh as OBJ with a sidecar curvature attribute."""
    projected = stereographic_project(patch.vertices, pole)
    nt, ns, _ = patch.vertices.shape
    tris = _triangle_fans(nt, ns, patch.closed)
    with open(path, "w") as fh:
        for v in projected.reshape(-1, 3):
            fh.write(f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n")
        for a, b, c in tris:
            fh.write(f"f {a + 1} {b + 1} {c + 1}\n")
    with open(path + ".meancurv", "w") as fh:
        for _ in range(nt):
            for hval in patch.h_field:
                fh.write(f"{hval:.12g}\n")


def patch_to_json(patch: HopfPatch, path: str) -> None:
    """Write mesh metadata (holonomy, covers, sizes) as JSON."""
    meta = {
        "p": patch.lift.trace.params.p,
        "a": patch.lift.trace.params.a,
        "holonomyAngle": patch.lift.holonomy_angle,
        "covers": patch.covers,
        "closed": patch.closed,
        "tSamples": int(patch.vertices.shape[0]),
        "sSamples": int(patch.vertices.shape[1]),
        "hRange": [float(patch.h_field.min()), float(patch.h_field.max())],
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=1)
