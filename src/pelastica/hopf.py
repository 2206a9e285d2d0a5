"""Lift of spherical curves to flat tori in the 3-sphere of radius 2.

Identifying R^4 with C^2 via q = (z, w), the submersion

    pi(z, w) = (1/4) (|z|^2 - |w|^2, 2 conj(z) w)

maps the radius-2 sphere onto the unit 2-sphere with circle fibers generated
by q -> e^(it) q.  The section sigma(x, y, z) = (r, 0, 2y/r, 2z/r) with
r = sqrt(2(1+x)) is regular off (-1, 0, 0), and <sigma', i sigma> =
-2 (1 - x) psi' along a curve gamma = (x, sqrt(1-x^2) sin psi,
sqrt(1-x^2) cos psi).  So the horizontal lift of a traced curve is, in
closed form,

    q(s) = e^(i phi(s)) sigma(gamma(s)),  phi' = (1 - x) psi' / 2,

with phi = A/2 for the swept area A that the arch quadrature traces along
with psi (curve.sample_profile); the holonomy A(L)/2 is the area-holonomy
relation (Pinkall 1985).  Phase-rotating the lift sweeps out a flat torus (or
cylinder segment when the holonomy does not close) whose mean curvature is
kappa/2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import curve
from .curve import CurveTrace, _embed_points, _number_lines
from .errors import PoleCollision, SeedError

SPHERE_RADIUS = 2.0
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


def fiber_seed(base_point) -> np.ndarray:
    """The section sigma: the fiber point over each base point (..., 3).

    Chooses the representative with the first complex slot real and
    positive, which exists whenever the base point is off (-1, 0, 0).
    """
    x, y, z3 = np.moveaxis(np.asarray(base_point, dtype=float), -1, 0)
    if np.any(x <= -1.0 + 1e-12):
        raise SeedError("no canonical seed over the antipodal pole")
    zmod = np.sqrt(2.0 * (1.0 + x))
    return np.stack([zmod, np.zeros_like(zmod), 2.0 * y / zmod, 2.0 * z3 / zmod], axis=-1)


def _holonomy_angle(trace: CurveTrace) -> float:
    """Fiber phase mismatch A(L)/2 mod 2 pi of the lift over the traced span."""
    return (0.5 * float(trace.states.area[-1])) % (2.0 * math.pi)


def horizontal_lift(points, area) -> np.ndarray:
    """The horizontal lift e^(i A/2) sigma(gamma) of curve points gamma (N, 3)
    with swept areas A (N,), shape (N, 4)."""
    return _phase_rotate(fiber_seed(points), 0.5 * np.asarray(area))


def _closing_covers(angle: float) -> int | None:
    for c in range(1, MAX_COVERS + 1):
        mismatch = (c * angle) % (2.0 * math.pi)
        if min(mismatch, 2.0 * math.pi - mismatch) < DEFAULT_ANGLE_TOL:
            return c
    return None


@dataclass
class HopfPatch:
    """Phase-swept torus (or cylinder segment) mesh over a lifted curve."""

    trace: CurveTrace
    holonomy_angle: float  # fiber phase mismatch in [0, 2 pi)
    covers: int
    closed: bool
    vertices: np.ndarray  # (t_samples, s_total, 4)
    h_field: np.ndarray  # (s_total,) mean curvature kappa/2 per s column


def build_torus(trace: CurveTrace, t_samples: int = 256, s_samples: int = 128) -> HopfPatch:
    """Sweep the lift through the fiber phases into a quad mesh.

    The first cover's s columns lift (horizontal_lift) the points and swept
    areas that one read of the trace's arch quadrature gives.  If the lift
    holonomy is a rational angle, the s-range is extended over the smallest
    closing cover within MAX_COVERS (the lift over cover k equals the first
    cover phase-rotated by k times the holonomy).
    Generic holonomy yields an open cylinder segment: the full fiber
    preimage is still a torus, but its (t, s) chart has a phase-twisted seam
    that a structured grid cannot close, so the seam stays open and the
    discrete estimators mask the boundary columns.
    """
    angle = _holonomy_angle(trace)
    covers = _closing_covers(angle)
    closed = covers is not None
    if not closed:
        covers = 1

    s_one = np.linspace(0.0, float(trace.states.s[-1]), s_samples, endpoint=False)
    kappa_one, _, psi_one, area_one = trace.arch.at(s_one)
    lift_one = horizontal_lift(_embed_points(trace.params, kappa_one, psi_one), area_one)
    # vertex (t, c, j): the lift at s_one[j] rotated by c covers' holonomy,
    # then by the fiber phase t, written once into _phase_rotate's result
    t = np.linspace(0.0, 2.0 * math.pi, t_samples, endpoint=False)
    covered = _phase_rotate(lift_one, np.arange(covers)[:, None] * angle)
    vertices = _phase_rotate(covered, t[:, None, None])
    return HopfPatch(
        trace=trace,
        holonomy_angle=angle,
        covers=covers,
        closed=closed,
        vertices=vertices.reshape(t_samples, covers * s_samples, 4),
        h_field=0.5 * np.tile(kappa_one, covers),
    )


def _phase_rotate(points: np.ndarray, angle) -> np.ndarray:
    """Multiply points (..., 4) by e^(i angle), angle broadcasting against
    points[..., 0], into one preallocated result."""
    c, s = np.cos(angle), np.sin(angle)
    x0, x1, x2, x3 = np.moveaxis(points, -1, 0)
    out = np.empty(np.broadcast_shapes(np.shape(c), x0.shape) + (4,))
    out[..., 0] = c * x0 - s * x1
    out[..., 1] = s * x0 + c * x1
    out[..., 2] = c * x2 - s * x3
    out[..., 3] = s * x2 + c * x3
    return out


def _fan_rows(nt: int, ns: int, wrap_s: bool, start: int, stop: int):
    """Triangle index triples of the (possibly s-open) structured grid whose
    quads lie in grid rows start..stop-1.

    Each quad (i, j) gives (a, b, c) then (a, c, d), quads in row-major order.
    """
    i = np.arange(start, stop)[:, None]
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
    return cots, vertex_area


def discrete_mean_curvature(patch: HopfPatch) -> np.ndarray:
    """Intrinsic-in-the-3-sphere mean curvature from the cotangent Laplacian.

    The ambient mean curvature vector of the mesh in R^4 combines the
    curvature within the sphere with the sphere's own normal curvature 1/2
    (radius 2), so |H_ambient|^2 = H^2 + 1/4 is inverted per vertex.
    """
    nt, ns, _ = patch.vertices.shape
    verts = patch.vertices.reshape(nt * ns, 4)
    tris = _fan_rows(nt, ns, patch.closed, 0, nt)
    cots, vertex_area = _cotan_and_areas(verts, tris)
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
    tris = _fan_rows(nt, ns, patch.closed, 0, nt)
    cots, vertex_area = _cotan_and_areas(verts, tris)
    defect = np.full(len(verts), 2.0 * math.pi)
    for k in range(3):
        # the angle at corner k, whose cotangent is cots[k]
        np.subtract.at(defect, tris[:, k], np.arctan2(1.0, cots[k]))
    kg = (defect / vertex_area).reshape(nt, ns)
    if not patch.closed:
        # boundary columns carry meaningless defects on an open segment
        kg[:, [0, -1]] = 0.0
    return kg


def stereographic_project(
    vertices: np.ndarray, pole=(0.0, 0.0, 0.0, -1.0)
) -> np.ndarray:
    """Project radius-2 sphere points to R^3 from the given pole direction.

    The image plane is the hyperplane through the origin orthogonal to the
    pole; coordinates are expressed in a fixed orthonormal basis of it.
    """
    n, basis = _pole_frame(pole)
    v = vertices.reshape(-1, 4)
    _check_pole(v, n)
    return _project_rows(v, n, basis).reshape(*vertices.shape[:-1], 3)


def _pole_frame(pole):
    """The unit pole direction n and the plane basis orthogonal to it."""
    pole = np.asarray(pole, dtype=float)
    n = pole / np.linalg.norm(pole)
    return n, _plane_basis(n)


def _height(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """v @ n for rows v (N, 4), a column at a time: no BLAS call, which on
    a threaded OpenBLAS costs more than the arithmetic."""
    height = v[:, 0] * n[0]
    for j in range(1, 4):
        height += v[:, j] * n[j]
    return height


def _check_pole(v: np.ndarray, n: np.ndarray) -> None:
    if np.any(SPHERE_RADIUS - _height(v, n) < 1e-6 * SPHERE_RADIUS):
        raise PoleCollision("a mesh vertex lies too close to the projection pole")


def _project_rows(v: np.ndarray, n: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows v (N, 4) projected to plane coordinates (N, 3), a column at a
    time: each column of v minus its pole component, scaled, is added into
    every output column.  The columns start at +0, as a BLAS sum does, so
    at the default pole, where every step is exact, the zeros keep a BLAS
    product's sign."""
    height = _height(v, n)
    scale = SPHERE_RADIUS / (SPHERE_RADIUS - height)
    out = np.zeros((len(v), 3))
    for j in range(4):
        planar = (v[:, j] - height * n[j]) * scale
        for k in range(3):
            out[:, k] += planar * basis[k, j]
    return out


def inverse_stereographic(points3: np.ndarray, pole=(0.0, 0.0, 0.0, -1.0)) -> np.ndarray:
    """Analytic inverse of stereographic_project."""
    n, basis = _pole_frame(pole)
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
    """Write the projected mesh as OBJ with a sidecar curvature attribute.

    The text is that of one "v %.12g %.12g %.12g" line per vertex, one
    "f %d %d %d" line per triangle (1-based) and one "%.12g" line of kappa/2
    per vertex in the sidecar, assembled from the mesh's structure:
    - every vertex is checked against the pole before the file is opened,
      so a PoleCollision writes nothing;
    - vertices are projected (stereographic_project's formula) and go
      through the numeric line writer (curve._number_lines) a block of
      curve._BLOCK_LINES at a time, so no full-size temporary is formed;
    - faces go through the same writer as %d fields, from as many whole
      grid rows at a time as a block of curve._BLOCK_LINES lines holds;
    - the sidecar's values depend only on the s column, so one column's text
      is formatted once and written once per fiber phase.
    """
    nt, ns, _ = patch.vertices.shape
    v = patch.vertices.reshape(-1, 4)
    n, basis = _pole_frame(pole)
    _check_pole(v, n)
    with open(path, "wb") as fh:
        for start in range(0, len(v), curve._BLOCK_LINES):
            projected = _project_rows(v[start : start + curve._BLOCK_LINES], n, basis)
            fh.writelines(_number_lines("v %.12g %.12g %.12g\n", projected))
        rows = max(1, curve._BLOCK_LINES // (2 * ns))  # a grid row has <= 2 ns faces
        for start in range(0, nt, rows):
            faces = _fan_rows(nt, ns, patch.closed, start, min(start + rows, nt))
            fh.writelines(_number_lines("f %d %d %d\n", faces + 1))  # 1-based
    column = b"".join(_number_lines("%.12g\n", patch.h_field[:, None]))
    with open(path + ".meancurv", "wb") as fh:
        for _ in range(nt):
            fh.write(column)


def patch_to_json(patch: HopfPatch, path: str) -> None:
    """Write mesh metadata (holonomy, covers, sizes) as JSON."""
    meta = {
        "p": patch.trace.params.p,
        "a": patch.trace.params.a,
        "holonomyAngle": patch.holonomy_angle,
        "covers": patch.covers,
        "closed": patch.closed,
        "tSamples": int(patch.vertices.shape[0]),
        "sSamples": int(patch.vertices.shape[1]),
        "hRange": [float(patch.h_field.min()), float(patch.h_field.max())],
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=1)
