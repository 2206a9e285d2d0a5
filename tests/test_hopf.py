"""Submersion to the 2-sphere, horizontal lifts and torus meshes."""

import json
import math

import numpy as np
import pytest

from pelastica.errors import CoverOverflow, PoleCollision, SeedError
from pelastica.hopf import (
    SPHERE_RADIUS,
    _horizontal_velocity,
    _projection_jacobian,
    _triangle_fans,
    build_torus,
    discrete_gaussian_curvature,
    discrete_mean_curvature,
    fiber_direction,
    fiber_seed,
    hopf_project,
    horizontal_lift,
    horizontality_residual,
    inverse_stereographic,
    patch_to_json,
    patch_to_obj,
    stereographic_project,
    surface_el_identity_residual,
)


def _random_sphere_points(rng, n):
    q = rng.normal(size=(n, 4))
    return SPHERE_RADIUS * q / np.linalg.norm(q, axis=1, keepdims=True)


def test_projection_lands_on_unit_sphere():
    rng = np.random.default_rng(5)
    q = _random_sphere_points(rng, 200)
    base = hopf_project(q)
    assert np.max(np.abs(np.linalg.norm(base, axis=1) - 1.0)) < 1e-12


def test_projection_constant_on_fibers():
    rng = np.random.default_rng(6)
    q = _random_sphere_points(rng, 50)
    z = q[:, 0] + 1j * q[:, 1]
    w = q[:, 2] + 1j * q[:, 3]
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi, size=50))
    rotated = np.column_stack(
        [(z * phase).real, (z * phase).imag, (w * phase).real, (w * phase).imag]
    )
    assert np.max(np.abs(hopf_project(rotated) - hopf_project(q))) < 1e-12


def test_fiber_direction_tangent_to_fiber():
    rng = np.random.default_rng(8)
    q = _random_sphere_points(rng, 30)
    fib = fiber_direction(q)
    # unit speed relative to the sphere radius and orthogonal to position
    assert np.max(np.abs(np.linalg.norm(fib, axis=1) - SPHERE_RADIUS)) < 1e-12
    assert np.max(np.abs(np.einsum("ij,ij->i", fib, q))) < 1e-12
    # projection differential kills it: finite fiber motion fixes the base
    eps = 1e-7
    moved = q + eps * fib
    moved *= SPHERE_RADIUS / np.linalg.norm(moved, axis=1, keepdims=True)
    assert np.max(np.abs(hopf_project(moved) - hopf_project(q))) < 1e-8


def test_fiber_seed_projects_correctly():
    for base in ([1.0, 0.0, 0.0], [0.2, -0.5, 0.3], [0.0, 0.0, -1.0]):
        base = np.asarray(base, dtype=float)
        base /= np.linalg.norm(base)
        seed = fiber_seed(base)
        assert np.linalg.norm(seed) == pytest.approx(SPHERE_RADIUS, rel=1e-14)
        assert np.max(np.abs(hopf_project(seed) - base)) < 1e-12
    with pytest.raises(SeedError):
        fiber_seed([-1.0, 0.0, 0.0])


def test_horizontal_velocity_matches_stacked_least_squares():
    # reference: the unique solution of [J; q^T; (iq)^T] v = [T; 0; 0]
    rng = np.random.default_rng(21)
    q = _random_sphere_points(rng, 200)
    gamma = hopf_project(q)
    raw = rng.normal(size=(200, 3))
    raw -= np.einsum("ij,ij->i", raw, gamma)[:, None] * gamma
    tangent = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    fast = _horizontal_velocity(q, tangent)
    for qi, gi, ti, vi in zip(q, gamma, tangent, fast):
        jac = _projection_jacobian(qi)
        assert np.max(np.abs(jac @ jac.T - np.eye(3))) < 1e-12
        assert np.max(np.abs(jac @ qi - 2.0 * gi)) < 1e-12
        assert np.max(np.abs(jac @ fiber_direction(qi))) < 1e-12
        stacked = np.vstack([jac, qi, fiber_direction(qi)])
        ref, *_ = np.linalg.lstsq(stacked, np.concatenate([ti, [0.0, 0.0]]), rcond=None)
        assert np.max(np.abs(vi - ref)) < 1e-12


def _loop_triangle_fans(nt, ns, wrap_s):
    # explicit-loop reference: two triangles per grid quad, row-major
    tri = []
    for i in range(nt):
        i2 = (i + 1) % nt
        for j in range(ns if wrap_s else ns - 1):
            j2 = (j + 1) % ns
            a, b, c, d = i * ns + j, i2 * ns + j, i2 * ns + j2, i * ns + j2
            tri.append((a, b, c))
            tri.append((a, c, d))
    return np.array(tri, dtype=int)


@pytest.mark.parametrize("nt,ns", [(7, 5), (256, 128), (1, 2)])
@pytest.mark.parametrize("wrap_s", [False, True])
def test_triangle_fans_match_loop_reference(nt, ns, wrap_s):
    tris = _triangle_fans(nt, ns, wrap_s)
    ref = _loop_triangle_fans(nt, ns, wrap_s)
    assert tris.shape == ref.shape and tris.dtype == ref.dtype
    assert np.array_equal(tris, ref)


@pytest.fixture(scope="module")
def g23_lift(g23_trace):
    return horizontal_lift(g23_trace)


def test_lift_stays_on_radius_two_sphere(g23_lift):
    norms = np.linalg.norm(g23_lift.points, axis=1)
    assert float(np.max(np.abs(norms - SPHERE_RADIUS))) < 1e-10


def test_lift_projects_onto_base(g23_lift, g23_trace):
    proj = hopf_project(g23_lift.points)
    assert float(np.max(np.linalg.norm(proj - g23_trace.points, axis=1))) < 1e-8


def test_lift_is_horizontal(g23_lift):
    assert horizontality_residual(g23_lift) < 1e-8


def test_lift_seed_validation(g23_trace):
    with pytest.raises(SeedError):
        horizontal_lift(g23_trace, seed=np.array([1.0, 0.0, 0.0, 0.0]))
    good = fiber_seed(g23_trace.points[0])
    with pytest.raises(SeedError):
        horizontal_lift(g23_trace, seed=np.roll(good, 2) * 1.0 + 0.3)


def test_holonomy_equals_half_enclosed_area(g23_lift, g23_trace):
    # enclosed spherical area via the Gauss-Bonnet identity
    # A = 2 pi w - int kappa_g ds with kappa_g = kappa for this family
    s = np.array([st.s for st in g23_trace.states])
    kappa = np.array([st.kappa for st in g23_trace.states])
    area = 2.0 * math.pi * g23_trace.winding_number - float(np.trapezoid(kappa, s))
    expected = (0.5 * area) % (2.0 * math.pi)
    assert g23_lift.holonomy_angle == pytest.approx(expected, abs=1e-8)


def test_great_circle_lift_holonomy_is_pi():
    # analytic check of the area/2 law on the equator (enclosed area 2 pi)
    t = np.linspace(0.0, 2.0 * math.pi, 2001)
    q = np.column_stack(
        [
            2.0 * np.cos(t / 2.0),
            np.zeros_like(t),
            np.zeros_like(t),
            2.0 * np.sin(t / 2.0),
        ]
    )
    base = hopf_project(q)
    # q is horizontal (velocity orthogonal to the fiber direction) and
    # traverses the base circle once
    vel = np.column_stack(
        [-np.sin(t / 2.0), np.zeros_like(t), np.zeros_like(t), np.cos(t / 2.0)]
    )
    assert np.max(np.abs(np.einsum("ij,ij->i", vel, fiber_direction(q)))) < 1e-12
    assert np.max(np.abs(np.linalg.norm(base, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(base[0] - base[-1])) < 1e-12
    z_end = complex(q[-1, 0], q[-1, 1])
    w_end = complex(q[-1, 2], q[-1, 3])
    z0, w0 = complex(q[0, 0], q[0, 1]), complex(q[0, 2], q[0, 3])
    phase = z_end * z0.conjugate() + w_end * w0.conjugate()
    holonomy = math.atan2(phase.imag, phase.real) % (2.0 * math.pi)
    assert holonomy == pytest.approx(math.pi, abs=1e-12)


@pytest.fixture(scope="module")
def g23_patch(g23_trace, g23_lift):
    return build_torus(g23_trace, g23_lift, t_samples=64, s_samples=256)


def test_torus_falls_back_to_open_segment(g23_patch):
    # the measured holonomy is not a small-denominator rational angle
    assert not g23_patch.closed
    assert g23_patch.covers == 1
    with pytest.raises(CoverOverflow):
        build_torus(g23_patch.lift.trace, g23_patch.lift, require_closed=True)


def test_half_exponent_torus_closes_after_four_covers(all_traces):
    # p = 1/2 gamma_{2,3} has holonomy pi/2 (area-holonomy relation)
    patch = build_torus(all_traces(0.5, 2, 3), t_samples=16, s_samples=32)
    assert patch.lift.holonomy_angle == pytest.approx(0.5 * math.pi, abs=1e-9)
    assert patch.closed and patch.covers == 4
    assert patch.vertices.shape == (16, 4 * 32, 4)
    # the torus columns come from the same dense solution as the lift samples
    dense = patch.lift.sol(patch.lift.s).T
    assert np.max(np.abs(dense - patch.lift.points)) < 1e-12


def test_torus_vertices_on_sphere(g23_patch):
    norms = np.linalg.norm(g23_patch.vertices, axis=-1)
    assert float(np.max(np.abs(norms - SPHERE_RADIUS))) < 1e-9


def test_torus_columns_project_to_base(g23_patch, g23_trace):
    verts = g23_patch.vertices
    base0 = hopf_project(verts[0])
    for i in (1, verts.shape[0] // 2):
        assert float(np.max(np.abs(hopf_project(verts[i]) - base0))) < 1e-9


def test_discrete_mean_curvature_converges(g23_trace, g23_lift):
    coarse = build_torus(g23_trace, g23_lift, t_samples=64, s_samples=256)
    fine = build_torus(g23_trace, g23_lift, t_samples=128, s_samples=512)

    def rel_err(patch):
        h_est = discrete_mean_curvature(patch)
        interior = h_est[:, 2:-2]
        ref = patch.h_field[2:-2][None, :]
        return float(np.max(np.abs(interior - ref) / ref))

    err_c, err_f = rel_err(coarse), rel_err(fine)
    assert err_c < 0.02
    assert err_f < 0.6 * err_c  # roughly second-order decay


def test_discrete_gaussian_curvature_flat(g23_patch):
    kg = discrete_gaussian_curvature(g23_patch)
    assert float(np.max(np.abs(kg))) < 1e-2


def test_surface_el_identity(g23_trace):
    assert surface_el_identity_residual(g23_trace) < 1e-6


def test_stereographic_roundtrip():
    rng = np.random.default_rng(12)
    q = _random_sphere_points(rng, 100)
    # keep points away from the pole
    pole = np.array([0.0, 0.0, 0.0, -1.0])
    q = q[q @ pole < 1.5]
    back = inverse_stereographic(stereographic_project(q))
    assert float(np.max(np.abs(back - q))) < 1e-10


def test_stereographic_pole_collision():
    q = np.array([[0.0, 0.0, 0.0, -2.0]])
    with pytest.raises(PoleCollision):
        stereographic_project(q)


def test_mesh_exports(tmp_path, g23_patch):
    obj_path = tmp_path / "torus.obj"
    json_path = tmp_path / "torus.json"
    patch_to_obj(g23_patch, str(obj_path))
    patch_to_json(g23_patch, str(json_path))

    lines = obj_path.read_text().splitlines()
    nt, ns, _ = g23_patch.vertices.shape
    assert sum(1 for ln in lines if ln.startswith("v ")) == nt * ns
    assert any(ln.startswith("f ") for ln in lines)
    sidecar = (tmp_path / "torus.obj.meancurv").read_text().splitlines()
    assert len(sidecar) == nt * ns

    meta = json.loads(json_path.read_text())
    assert meta["closed"] is False
    assert meta["holonomyAngle"] == pytest.approx(g23_patch.lift.holonomy_angle)
