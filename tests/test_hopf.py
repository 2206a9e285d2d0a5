"""Submersion to the 2-sphere, horizontal lifts and torus meshes."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from lift_reference import lift_horizontality, with_scaled_area
from ode_reference import fiber_direction, ode_profile, unit_tangent
from scipy.integrate import solve_ivp

from pelastica import curve, hopf
from pelastica.closure import ClosureIndex
from pelastica.errors import PoleCollision, SeedError
from pelastica.hopf import (
    SPHERE_RADIUS,
    _fan_rows,
    build_torus,
    discrete_gaussian_curvature,
    discrete_mean_curvature,
    fiber_seed,
    hopf_project,
    horizontal_lift,
    inverse_stereographic,
    patch_to_json,
    patch_to_obj,
    stereographic_project,
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
    bases = np.array([[1.0, 0.0, 0.0], [0.2, -0.5, 0.3], [0.0, 0.0, -1.0]])
    bases /= np.linalg.norm(bases, axis=1, keepdims=True)
    for base in bases:
        seed = fiber_seed(base)
        assert seed.shape == (4,)
        assert np.linalg.norm(seed) == pytest.approx(SPHERE_RADIUS, rel=1e-14)
        assert np.max(np.abs(hopf_project(seed) - base)) < 1e-12
    # the section over an array of base points, row by row
    rng = np.random.default_rng(9)
    many = hopf_project(_random_sphere_points(rng, 60)).reshape(3, 20, 3)
    seeds = fiber_seed(many)
    assert seeds.shape == (3, 20, 4)
    assert np.array_equal(seeds[1, 7], fiber_seed(many[1, 7]))
    assert np.max(np.abs(np.linalg.norm(seeds, axis=-1) - SPHERE_RADIUS)) < 1e-14
    assert np.max(np.abs(hopf_project(seeds.reshape(-1, 4)) - many.reshape(-1, 3))) < 1e-12
    assert np.all(seeds[..., 1] == 0.0) and np.all(seeds[..., 0] > 0.0)
    with pytest.raises(SeedError):
        fiber_seed([-1.0, 0.0, 0.0])
    with pytest.raises(SeedError):
        fiber_seed(np.vstack([bases, [[-1.0, 0.0, 0.0]]]))


# Reference lift, tests only: the horizontal velocity J^T T integrated as an
# ODE, which the closed form e^(i phi) sigma(gamma) replaced.


def _projection_jacobian(q):
    """Differential of hopf_project at points q (..., 4), as an array (3, 4, ...)."""
    x0, x1, x2, x3 = np.asarray(q, dtype=float).T
    return 0.5 * np.array(
        [
            [x0, x1, -x2, -x3],
            [x2, x3, x0, x1],
            [x3, -x2, -x1, x0],
        ]
    )


def _horizontal_velocity(q, tangent):
    """J(q)^T T minus its radial part, which keeps an integrated lift at |q| = 2."""
    q = np.asarray(q, dtype=float)
    vel = np.einsum("ij...,...i->...j", _projection_jacobian(q), tangent)
    radial = np.einsum("...i,...i->...", vel, q) / np.einsum("...i,...i->...", q, q)
    return vel - radial[..., None] * q


def _ode_lift(trace):
    """Lift points at the trace samples and holonomy, from the J^T T ODE
    along the DOP853 reference profile."""
    params, profile_at = trace.params, ode_profile(trace.params, trace.index.m, rtol=1e-12).sol
    s_grid = trace.states.s
    seed = fiber_seed(trace.points[0])

    def rhs(s, q):
        return _horizontal_velocity(q, unit_tangent(params, *profile_at(s)[:3]))

    sol = solve_ivp(
        rhs, (0.0, s_grid[-1]), seed, method="DOP853", rtol=1e-11, atol=1e-11, t_eval=s_grid
    )
    assert sol.success
    points = sol.y.T
    # Hermitian product of the endpoints is 4 e^(i holonomy) on the start fiber
    z, w = complex(*points[-1, :2]), complex(*points[-1, 2:])
    z0, w0 = complex(*seed[:2]), complex(*seed[2:])
    phase = z * z0.conjugate() + w * w0.conjugate()
    return points, math.atan2(phase.imag, phase.real) % (2.0 * math.pi)


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
    tris = _fan_rows(nt, ns, wrap_s, 0, nt)
    ref = _loop_triangle_fans(nt, ns, wrap_s)
    assert tris.shape == ref.shape and tris.dtype == ref.dtype
    assert np.array_equal(tris, ref)


@pytest.fixture(scope="module")
def g23_lift(g23_trace):
    return horizontal_lift(g23_trace.points, g23_trace.states.area)


def test_lift_stays_on_radius_two_sphere(g23_lift):
    norms = np.linalg.norm(g23_lift, axis=1)
    assert float(np.max(np.abs(norms - SPHERE_RADIUS))) < 1e-13


@pytest.mark.parametrize("p,n,m", [(0.3, 2, 3), (0.5, 2, 3)])
def test_lift_matches_ode_reference(all_traces, p, n, m):
    trace = all_traces(p, n, m)
    lift = horizontal_lift(trace.points, trace.states.area)
    ref_points, ref_holonomy = _ode_lift(trace)
    assert float(np.max(np.abs(lift - ref_points))) < 1e-8
    gap = (hopf._holonomy_angle(trace) - ref_holonomy) % (2.0 * math.pi)
    assert min(gap, 2.0 * math.pi - gap) < 1e-9


@pytest.mark.parametrize("p,n,m", [(0.3, 2, 3), (0.01, 2, 3), (0.5, 2, 3), (0.3, 5, 8)])
def test_lift_samples_match_dense_output(all_traces, p, n, m):
    # The torus evaluates the arch trace at its own arc lengths; with one
    # column per sample its first fiber phase is the lift of the samples to
    # the bit, and the dense output at the last sample gives the same
    # holonomy to the bit.
    trace = all_traces(p, n, m)
    s = trace.states.s
    patch = build_torus(trace, t_samples=1, s_samples=len(s) - 1)
    lift = horizontal_lift(trace.points, trace.states.area)
    assert np.array_equal(patch.vertices[0, : len(s) - 1], lift[:-1])
    area_end = trace.arch.at(s[-1])[3]
    assert hopf._holonomy_angle(trace) == (0.5 * area_end) % (2.0 * math.pi)


def test_lift_projects_onto_base(g23_lift, g23_trace):
    proj = hopf_project(g23_lift)
    assert float(np.max(np.linalg.norm(proj - g23_trace.points, axis=1))) < 1e-8


@pytest.fixture(scope="module")
def horizontality_traces(all_traces):
    # reference-table rows out to both p edges, and p = 0.7 gamma_{11,19}
    rows = [(0.3, 2, 3), (0.5, 2, 3), (0.01, 2, 3), (0.99, 2, 3), (0.3, 5, 8)]
    traces = [all_traces(p, n, m) for p, n, m in rows]
    return traces + [curve.trace_closed_curve(0.7, ClosureIndex(11, 19))]


def test_lift_is_horizontal(horizontality_traces):
    # <q', iq> on the lift that build_torus sweeps, q' by finite differences
    # of the arch trace's dense output (4.4e-12 on p = 0.3 gamma_{2,3} and
    # at most 5.3e-11 on these six curves, measured with numpy 2.4)
    for trace in horizontality_traces:
        assert lift_horizontality(trace) < 1e-10


def test_lift_horizontality_detects_a_wrong_area(horizontality_traces):
    # negative control: a swept area off by 0.1% turns the lift by a phase
    # rate of 5e-4 A', which the measure reads as 1.9e-4 or more
    for trace in horizontality_traces:
        assert lift_horizontality(with_scaled_area(trace, 1.001)) >= 1e-4


def test_holonomy_equals_half_enclosed_area(g23_patch, g23_trace):
    # enclosed spherical area via the Gauss-Bonnet identity
    # A = 2 pi w - int kappa_g ds with kappa_g = kappa for this family
    st = g23_trace.states
    area = 2.0 * math.pi * g23_trace.winding_number - float(np.trapezoid(st.kappa, st.s))
    expected = (0.5 * area) % (2.0 * math.pi)
    assert g23_patch.holonomy_angle == pytest.approx(expected, abs=1e-8)


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
def g23_patch(g23_trace):
    return build_torus(g23_trace, t_samples=64, s_samples=256)


def test_torus_falls_back_to_open_segment(g23_patch):
    # the measured holonomy is not a small-denominator rational angle
    assert not g23_patch.closed
    assert g23_patch.covers == 1


def test_half_exponent_torus_closes_after_four_covers(all_traces):
    # p = 1/2 gamma_{2,3} has holonomy pi/2 (area-holonomy relation)
    patch = build_torus(all_traces(0.5, 2, 3), t_samples=16, s_samples=32)
    assert patch.holonomy_angle == pytest.approx(0.5 * math.pi, abs=1e-9)
    assert patch.closed and patch.covers == 4
    assert patch.vertices.shape == (16, 4 * 32, 4)
    # the first cover's columns (phase t = 0) are the lift itself: every 48th
    # of the 512 * 3 trace samples sits at one of the 32 torus arc lengths
    s = patch.trace.states.s
    s_one = np.linspace(0.0, s[-1], 32, endpoint=False)
    assert np.allclose(s[:-1:48], s_one, rtol=1e-15, atol=0.0)
    lift = horizontal_lift(patch.trace.points, patch.trace.states.area)
    assert np.max(np.abs(patch.vertices[0, :32] - lift[:-1:48])) < 1e-12


def test_torus_vertices_on_sphere(g23_patch):
    norms = np.linalg.norm(g23_patch.vertices, axis=-1)
    assert float(np.max(np.abs(norms - SPHERE_RADIUS))) < 1e-9


def test_torus_columns_project_to_base(g23_patch, g23_trace):
    verts = g23_patch.vertices
    base0 = hopf_project(verts[0])
    for i in (1, verts.shape[0] // 2):
        assert float(np.max(np.abs(hopf_project(verts[i]) - base0))) < 1e-9


def test_discrete_mean_curvature_converges(g23_trace):
    coarse = build_torus(g23_trace, t_samples=64, s_samples=256)
    fine = build_torus(g23_trace, t_samples=128, s_samples=512)

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


def test_stereographic_roundtrip():
    rng = np.random.default_rng(12)
    q = _random_sphere_points(rng, 100)
    # keep points away from the pole
    pole = np.array([0.0, 0.0, 0.0, -1.0])
    q = q[q @ pole < 1.5]
    back = inverse_stereographic(stereographic_project(q))
    assert float(np.max(np.abs(back - q))) < 1e-10


_POLE1 = (0.1, 0.2, 0.3, -1.0)


def _blas_projection(vertices, pole):
    # the projection as v - height n and its scaled copy, new arrays, with
    # the height and the plane coordinates as BLAS products
    n = np.asarray(pole) / np.linalg.norm(pole)
    v = vertices.reshape(-1, 4)
    height = v @ n
    planar = (v - np.outer(height, n)) * (SPHERE_RADIUS / (SPHERE_RADIUS - height))[:, None]
    return (planar @ hopf._plane_basis(n).T).reshape(*vertices.shape[:-1], 3)


def _columnwise_projection(vertices, pole, dtype=float):
    # the same formula a column at a time, in dtype, each step a new array:
    # height = sum of v_j n_j, then plane coordinate k = sum over j of
    # (v_j - height n_j) scale b_kj, both summed in order of j
    n = np.asarray(pole) / np.linalg.norm(pole)
    basis = hopf._plane_basis(n).astype(dtype)
    n = n.astype(dtype)
    v = vertices.reshape(-1, 4).astype(dtype)
    radius = dtype(SPHERE_RADIUS)
    height = v[:, 0] * n[0] + v[:, 1] * n[1] + v[:, 2] * n[2] + v[:, 3] * n[3]
    scale = radius / (radius - height)
    planar = [(v[:, j] - height * n[j]) * scale for j in range(4)]
    columns = [sum(planar[j] * basis[k, j] for j in range(4)) for k in range(3)]
    return np.stack(columns, axis=-1).reshape(*vertices.shape[:-1], 3)


@pytest.mark.parametrize("pole", [(0.0, 0.0, 0.0, -1.0), _POLE1])
def test_stereographic_projection_in_place_matches_three_temporaries(pole, all_traces):
    # the 4-cover torus of p = 1/2 gamma_{2,3} at the CLI's mesh size.  At the
    # default pole the basis is a permutation and every step is exact, so
    # the BLAS formula gives the same values; at a generic pole the BLAS sums
    # round differently, and the reference is the column-wise formula
    vertices = build_torus(all_traces(0.5, 2, 3)).vertices
    if pole == _POLE1:
        expected = _columnwise_projection(vertices, pole)
    else:
        expected = _blas_projection(vertices, pole)
    assert np.array_equal(stereographic_project(vertices, pole), expected)


def test_stereographic_projection_rounding_at_a_generic_pole(all_traces):
    # against the same formula in long double, the program and the BLAS form
    # both lie within 5 ulps of each row's largest coordinate
    vertices = build_torus(all_traces(0.5, 2, 3)).vertices.reshape(-1, 4)
    reference = _columnwise_projection(vertices, _POLE1, np.longdouble)
    ulp = np.spacing(np.max(np.abs(reference.astype(float)), axis=1))[:, None]
    for projected in (stereographic_project(vertices, _POLE1), _blas_projection(vertices, _POLE1)):
        assert np.max(np.abs(projected - reference) / ulp) <= 5.0


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
    assert meta["holonomyAngle"] == pytest.approx(g23_patch.holonomy_angle)


def _loop_obj_text(patch, pole=(0.0, 0.0, 0.0, -1.0)):
    # per-line reference writer: one f-string per vertex, face and value
    projected = stereographic_project(patch.vertices, pole)
    nt, ns, _ = patch.vertices.shape
    obj = [f"v {v[0]:.12g} {v[1]:.12g} {v[2]:.12g}\n" for v in projected.reshape(-1, 3)]
    tris = _fan_rows(nt, ns, patch.closed, 0, nt)
    obj += [f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in tris]
    curv = [f"{hval:.12g}\n" for _ in range(nt) for hval in patch.h_field]
    return "".join(obj), "".join(curv)


# (id, closed, t_samples, s_samples)
_SMALL_MESHES = [
    # 5 x 6 open and 3 x 4 x 4 closed meshes: every block size leaves a
    # partial block
    ("False", False, 5, 6),
    ("True", True, 3, 4),
    # 1000 vertices: the indices cross every digit width up to 4, and the
    # widest is the table's last row
    ("open-1000-vertices", False, 8, 125),
    ("closed-1000-vertices", True, 10, 25),
    # one fiber phase: the t neighbour of every row is the row itself
    ("closed-t1", True, 1, 4),
    # one s column of an open segment: vertices and no faces
    ("open-s1", False, 3, 1),
]


@pytest.mark.parametrize(
    ("closed", "t_samples", "s_samples", "block_lines", "pole"),
    [
        pytest.param(closed, t, s, block, pole, id=f"{name}-{block}{suffix}")
        for name, closed, t, s in _SMALL_MESHES
        for block in (None, 7)
        for pole, suffix in (((0.0, 0.0, 0.0, -1.0), ""), (_POLE1, "-pole1"))
    ]
    + [
        # the CLI's 4-cover torus, 256 x 512 with 6-digit indices, at the
        # default block size: the small meshes cover the partial blocks
        pytest.param(True, 256, 128, None, (0.0, 0.0, 0.0, -1.0), id="closed-default-None"),
    ],
)
def test_obj_export_matches_per_line_writer(
    tmp_path, monkeypatch, all_traces, closed, t_samples, s_samples, block_lines, pole
):
    trace = all_traces(0.5, 2, 3) if closed else all_traces(0.3, 2, 3)
    patch = build_torus(trace, t_samples=t_samples, s_samples=s_samples)
    assert patch.closed is closed
    if block_lines is not None:
        monkeypatch.setattr(curve, "_BLOCK_LINES", block_lines)
    path = tmp_path / "mesh.obj"
    patch_to_obj(patch, str(path), pole)
    obj_ref, curv_ref = _loop_obj_text(patch, pole)
    assert path.read_bytes() == obj_ref.encode()
    assert (tmp_path / "mesh.obj.meancurv").read_bytes() == curv_ref.encode()


def test_obj_export_checks_the_last_block_before_writing(tmp_path, monkeypatch, all_traces):
    # the vertices are projected a block at a time, yet a pole on the mesh's
    # last vertex (in the last of 7 blocks) must still leave no file behind
    patch = build_torus(all_traces(0.5, 2, 3), t_samples=3, s_samples=4)
    monkeypatch.setattr(curve, "_BLOCK_LINES", 7)
    path = tmp_path / "mesh.obj"
    with pytest.raises(PoleCollision):
        patch_to_obj(patch, str(path), tuple(patch.vertices[-1, -1]))
    assert list(tmp_path.iterdir()) == []


def test_face_words_cross_the_four_digit_group_boundary():
    # a block of face lines takes as many 4-digit words an index as its
    # largest index needs: on the 2 x 5,000 mesh the blocks below 10,000
    # one, the last block two, the upper one the word table's leading-NUL
    # variant (all NUL below 10,000), the lower one all four digits above
    # it; a mesh of 9,999 vertices takes one word
    for nt, ns, wrap_s in ((2, 5000, False), (1, 9999, True)):
        tris = _fan_rows(nt, ns, wrap_s, 0, nt) + 1
        assert tris.max() == nt * ns
        got = b"".join(curve._number_lines("f %d %d %d\n", tris))
        assert got == "".join(f"f {a} {b} {c}\n" for a, b, c in tris).encode()


def test_obj_export_memory_peak_is_one_writer_block(tmp_path, all_traces):
    # the CLI's 4-cover torus (256 x 512 vertices): the vertices are
    # projected and written a block of curve._BLOCK_LINES lines at a time,
    # so the export's tracemalloc peak (2.8 MB) is the %.12g kernel's on one
    # block, and no full-size projection temporary (9.44 MB) is formed
    patch = build_torus(all_traces(0.5, 2, 3), t_samples=256, s_samples=128)
    assert patch.covers == 4
    tracemalloc.start()
    try:
        patch_to_obj(patch, str(tmp_path / "torus.obj"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5e6
