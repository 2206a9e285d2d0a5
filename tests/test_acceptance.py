"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 is expected to fail on three reference-table cells whose
published values disagree with the recomputed invariants; the test reports
the mismatch honestly instead of widening its tolerances.
test_disputed_cells_agree_across_pipelines prints the three independent
pipelines that give the recomputed values.
"""

import math
import time

import numpy as np
import pytest
from lift_reference import lift_horizontality
from ode_reference import first_integral_residual, ode_profile, ode_trace
from scipy.optimize import brentq

from pelastica.cli import (
    A_TOL,
    DELTA2_REL_TOL,
    ENERGY_TOL,
    REFERENCE_TABLE,
    _solve_rows,
)
from pelastica.closure import lambda_p, period
from pelastica.energy import circle_energy, circle_radius, energy_closed
from pelastica.hopf import (
    SPHERE_RADIUS,
    build_torus,
    discrete_gaussian_curvature,
    discrete_mean_curvature,
    hopf_project,
    horizontal_lift,
)
from pelastica.qpotential import a_star, classify_positive_roots, make_params
from pelastica.quad import parts_identity_residual
from pelastica.stability import (
    circle_second_variation,
    second_variation,
    upsilon,
    upsilon_elliptic_half,
    upsilon_limit,
)

SQRT2_PI = math.sqrt(2.0) * math.pi


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_reporting(capfd):
    # pytest captures at the file-descriptor level, so the per-criterion
    # result lines must suspend capture to reach the terminal for passing
    # tests too
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, ok: bool, detail: str) -> None:
    _emit(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _emit(line: str) -> None:
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def test_criterion_01_reference_table():
    start = time.perf_counter()
    failures = []
    for row, got in zip(REFERENCE_TABLE, _solve_rows(REFERENCE_TABLE)):
        tag, p, n, m, a_ref, th_ref, d2_ref = row
        _, _, _, _, a_val, th_val, d2_val = got
        if abs(a_val - a_ref) > A_TOL:
            failures.append(f"{tag} a={a_val:.4f} ref {a_ref}")
        if abs(th_val - th_ref) > ENERGY_TOL:
            failures.append(f"{tag} energy={th_val:.4f} ref {th_ref}")
        if abs(d2_val - d2_ref) > DELTA2_REL_TOL * abs(d2_ref):
            failures.append(f"{tag} delta2={d2_val:.2f} ref {d2_ref}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    detail = f"{len(failures)} cell mismatches, {elapsed:.1f}s"
    if failures:
        detail += ": " + "; ".join(failures)
    _report(1, ok, detail)
    assert elapsed < 120.0
    assert not failures, detail


def test_disputed_cells_agree_across_pipelines(solved_rows, all_traces):
    # The cells criterion 1 disputes (gamma_{4,7} second variation, gamma_{5,8}
    # energy and second variation) by three pipelines: direct arch quadrature,
    # its three algebraic rewrites, and the DOP853 profile ODE's trace plus
    # trapezoid.
    p = 0.3
    values = {}
    for n, m in ((4, 7), (5, 8)):
        params = make_params(p, solved_rows[(p, n, m)].a_solved)
        trace = ode_trace(all_traces(p, n, m))
        report = upsilon(params, m=m)
        delta2_trace = second_variation(trace)
        theta = energy_closed(params, m)
        theta_trace = float(np.trapezoid(trace.states.kappa**p, trace.states.s))
        residuals = ", ".join(f"{r:.1e}" for r in report.rewrite_residuals)
        _emit(
            f"gamma_{{{n},{m}}}: delta2 quadrature {report.delta_squared:.10f}, "
            f"trace {delta2_trace:.10f}, rewrite residuals {residuals}; "
            f"energy quadrature {theta:.10f}, trace {theta_trace:.10f}"
        )
        assert max(report.rewrite_residuals) < 1e-6
        assert delta2_trace == pytest.approx(report.delta_squared, rel=1e-6)
        assert theta_trace == pytest.approx(theta, rel=1e-6)
        values[(n, m)] = theta, report.delta_squared
    assert round(values[(4, 7)][1], 2) == -214.50
    assert round(values[(5, 8)][0], 2) == 22.47
    assert round(values[(5, 8)][1], 2) == -96.80


def test_criterion_02_progression_limits():
    worst_near = worst_far = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        thr = a_star(p)
        near = abs(lambda_p(make_params(p, thr * (1 + 1e-6))) - SQRT2_PI)
        far = abs(lambda_p(make_params(p, thr * 1e6)) - math.pi)
        worst_near = max(worst_near, near)
        worst_far = max(worst_far, far)
    ok = worst_near < 1e-2 and worst_far < 2e-2
    _report(2, ok, f"near err {worst_near:.2e} (<1e-2), far err {worst_far:.2e} (<2e-2)")
    assert ok


def test_criterion_03_closure_of_all_rows(solved_rows, all_traces):
    worst_gap = worst_res = 0.0
    windings_ok = True
    for (_, p, n, m, *_rest) in REFERENCE_TABLE:
        trace = all_traces(p, n, m)
        worst_gap = max(worst_gap, trace.closure_gap)
        windings_ok = windings_ok and trace.winding_number == n
        st = trace.states
        res = float(np.max(first_integral_residual(p, trace.params.a, st.kappa, st.kappa_prime)))
        worst_res = max(worst_res, res / trace.params.a)
    ok = worst_gap < 1e-6 and windings_ok and worst_res < 1e-8
    _report(
        3,
        ok,
        f"max gap {worst_gap:.2e} (<1e-6), windings {'ok' if windings_ok else 'WRONG'}, "
        f"max residual/a {worst_res:.2e} (<1e-8)",
    )
    assert ok


def test_criterion_04_elliptic_closed_form():
    grid = np.geomspace(0.5005, 50.0, 50)
    worst = 0.0
    for a in grid:
        closed = upsilon_elliptic_half(float(a))
        direct = upsilon(make_params(0.5, float(a)), rel_tol=1e-12).upsilon
        worst = max(worst, abs(closed - direct) / abs(closed))
    limit_gap = abs(upsilon(make_params(0.5, 0.5 * (1 + 1e-8))).upsilon + math.pi)
    ok = worst < 1e-9 and limit_gap < 1e-3
    _report(4, ok, f"max rel err {worst:.2e} (<1e-9), limit gap {limit_gap:.2e} (<1e-3)")
    assert ok


def test_criterion_05_moment_identities():
    rng = np.random.default_rng(20260823)
    worst_parts = 0.0
    for _ in range(100):
        p = rng.uniform(0.05, 0.95)
        a = a_star(p) * rng.uniform(1.01, 100.0)
        t = rng.uniform(-2.0, 2.5)
        worst_parts = max(worst_parts, parts_identity_residual(make_params(p, a), t))
    # the r2 rewrite's coefficients scale like 1/p^3, so the comparison is
    # ill-conditioned in float64 outside this band (see the decision log)
    worst_rw = 0.0
    for _ in range(50):
        p = rng.uniform(0.15, 0.85)
        a = a_star(p) * rng.uniform(1.05, 30.0)
        worst_rw = max(
            worst_rw,
            max(upsilon(make_params(p, a), rel_tol=1e-12).rewrite_residuals),
        )
    ok = worst_parts < 1e-8 and worst_rw < 1e-8
    _report(
        5,
        ok,
        f"parts residual {worst_parts:.2e} (<1e-8), rewrite residual {worst_rw:.2e} (<1e-8)",
    )
    assert ok


def test_criterion_06_second_variation_negativity():
    sign_ok = True
    worst_limit = 0.0
    for p in (0.05, 0.2, 0.5, 0.8, 0.95):
        thr = a_star(p)
        for mult in np.geomspace(1.001, 1e3, 12):
            val = upsilon(make_params(p, thr * float(mult))).upsilon
            sign_ok = sign_ok and val < 0.0
        lim = upsilon_limit(p)
        near = upsilon(make_params(p, thr * (1 + 1e-8))).upsilon
        worst_limit = max(worst_limit, abs(near - lim) / abs(lim))
    worst_circle = 0.0
    for p in (0.05, 0.2, 0.5, 0.8, 0.95):
        gap = abs(
            circle_second_variation(p) + 2.0 * circle_energy(circle_radius(p), p)
        )
        worst_circle = max(worst_circle, gap)
    ok = sign_ok and worst_limit < 1e-3 and worst_circle < 1e-10
    _report(
        6,
        ok,
        f"all negative: {sign_ok}, limit rel err {worst_limit:.2e} (<1e-3), "
        f"circle identity gap {worst_circle:.2e} (<1e-10)",
    )
    assert ok


def test_criterion_07_root_count_dichotomy():
    rng = np.random.default_rng(7)
    outside_ok = True
    for _ in range(500):
        branch = rng.integers(0, 3)
        if branch == 0:
            p = rng.uniform(-5.0, 0.0)
        elif branch == 1:
            p = rng.uniform(1.0 + 1e-6, 2.0)
        else:
            p = rng.uniform(2.0, 10.0)
        a = rng.uniform(0.01, 50.0)
        if len(classify_positive_roots(float(p), float(a))) == 2:
            outside_ok = False
    inside_ok = True
    for _ in range(200):
        p = rng.uniform(0.01, 0.99)
        a = a_star(float(p)) * rng.uniform(1.001, 1e4)
        if len(classify_positive_roots(float(p), float(a))) != 2:
            inside_ok = False
    ok = outside_ok and inside_ok
    _report(
        7,
        ok,
        f"outside (0,1) never two roots: {outside_ok}; "
        f"inside with supercritical momentum always two: {inside_ok}",
    )
    assert ok


def test_criterion_08_lift_and_torus(g23_trace):
    lift = horizontal_lift(g23_trace.points, g23_trace.states.area)
    norm_err = float(np.max(np.abs(np.linalg.norm(lift, axis=1) - SPHERE_RADIUS)))
    proj_err = float(np.max(np.linalg.norm(hopf_project(lift) - g23_trace.points, axis=1)))
    # <q', iq> on the lift's own points, q' by finite differences
    horiz = lift_horizontality(g23_trace)

    coarse = build_torus(g23_trace, t_samples=64, s_samples=256)
    fine = build_torus(g23_trace, t_samples=128, s_samples=512)

    def h_err(patch):
        est = discrete_mean_curvature(patch)[:, 2:-2]
        ref = patch.h_field[2:-2][None, :]
        return float(np.max(np.abs(est - ref) / ref))

    err_c, err_f = h_err(coarse), h_err(fine)
    kg_max = float(np.max(np.abs(discrete_gaussian_curvature(fine))))
    ok = (
        norm_err < 1e-10
        and proj_err < 1e-8
        and horiz < 1e-8
        and err_c < 0.02
        and err_f < 0.5 * err_c * 1.2  # halving with 20% slack
        and kg_max < 1e-2
    )
    _report(
        8,
        ok,
        f"norm {norm_err:.1e} (<1e-10), proj {proj_err:.1e} (<1e-8), "
        f"horiz {horiz:.1e} (<1e-8), H err {err_c:.1e}->{err_f:.1e} (<2e-2, halving), "
        f"|K| {kg_max:.1e} (<1e-2)",
    )
    assert ok


def test_criterion_09_pipeline_cross_checks(g23_params, g23_solved, g23_trace):
    # the DOP853 profile ODE against the arch quadratures
    rho = period(g23_params)
    sol = ode_profile(g23_params, 1.3).sol
    lam_gap = abs(sol(rho)[2] - lambda_p(g23_params)) / lambda_p(g23_params)

    st = g23_trace.states
    theta_trace = float(np.trapezoid(st.kappa**g23_params.p, st.s))
    theta_quad = energy_closed(g23_params, g23_solved.m)
    theta_gap = abs(theta_trace - theta_quad) / theta_quad

    # return time of the curvature minimum: kappa' crosses zero upward near rho
    rho_ode = brentq(lambda t: sol(t)[1], 0.8 * rho, 1.2 * rho, xtol=1e-14)
    rho_gap = abs(rho_ode - rho) / rho
    ok = lam_gap < 1e-7 and theta_gap < 1e-6 and rho_gap < 1e-8
    _report(
        9,
        ok,
        f"progression gap {lam_gap:.2e} (<1e-7), energy gap {theta_gap:.2e} (<1e-6), "
        f"period gap {rho_gap:.2e} (<1e-8)",
    )
    assert ok


def test_criterion_10_circle_energy_infimum():
    # p = 0.99 is the most favorable admissible exponent: the sequence is
    # monotone from k = 1 (the critical radius lies below 1/2) and the decay
    # rate (2 eps)^(p/2) is fastest as p -> 1.  Even so the k = 20 value is
    # ~9.3e-3, an order of magnitude above the 1e-3 target, for every
    # p in (0, 1); the criterion is reported as stated rather than softened.
    p = 0.99
    vals = [circle_energy(1.0 - 2.0**-k, p) for k in range(1, 21)]
    positive = all(v > 0.0 for v in vals)
    monotone = all(b < a for a, b in zip(vals, vals[1:]))
    ok = positive and monotone and vals[-1] < 1e-3
    _report(
        10,
        ok,
        f"positive: {positive}, decreasing: {monotone}, "
        f"final value {vals[-1]:.2e} (<1e-3)",
    )
    assert ok
