"""Singular arch quadrature against independent oracles."""

import heapq
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from pelastica import closure, quad
from pelastica.errors import DomainError, ResolutionError
from pelastica.qpotential import a_star, make_params
from pelastica.quad import (
    integrate_over_arch,
    kappa_moment,
    limit_at_maximum,
    parts_identity_residual,
)


def _oracle_moment(params, t):
    """scipy quad with algebraic endpoint weights as an independent oracle.

    Q has simple zeros at both roots, so kappa^t / sqrt(Q) factors into
    (alpha-k)^(-1/2) (k-beta)^(-1/2) times a smooth function; scipy handles
    the weights analytically.
    """
    p, a = params.p, params.a
    beta, alpha = params.beta, params.alpha

    pad = 1e-13 * (alpha - beta)

    def smooth(k):
        # QAWSE may evaluate at the endpoints themselves; the clamped factor
        # has a finite limit there, so the nudge is far below the quad error
        k = min(max(k, beta + pad), alpha - pad)
        g = (a * k ** (2 * (1 - p)) - (1 - p) ** 2 * k**2 - p**2) / (
            (alpha - k) * (k - beta)
        )
        return k**t / math.sqrt(g)

    with warnings.catch_warnings():
        # QUADPACK complains about the (benign) clamped endpoint behavior
        warnings.simplefilter("ignore")
        val, err = scipy_quad(
            smooth, beta, alpha, weight="alg", wvar=(-0.5, -0.5), limit=200,
            epsabs=1e-13, epsrel=1e-12,
        )
    return val, err


@pytest.mark.parametrize("p,mult", [(0.3, 2.0), (0.5, 3.0), (0.7, 1.5), (0.2, 10.0)])
@pytest.mark.parametrize("t", [-1.0, -0.3, 0.0, 0.7, 1.0, 2.0])
def test_moments_match_scipy_oracle(p, mult, t):
    params = make_params(p, a_star(p) * mult)
    ours = kappa_moment(params, t)
    ref, ref_err = _oracle_moment(params, t)
    assert ours == pytest.approx(ref, rel=max(1e-9, 10 * ref_err / abs(ref)))


def test_error_estimate_is_honest():
    params = make_params(0.3, 1.5)
    res = integrate_over_arch(params, lambda k: k)
    ref, ref_err = _oracle_moment(params, 1.0)
    assert abs(res.value - ref) <= max(
        10 * (res.error_estimate + ref_err), 1e-9 * abs(ref)
    )


def test_near_circular_limit_formula():
    # for a one-numerator the integral of 1/sqrt(Q) over a collapsing arch
    # tends to pi / sqrt(-Q''(kappa_*)/2)
    p = 0.4
    params_limit = make_params(p, a_star(p) * (1 + 1e-13))
    lim = limit_at_maximum(params_limit, lambda k: 1.0)
    seq = make_params(p, a_star(p) * (1 + 1e-7))
    val = integrate_over_arch(seq, lambda k: 1.0).value
    assert val == pytest.approx(lim, rel=1e-4)


def test_near_circular_short_circuit():
    p = 0.4
    params = make_params(p, a_star(p) * (1 + 1e-13))
    res = integrate_over_arch(params, lambda k: 1.0)
    assert res.error_estimate == 0.0
    assert res.value == pytest.approx(limit_at_maximum(params, lambda k: 1.0))


def test_two_argument_numerator_receives_q():
    params = make_params(0.3, 1.5)
    seen = {}

    def numerator(k, q):
        seen["q_positive"] = bool(np.all(q > 0.0))
        return np.ones_like(k)

    integrate_over_arch(params, numerator, rel_tol=1e-6)
    assert seen["q_positive"]


def test_rel_tol_domain():
    params = make_params(0.3, 1.5)
    with pytest.raises(DomainError):
        integrate_over_arch(params, lambda k: 1.0, rel_tol=1e-20)
    with pytest.raises(DomainError):
        integrate_over_arch(params, lambda k: 1.0, rel_tol=0.5)


@given(
    p=st.floats(0.1, 0.9),
    mult=st.floats(1.05, 50.0),
    t=st.floats(-1.5, 2.5),
)
@settings(max_examples=25, deadline=None)
def test_parts_identity_property(p, mult, t):
    params = make_params(p, a_star(p) * mult)
    assert parts_identity_residual(params, t, rel_tol=1e-10) < 1e-8


def test_wide_dynamic_range_stays_finite():
    # momenta far above threshold: the integrand develops inner layers
    for p in (0.1, 0.5, 0.9):
        params = make_params(p, a_star(p) * 1e6)
        val = kappa_moment(params, 1.0 - p)
        assert np.isfinite(val) and val > 0.0


def test_unreachable_grade_floor_raises():
    params = make_params(0.3, 2.0)
    # the mesh grades down to grade_floor / 8 and stops at 1e-300
    integrate_over_arch(params, lambda k: k, grade_floor=8e-300)
    for floor in (7e-300, 1e-310, 0.0):
        with pytest.raises(ResolutionError):
            integrate_over_arch(params, lambda k: k, grade_floor=floor)


def _gl15(f, lo, hi):
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return float(half * np.dot(quad._GL_WEIGHTS, f(mid + half * quad._GL_NODES)))


def _panel(f, lo, hi):
    mid = 0.5 * (lo + hi)
    coarse = _gl15(f, lo, hi)
    fine = _gl15(f, lo, mid) + _gl15(f, mid, hi)
    return (-abs(coarse - fine), lo, hi, fine)


def _per_panel_reference(params, numerator, rel_tol=quad.DEFAULT_REL_TOL, grade_floor=None):
    """The adaptive arch rule with one integrand call per GL15 rule.

    Returns (value, error estimate, initial panels, bisections).
    """
    f = quad._make_theta_integrand(params, numerator)
    half_pi = 0.5 * math.pi
    low_levels = quad._GRADE_LEVELS
    if grade_floor is not None:
        needed = math.ceil(math.log2(half_pi / (grade_floor / 8.0)))
        low_levels = max(low_levels, needed)
    lows = [half_pi * 2.0**-k for k in range(low_levels, 0, -1)]
    highs = [half_pi * (1.0 - 2.0**-k) for k in range(2, quad._GRADE_LEVELS + 1)]
    breaks = [0.0] + lows + highs + [half_pi]
    heap = [_panel(f, lo, hi) for lo, hi in zip(breaks[:-1], breaks[1:])]
    heapq.heapify(heap)
    total = sum(item[3] for item in heap)
    total_err = sum(-item[0] for item in heap)
    initial, bisections = len(heap), 0
    while total_err > rel_tol * max(abs(total), 1e-300):
        assert initial + bisections < quad._PANEL_CAP
        neg_err, lo, hi, fine = heapq.heappop(heap)
        total -= fine
        total_err += neg_err
        mid = 0.5 * (lo + hi)
        for child in (_panel(f, lo, mid), _panel(f, mid, hi)):
            heapq.heappush(heap, child)
            total += child[3]
            total_err -= child[0]
        bisections += 1
    return total, total_err, initial, bisections


def _lambda_call(params, monkeypatch):
    """Lambda's arch integral: its numerator, rel_tol and grade_floor."""
    seen = []

    def spy(params, numerator, rel_tol, grade_floor=None):
        seen.append((numerator, rel_tol, grade_floor))
        return integrate_over_arch(params, numerator, rel_tol, grade_floor)

    monkeypatch.setattr(closure, "integrate_over_arch", spy)
    closure.lambda_p(params)
    (call,) = seen
    return call


@pytest.mark.parametrize(
    "p,a",
    [(0.3, 2.0), (0.99, 7.4e3 * a_star(0.99)), (0.01, 1e3 * a_star(0.01))],
)
def test_block_evaluation_matches_per_panel_rule_bit_for_bit(p, a, monkeypatch):
    params = make_params(p, a)
    numerator, rel_tol, floor = _lambda_call(params, monkeypatch)
    cases = [
        (numerator, rel_tol, floor),
        (lambda k: k**0.7, quad.DEFAULT_REL_TOL, None),
        # a kink at kappa_* makes the heap bisect, so children are compared too
        (lambda k: np.abs(k - params.kappa_star) ** 0.5, quad.DEFAULT_REL_TOL, None),
    ]
    bisected = 0
    for numerator, rel_tol, floor in cases:
        res = integrate_over_arch(params, numerator, rel_tol, floor)
        value, err, _, bisections = _per_panel_reference(params, numerator, rel_tol, floor)
        assert (res.value, res.error_estimate) == (value, err)
        bisected += bisections
    assert bisected > 0


@pytest.mark.parametrize("p,mult", [(0.3, 2.0), (0.99, 7.4e3)])
def test_initial_mesh_is_evaluated_in_bounded_blocks(p, mult, monkeypatch):
    # One integrand call per block of at most 128 panels, 45 nodes a panel:
    # fewer calls than that means unbounded blocks, more means per-panel calls.
    params = make_params(p, mult * a_star(p))
    numerator, rel_tol, floor = _lambda_call(params, monkeypatch)
    _, _, panels, bisections = _per_panel_reference(params, numerator, rel_tol, floor)
    assert bisections == 0
    sizes = []

    def counted(k, q):
        sizes.append(k.size)
        return numerator(k, q)

    integrate_over_arch(params, counted, rel_tol, floor)
    assert len(sizes) == math.ceil(panels / 128)
    assert max(sizes) <= 128 * 45
