"""Second variation: quadrature, rewrites, elliptic closed form, traces."""

import math

import numpy as np
import pytest
from scipy.special import ellipe, ellipk

from pelastica.errors import DomainError, ResolutionError
from pelastica.qpotential import a_star, make_params
from pelastica.stability import (
    _eta,
    _powers,
    circle_second_variation,
    elliptic_ke,
    second_variation,
    upsilon,
    upsilon_elliptic_half,
    upsilon_limit,
)


def test_elliptic_agm_matches_scipy():
    for zeta in (0.0, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-12):
        k_val, e_val = elliptic_ke(zeta)
        assert k_val == pytest.approx(float(ellipk(zeta * zeta)), rel=1e-13)
        assert e_val == pytest.approx(float(ellipe(zeta * zeta)), rel=1e-13)
    with pytest.raises(DomainError):
        elliptic_ke(1.0)
    with pytest.raises(DomainError):
        elliptic_ke(-0.1)


def test_eta_matches_direct_formula():
    p, a = 0.3, 1.5
    params = make_params(p, a)
    k = 1.3
    expected = (
        -(p + 1) * a * k ** (1 - p)
        - (2 - p) * a * k ** (-1 - p)
        + (1 - p) ** 2 * (2 * p + 1) * k ** (p + 1)
        + 2 * (4 * p**2 - 4 * p + 1) * k ** (p - 1)
        + p**2 * (3 - 2 * p) * k ** (p - 3)
    )
    assert float(_eta(params, _powers(k, k ** (1 - p)))) == pytest.approx(expected, rel=1e-14)


def test_rewrites_agree_with_direct_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(12):
        # the r2 coefficients grow like 1/p^3, so the float64 comparison is
        # only well conditioned away from the small-p end
        p = rng.uniform(0.15, 0.85)
        a = a_star(p) * rng.uniform(1.05, 30.0)
        rep = upsilon(make_params(p, a), rel_tol=1e-12)
        assert max(rep.rewrite_residuals) < 1e-8


@pytest.mark.parametrize("off", [0.5, 5.0, 100.0, 999.0])
def test_first_and_third_rewrites_agree_at_small_p(off):
    # At p = 0.01 the float64 upper root is only ~1e-12 accurate; unless the
    # quadrature refines it, direct and rewritten Upsilon part by 1e-8..1e-7.
    p = 0.01
    r1, _, r3 = upsilon(make_params(p, a_star(p) * (1.0 + off))).rewrite_residuals
    assert max(r1, r3) < 1e-10


def test_upsilon_negative_and_delta_squared_scaling():
    rep = upsilon(make_params(0.3, 1.0), m=3)
    assert rep.upsilon < 0.0
    assert rep.delta_squared == pytest.approx(6.0 * rep.upsilon)
    with pytest.raises(DomainError):
        upsilon(make_params(0.3, 1.0), m=0)


def test_elliptic_closed_form_matches_quadrature():
    for a in (0.5005, 0.6, 1.0, 5.0, 50.0):
        closed = upsilon_elliptic_half(a)
        direct = upsilon(make_params(0.5, a)).upsilon
        assert closed == pytest.approx(direct, rel=1e-9)
    with pytest.raises(DomainError):
        upsilon_elliptic_half(0.5)


def test_upsilon_threshold_limit():
    # Upsilon -> -sqrt(2 a_*) pi as a -> a_*
    for p in (0.3, 0.5, 0.7):
        lim = upsilon_limit(p)
        near = upsilon(make_params(p, a_star(p) * (1 + 1e-8))).upsilon
        assert near == pytest.approx(lim, rel=1e-3)
    assert upsilon_limit(0.5) == pytest.approx(-math.pi)


def test_general_form_reduces_to_constant_variation(g23_trace, g23_solved):
    rep = upsilon(g23_trace.params, m=g23_solved.m)
    traced = second_variation(g23_trace)
    assert traced == pytest.approx(rep.delta_squared, rel=1e-6)


def test_general_form_guards_resolution(g23_solved):
    from pelastica.curve import trace_closed_curve

    coarse = trace_closed_curve(0.3, g23_solved, samples_per_period=64)
    with pytest.raises(ResolutionError):
        second_variation(coarse)


def test_circle_second_variation_values():
    # -2 times the circle energy at the critical radius
    for p in (0.2, 0.5, 0.8):
        expected = -4.0 * math.pi * p ** (p / 2.0) * (1.0 - p) ** ((1.0 - p) / 2.0)
        assert circle_second_variation(p) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        circle_second_variation(0.0)

