"""Second variation: quadrature, rewrites, elliptic closed form, traces."""

import math

import numpy as np
import pytest
from rewrite_reference import rewrite_terms
from scipy.special import ellipe, ellipk

from pelastica import quad
from pelastica.errors import DomainError, ResolutionError
from pelastica.qpotential import a_star, make_params
from pelastica.stability import (
    _eta,
    _powers,
    _upsilon_rows,
    circle_second_variation,
    elliptic_ke,
    second_variation,
    upsilon,
    upsilon_elliptic_half,
    upsilon_grid,
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
    eta = float(_eta(p, params.a, _powers(k, k ** (1 - p))))
    assert eta == pytest.approx(expected, rel=1e-14)


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


def test_third_rewrite_is_finite_where_its_expanded_sum_overflows():
    # At p = 0.99, a = 953921.8 M(p-3) is ~3e303 and Upsilon ~-3e299.  The
    # written-out r3 multiplies M(p-3) by its 1/(1-p)^3 coefficient, which
    # overflows to inf, and its sum is NaN; derived through the parts
    # identity r3 solves M(p-1) from M(p-3) and stays finite.  Measured:
    # residuals 8.1e-14, 8.1e-14 and 9.1e-7.
    params = make_params(0.99, 953921.8)
    _, *moments = _upsilon_rows([params])[0]
    assert math.isnan(sum(rewrite_terms(params.p, params.a, moments)[2]))
    residuals = upsilon(params).rewrite_residuals
    assert all(map(math.isfinite, residuals))
    assert residuals[2] < 1e-5


def test_upsilon_negative_and_delta_squared_scaling():
    rep = upsilon(make_params(0.3, 1.0), m=3)
    assert rep.upsilon < 0.0
    assert rep.delta_squared == pytest.approx(6.0 * rep.upsilon)
    with pytest.raises(DomainError):
        upsilon(make_params(0.3, 1.0), m=0)


# The benchmark's five Upsilon sweep grids (seed 1): 8 offsets from 1e-6 to
# the largest each p's Lambda sweep reaches.  The p = 0.99 and p = 0.881
# grids refine, and the p = 0.01 and p = 0.99 ones fill more than a block.
_SWEEP_GRIDS = [
    (0.01, 523.5116567016549),
    (0.5, 1e5),
    (0.99, 7498.942093324558),
    (0.11, 1e5),
    (0.881, 1e5),
]


def _sweep_params(p, offset_max, count=8):
    """The parameters of cmd_sweep's momentum grid."""
    grid = a_star(p) * (1.0 + np.geomspace(1e-6, offset_max, count))
    return [make_params(p, a) for a in grid]


def _work(monkeypatch):
    """Node counts of the theta-integrand calls and the number of bisection
    rounds of each arch, from here on."""
    sizes, rounds = [], []
    make, midpoints = quad._make_theta_integrand, quad._midpoints

    def counting(params_seq, numerator):
        f = make(params_seq, numerator)

        def counted(theta, arch):
            sizes.append(theta.size)
            return f(theta, arch)

        return counted

    def bisecting(lo, hi, log):
        rounds.append(lo.size)
        return midpoints(lo, hi, log)

    monkeypatch.setattr(quad, "_make_theta_integrand", counting)
    monkeypatch.setattr(quad, "_midpoints", bisecting)
    return sizes, rounds


@pytest.mark.parametrize("p,offset_max", _SWEEP_GRIDS)
def test_upsilon_grid_equals_one_call_per_momentum(p, offset_max, monkeypatch):
    # every Upsilon, delta^2 and rewrite residual, bit for bit, on the same
    # nodes and refinement rounds in fewer integrand calls
    params_seq = _sweep_params(p, offset_max)
    sizes, rounds = _work(monkeypatch)
    grid = upsilon_grid(params_seq, m=3)
    grid_sizes, grid_rounds = list(sizes), list(rounds)
    del sizes[:], rounds[:]
    assert grid == tuple(upsilon(params, m=3) for params in params_seq)
    assert sum(grid_sizes) == sum(sizes) and grid_rounds == rounds
    assert len(grid_sizes) < len(sizes)
    assert (len(rounds) > 0) == (p in (0.99, 0.881))
    # six rows take blocks of 92 panels, 2,852 nodes
    assert max(grid_sizes) <= 92 * 31


def test_upsilon_grid_work_on_the_sweep_grids(monkeypatch):
    # 10 integrand calls of 19,933 nodes for the five grids' 40 momenta,
    # against 46 calls of the same nodes for one call per momentum
    sizes, _ = _work(monkeypatch)
    for p, offset_max in _SWEEP_GRIDS:
        upsilon_grid(_sweep_params(p, offset_max))
    assert len(sizes) <= 12
    assert sum(sizes) <= 22_000


def test_upsilon_grid_mixes_near_circular_and_arch_momenta():
    # a near-circular momentum takes the local-maximum limit beside the
    # arches of the grid, each as upsilon gives it alone
    p = 0.3
    params_seq = [make_params(p, a_star(p) * (1.0 + off)) for off in (1e-14, 1.0, 1e-14, 50.0)]
    assert params_seq[0].near_circular and not params_seq[1].near_circular
    assert upsilon_grid(params_seq) == tuple(upsilon(params) for params in params_seq)


def test_upsilon_grid_domain():
    assert upsilon_grid([]) == ()
    with pytest.raises(DomainError):
        upsilon_grid([make_params(0.3, 1.0), make_params(0.4, 1.0)])
    with pytest.raises(DomainError):
        upsilon_grid([make_params(0.3, 1.0)], m=0)


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

