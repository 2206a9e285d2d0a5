"""Potential, threshold, roots and root-count classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pelastica import qpotential
from pelastica.errors import ConvergenceFailure, DomainError, NoPeriodicOrbit
from pelastica.qpotential import (
    a_star,
    classify_positive_roots,
    curvature_bounds,
    kappa_star,
    make_params,
    momentum_cap,
    q_eval,
    q_prime,
    q_second,
)


def test_threshold_values():
    assert a_star(0.5) == pytest.approx(0.5, abs=1e-15)
    # symmetric under p <-> 1-p
    for p in (0.1, 0.25, 0.4):
        assert a_star(p) == pytest.approx(a_star(1.0 - p), rel=1e-14)
    # maximum of p^p (1-p)^(1-p) on (0,1) is at the endpoints (limit 1)
    assert a_star(0.01) > a_star(0.3) > a_star(0.5)


def test_threshold_domain():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            a_star(bad)


def test_q_eval_against_direct_formula():
    p, a = 0.3, 1.2
    for k in (0.2, 0.9, 1.7, 4.0):
        expected = a * k ** (2 * (1 - p)) - (1 - p) ** 2 * k**2 - p**2
        assert q_eval(p, a, k) == pytest.approx(expected, rel=1e-15)
    assert q_eval(p, a, [0.2, 0.9]) == pytest.approx(
        [q_eval(p, a, 0.2), q_eval(p, a, 0.9)]
    )


def test_q_derivatives_match_finite_differences():
    p, a, k = 0.42, 1.5, 1.3
    h = 1e-6
    fd1 = (q_eval(p, a, k + h) - q_eval(p, a, k - h)) / (2 * h)
    assert q_prime(p, a, k) == pytest.approx(fd1, rel=1e-8)
    # wider step for the second difference: roundoff scales like eps / h^2
    h = 1e-4
    fd2 = (q_eval(p, a, k + h) - 2 * q_eval(p, a, k) + q_eval(p, a, k - h)) / h**2
    assert q_second(p, a, k) == pytest.approx(fd2, rel=1e-6)


def test_kappa_star_is_critical_point():
    p, a = 0.35, 1.1
    ks = kappa_star(p, a)
    assert q_prime(p, a, ks) == pytest.approx(0.0, abs=1e-12)
    assert q_second(p, a, ks) < 0.0


@given(
    p=st.floats(0.05, 0.95),
    mult=st.floats(1.01, 1e5),
)
@settings(max_examples=60, deadline=None)
def test_curvature_bounds_are_roots(p, mult):
    a = a_star(p) * mult
    beta, alpha = curvature_bounds(p, a)
    assert 0.0 < beta < kappa_star(p, a) < alpha
    # simple roots: Q vanishes to near machine precision relative to its scale
    scale = a * beta ** (2 * (1 - p)) + (1 - p) ** 2 * beta**2 + p**2
    assert abs(q_eval(p, a, beta)) < 1e-10 * scale
    scale = a * alpha ** (2 * (1 - p)) + (1 - p) ** 2 * alpha**2 + p**2
    assert abs(q_eval(p, a, alpha)) < 1e-10 * scale
    # Q positive strictly between the roots
    mid = math.sqrt(beta * alpha)
    assert q_eval(p, a, mid) > 0.0


def test_no_orbit_below_threshold():
    with pytest.raises(NoPeriodicOrbit):
        curvature_bounds(0.3, a_star(0.3))
    with pytest.raises(NoPeriodicOrbit):
        curvature_bounds(0.3, 0.5 * a_star(0.3))


def test_extreme_exponents_still_bracket():
    # dynamic ranges of ~1e56 between the roots
    for p, mult in ((0.01, 1e2), (0.99, 1e4), (0.05, 1e5)):
        a = a_star(p) * mult
        beta, alpha = curvature_bounds(p, a)
        assert beta < alpha
        assert np.isfinite(beta) and np.isfinite(alpha)


def test_momentum_cap_monotone_and_respected():
    caps = [momentum_cap(p) for p in (0.01, 0.1, 0.5, 0.9)]
    assert all(np.isfinite(c) and c > 0.0 for c in caps)
    assert all(b > a for a, b in zip(caps, caps[1:]))
    with pytest.raises(DomainError):
        curvature_bounds(0.01, caps[0] * 10.0)


def test_curvature_minimum_below_float_range_is_a_domain_error():
    # beta ~ (p^2/a)^(1/(2(1-p))) underflows float64 here
    with pytest.raises(DomainError):
        make_params(0.99, a_star(0.99) * (1.0 + 1e7))
    # still representable (beta ~ 1e-193) a few decades lower
    beta, _ = curvature_bounds(0.99, a_star(0.99) * (1.0 + 7.5e3))
    assert 0.0 < beta < 1e-150


def test_curvature_bounds_roots_sit_at_a_sign_change(monkeypatch):
    searches = []
    zeroin = qpotential._zeroin

    def recording(f, *args, **kwargs):
        u = zeroin(f, *args, **kwargs)
        searches.append((f, u))
        return u

    monkeypatch.setattr(qpotential, "_zeroin", recording)
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(5000):
        p = float(rng.uniform(0.002, 0.998))
        cases.append((p, a_star(p) * (1.0 + 10.0 ** rng.uniform(-9, 7))))
    # Q(1) = 0: a root at u = 0, where the relative tolerance alone vanishes
    for p in np.linspace(0.02, 0.96, 24).tolist():
        a = (1.0 - p) ** 2 + p**2
        cases += [(p, a * (1.0 + k * 2.0**-52)) for k in (-1, 0, 1)]
    domain_errors = 0
    for p, a in cases:
        before = len(searches)
        try:
            beta, alpha = curvature_bounds(p, a)
        except DomainError:
            # only from the range checks, before any search
            assert len(searches) == before, (p, a)
            domain_errors += 1
            continue
        assert beta < kappa_star(p, a) < alpha, (p, a)
        # Brent stops once its bracket is narrower than xtol + 4 eps |u|,
        # at most 8 ulps of u
        for sign, u in searches[-2:]:
            values = [sign(u + j * math.ulp(u)) for j in range(-8, 9)]
            assert min(values) <= 0.0 <= max(values), (p, a, u)
    assert 0 < domain_errors < len(cases) // 4


def test_near_circular_flag():
    p = 0.3
    almost = make_params(p, a_star(p) * (1 + 1e-14))
    assert almost.near_circular
    wide = make_params(p, a_star(p) * 2.0)
    assert not wide.near_circular


def test_classification_two_roots_inside_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = rng.uniform(0.05, 0.95)
        a = a_star(p) * (1.001 + rng.uniform(0.0, 100.0))
        roots = classify_positive_roots(p, a)
        assert len(roots) == 2
        beta, alpha = roots
        assert beta < alpha


def test_classification_other_exponents_never_two():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = rng.choice([rng.uniform(-5, 0), rng.uniform(1.01, 2), rng.uniform(2, 10)])
        a = rng.uniform(0.05, 20.0)
        assert len(classify_positive_roots(float(p), float(a))) <= 1


def _per_point_roots(p, a):
    """Reference for classify_positive_roots: the sign surrogate called once
    per grid point and the grid walked in a Python loop."""
    fn = qpotential._log_sign_fn(p, a)
    if 0.0 < p < 1.0 and a > a_star(p):
        u_lo = (2.0 * math.log(p) - math.log(a)) / (2.0 * (1.0 - p)) - 2.0
        u_hi = (math.log(a) - 2.0 * math.log1p(-p)) / (2.0 * p) + 2.0
    else:
        u_lo, u_hi = -200.0, 200.0
    grid = np.linspace(u_lo, u_hi, 1024)
    vals = [fn(u) for u in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(math.exp(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(math.exp(brentq(fn, grid[i], grid[i + 1], xtol=1e-14)))
    return tuple(roots)


def test_classification_matches_per_point_scan():
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(20):
        p = rng.uniform(0.01, 0.99)
        cases.append((p, a_star(p) * (1.0 + 10.0 ** rng.uniform(-6, 4))))
        cases.append((p, a_star(p) * rng.uniform(0.1, 1.0)))
        cases.append((-rng.uniform(0.01, 5.0), 10.0 ** rng.uniform(-3, 3)))
        cases.append((1.0 + rng.uniform(0.01, 5.0), 10.0 ** rng.uniform(-3, 3)))
    for p, a in cases:
        assert classify_positive_roots(p, a) == _per_point_roots(p, a), (p, a)


def _classification_cells(p, a):
    """The sign surrogate and the sign-change cells of the classification grid."""
    fn = qpotential._log_sign_fn(p, a)
    if 0.0 < p < 1.0 and a > a_star(p):
        u_lo = (2.0 * math.log(p) - math.log(a)) / (2.0 * (1.0 - p)) - 2.0
        u_hi = (math.log(a) - 2.0 * math.log1p(-p)) / (2.0 * p) + 2.0
    else:
        u_lo, u_hi = -200.0, 200.0
    grid = np.linspace(u_lo, u_hi, 1024)
    vals = fn(grid)
    return fn, [(grid[i], grid[i + 1]) for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]


def test_zeroin_matches_brentq_on_classification_cells():
    # the port must return brentq's bits, not merely a root to tolerance
    rng = np.random.default_rng(5)
    counts = {"p < 0": 0, "0 < p < 1": 0, "p > 1": 0}
    for _ in range(25):
        p = float(rng.uniform(0.01, 0.99))
        cases = [
            ("0 < p < 1", p, a_star(p) * (1.0 + 10.0 ** rng.uniform(-6, 4))),
            ("p < 0", -float(rng.uniform(0.01, 5.0)), 10.0 ** rng.uniform(-3, 3)),
            ("p > 1", 1.0 + float(rng.uniform(0.01, 5.0)), 10.0 ** rng.uniform(-3, 3)),
        ]
        for label, p, a in cases:
            fn, cells = _classification_cells(p, a)
            for lo, hi in cells:
                assert qpotential._zeroin(fn, lo, hi, xtol=1e-14) == brentq(
                    fn, lo, hi, xtol=1e-14
                ), (p, a, lo, hi)
                counts[label] += 1
    assert min(counts.values()) >= 20, counts


def test_zeroin_returns_an_endpoint_where_f_is_zero():
    assert qpotential._zeroin(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-14) == 1.0
    assert qpotential._zeroin(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-14) == 3.0


def test_zeroin_without_sign_change_is_a_convergence_failure():
    with pytest.raises(ConvergenceFailure, match="sign change"):
        qpotential._zeroin(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-14)


def test_zeroin_nan_value_is_a_convergence_failure():
    with pytest.raises(ConvergenceFailure, match="NaN"):
        qpotential._zeroin(lambda x: math.nan, 0.0, 1.0, xtol=1e-14)
    # a NaN met inside the bracket, after both endpoints were finite
    with pytest.raises(ConvergenceFailure, match="NaN"):
        qpotential._zeroin(lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, 0.0, 1.0, 1e-14)


def test_zeroin_iteration_cap_is_a_convergence_failure():
    def f(x):
        return math.copysign(1.0, x - 0.3)

    # a step function forces bisection: 2 iterations narrow [0, 1] to no less
    # than a quarter, while 100 reach the tolerance
    assert qpotential._zeroin(f, 0.0, 1.0, xtol=1e-12) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ConvergenceFailure, match="2 iterations"):
        qpotential._zeroin(f, 0.0, 1.0, xtol=1e-12, maxiter=2)


def test_classification_rejects_p_equal_one():
    with pytest.raises(DomainError):
        classify_positive_roots(1.0, 1.0)
    with pytest.raises(DomainError):
        classify_positive_roots(0.5, -1.0)
