"""Potential, threshold, roots and root-count classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelastica.errors import DomainError, NoPeriodicOrbit
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
        res = classify_positive_roots(p, a)
        assert res.count == 2
        assert res.bracket_function == "Q"
        beta, alpha = res.roots
        assert beta < alpha


def test_classification_other_exponents_never_two():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = rng.choice([rng.uniform(-5, 0), rng.uniform(1.01, 2), rng.uniform(2, 10)])
        a = rng.uniform(0.05, 20.0)
        res = classify_positive_roots(float(p), float(a))
        assert res.count <= 1


def test_classification_rejects_p_equal_one():
    with pytest.raises(DomainError):
        classify_positive_roots(1.0, 1.0)
    with pytest.raises(DomainError):
        classify_positive_roots(0.5, -1.0)
