"""Angular progression, admissibility window and the closure solver."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelastica import closure
from pelastica.closure import (
    ClosureIndex,
    is_admissible,
    lambda_p,
    period,
    solve_closure,
)
from pelastica.errors import DomainError, ResolutionError
from pelastica.qpotential import a_star, make_params

SQRT2_PI = math.sqrt(2.0) * math.pi


def test_admissibility_window_brute_force():
    for n in range(1, 20):
        for m in range(1, 30):
            expected = (
                math.gcd(n, m) == 1 and m < 2 * n and (2 * n) ** 2 < 2 * m * m
            )
            assert is_admissible(n, m) == expected


def test_admissible_examples():
    assert is_admissible(2, 3)
    assert is_admissible(3, 5)
    assert is_admissible(5, 8)
    assert not is_admissible(5, 7)  # 100 >= 98
    assert not is_admissible(2, 4)  # not coprime
    assert not is_admissible(1, 2)  # target equals the unattained sqrt(2) pi
    assert not is_admissible(0, 3)


@given(n=st.integers(1, 40), m=st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_admissible_target_strictly_inside_limits(n, m):
    if is_admissible(n, m):
        target = 2.0 * math.pi * Fraction(n, m)
        assert math.pi < target < SQRT2_PI


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_lambda_limits(p):
    thr = a_star(p)
    near = lambda_p(make_params(p, thr * (1 + 1e-6)))
    far = lambda_p(make_params(p, thr * 1e6))
    assert abs(near - SQRT2_PI) < 1e-2
    assert abs(far - math.pi) < 2e-2


def test_lambda_monotone_trend_on_sample():
    # conjectured decreasing in a; checked as a trend on a coarse grid
    p = 0.5
    thr = a_star(p)
    vals = [lambda_p(make_params(p, thr * (1 + off))) for off in (1e-3, 1e-1, 1.0, 10.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_solve_closure_reproduces_reference_momentum(g23_solved):
    assert g23_solved.a_solved == pytest.approx(0.79, abs=0.02)
    assert g23_solved.a_candidates == (g23_solved.a_solved,)
    # solution actually meets the target
    params = make_params(0.3, g23_solved.a_solved)
    assert lambda_p(params) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-9)


def test_solve_closure_rejects_inadmissible():
    with pytest.raises(DomainError):
        solve_closure(0.3, ClosureIndex(5, 7))
    with pytest.raises(DomainError):
        solve_closure(0.3, ClosureIndex(1, 2))


def test_solve_closure_tolerance_floor():
    with pytest.raises(DomainError):
        solve_closure(0.3, ClosureIndex(2, 3), tol=1e-12)


def test_closure_index_validation():
    with pytest.raises(DomainError):
        ClosureIndex(0, 3)
    idx = ClosureIndex(2, 3)
    assert idx.q == pytest.approx(2.0 / 3.0)
    assert idx.target == pytest.approx(4.0 * math.pi / 3.0)


def test_period_positive_and_scales(g23_params):
    rho = period(g23_params)
    assert rho > 0.0
    # higher momentum shortens the arch period for this family
    rho_far = period(make_params(0.3, 3.0))
    assert rho_far < rho


def test_lambda_unresolvable_layer_raises():
    # at p = 0.99 the inner layer's theta scale drops below 8e-300 between
    # 7.5e3 a_* and 1e4 a_*, and underflows float64 altogether by 2e4 a_*
    thr = a_star(0.99)
    last = lambda_p(make_params(0.99, thr * (1.0 + 7.5e3)))
    assert math.pi < last < math.pi + 1e-3
    for offset in (1e4, 2e4):
        with pytest.raises(ResolutionError):
            lambda_p(make_params(0.99, thr * (1.0 + offset)))


def test_closure_scan_stops_at_unresolvable_lambda(monkeypatch):
    seen = []
    original = closure.lambda_p

    def recording(*args):
        value = original(*args)
        seen.append(value)
        return value

    monkeypatch.setattr(closure, "lambda_p", recording)
    solved = solve_closure(0.99, ClosureIndex(2, 3))
    assert solved.a_solved == pytest.approx(0.96, abs=0.02)
    assert solved.a_candidates == (solved.a_solved,)
    # every Lambda the scan used is a true progression angle
    assert all(math.pi < v <= SQRT2_PI for v in seen)
