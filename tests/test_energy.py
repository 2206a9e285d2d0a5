"""Bending energy of closed curves and circles."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from pelastica.cli import REFERENCE_TABLE, _solve_rows
from pelastica.energy import (
    circle_energy,
    circle_radius,
    energy_closed,
    energy_limit,
)
from pelastica.errors import DomainError
from pelastica.qpotential import a_star, make_params
from pelastica.stability import upsilon


def _oracle_energy(params, m):
    """Independent evaluation via scipy quad with algebraic endpoint weights."""
    p, a = params.p, params.a
    beta, alpha = params.beta, params.alpha

    pad = 1e-13 * (alpha - beta)

    def smooth(k):
        k = min(max(k, beta + pad), alpha - pad)
        g = (a * k ** (2 * (1 - p)) - (1 - p) ** 2 * k**2 - p**2) / (
            (alpha - k) * (k - beta)
        )
        return k ** (p - 1.0) / math.sqrt(g)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = scipy_quad(
            smooth, beta, alpha, weight="alg", wvar=(-0.5, -0.5), limit=200,
            epsabs=1e-13, epsrel=1e-12,
        )
    return 2.0 * m * p * (1.0 - p) * val


def test_energy_matches_scipy_oracle():
    params = make_params(0.3, 1.5)
    assert energy_closed(params, 3) == pytest.approx(_oracle_energy(params, 3), rel=1e-9)


def test_energy_linear_in_periods():
    params = make_params(0.4, 1.0)
    one = energy_closed(params, 1)
    five = energy_closed(params, 5)
    assert five == pytest.approx(5.0 * one, rel=1e-12)
    with pytest.raises(DomainError):
        energy_closed(params, 0)


def test_energy_threshold_limit():
    for p in (0.2, 0.5, 0.8):
        near = energy_closed(make_params(p, a_star(p) * (1 + 1e-8)), 1)
        assert near == pytest.approx(energy_limit(p, 1), rel=1e-3)
    assert energy_limit(0.5, 1) == pytest.approx(math.pi)


def test_circle_energy_closed_form_and_maximum():
    p = 0.3
    r_crit = circle_radius(p)
    assert r_crit == pytest.approx(math.sqrt(0.7))
    # critical radius maximizes the circle energy
    e_crit = circle_energy(r_crit, p)
    for r in (r_crit - 1e-3, r_crit + 1e-3):
        assert circle_energy(r, p) < e_crit
    assert e_crit == pytest.approx(
        2.0 * math.pi * p ** (p / 2.0) * (1.0 - p) ** ((1.0 - p) / 2.0), rel=1e-12
    )


def test_circle_energy_vanishing_infimum():
    # energies of r -> 1 circles decrease toward zero; strict decrease holds
    # once the radius passes the critical point sqrt(1-p)
    for p in (0.2, 0.4, 0.8):
        eps = [2.0**-k for k in range(1, 41)]
        window = [e for e in eps if e < 1.0 - math.sqrt(1.0 - p)]
        vals = [circle_energy(1.0 - e, p) for e in window]
        assert all(v > 0.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
    # the decay rate is (2 eps)^(p/2), so reaching 1e-3 needs tiny eps
    assert circle_energy(1.0 - 1e-14, 0.8) < 1e-3


def test_circle_energy_domain():
    for bad_r in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            circle_energy(bad_r, 0.3)
    with pytest.raises(DomainError):
        circle_energy(0.5, 1.2)


def test_closed_curve_energies_positive(solved_rows):
    for (p, n, m), solved in solved_rows.items():
        assert energy_closed(make_params(p, solved.a_solved), m) > 0.0


def test_table_energy_is_the_upsilon_quadrature_moment_row(solved_rows):
    # table1 runs one Upsilon quadrature per exponent and takes each row's
    # energy from its M(p-1) row and delta^2 from its direct row: both equal
    # energy_closed and upsilon at the row's momentum, bit for bit.
    for tag, p, n, m, a, theta, delta2 in _solve_rows(REFERENCE_TABLE):
        assert a == solved_rows[(p, n, m)].a_solved, tag
        params = make_params(p, a)
        assert theta == energy_closed(params, m), tag
        assert delta2 == upsilon(params, m=m).delta_squared, tag


def test_energy_against_arc_length_quadrature(g23_trace, g23_solved):
    # independent pipeline: trapezoid of kappa^p over the traced curve
    st = g23_trace.states
    by_trace = float(np.trapezoid(st.kappa**0.3, st.s))
    theta = energy_closed(g23_trace.params, g23_solved.m)
    assert by_trace == pytest.approx(theta, rel=1e-6)
