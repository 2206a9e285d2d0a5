"""Invariants of the arch quantities over the admissible range, with exact
or derived values as oracles: the paper's two theorems on a dense (p, a)
grid, the polar duality p <-> 1 - p, and the period at p = 1/2."""

import math

import numpy as np
import pytest
from rewrite_reference import condition, rewrite_terms, rounding_bound

from pelastica import closure
from pelastica.energy import energy_closed
from pelastica.errors import ResolutionError
from pelastica.qpotential import a_star, make_params, momentum_cap
from pelastica.quad import DEFAULT_REL_TOL, ArchTrace, kappa_moment
from pelastica.stability import _rewrite_values, _upsilon_rows, upsilon, upsilon_limit

SQRT2_PI = math.sqrt(2.0) * math.pi


def _grid_column(p):
    """(offsets, Lambda, Upsilon's arch rows) along a = a_* (1 + offset),
    offsets 1e-8 to 1e6, up to momentum_cap or the first Lambda the mesh
    cannot resolve.  The rows are [Upsilon, M(1-p), M(-1-p), M(p-1), M(p+1),
    M(p-3)] from one Upsilon quadrature per column; each Upsilon equals
    upsilon's alone, bit for bit (upsilon_grid)."""
    offsets, lams, params_seq = [], [], []
    for offset in np.geomspace(1e-8, 1e6, 30):
        a = a_star(p) * (1.0 + offset)
        if a >= momentum_cap(p):
            break
        params = make_params(p, a)
        try:
            lam = closure.lambda_p(params)
        except ResolutionError:
            break
        offsets.append(offset)
        lams.append(lam)
        params_seq.append(params)
    return offsets, lams, params_seq, _upsilon_rows(params_seq)


@pytest.fixture(scope="module")
def dense_grid():
    """_grid_column at 25 p from 0.01 to 0.99: 738 points."""
    return {p: _grid_column(p) for p in np.linspace(0.01, 0.99, 25).tolist()}


def test_both_theorems_hold_on_a_dense_grid(dense_grid):
    # Existence needs Lambda to sweep (pi, sqrt(2) pi) monotonically, and
    # instability needs Upsilon < 0.  738 points: p = 0.01 stops at
    # momentum_cap (offset ~1.3e3), p = 0.99 at the mesh's reach (~1.2e4).
    # Largest Upsilon -3.14159 (the p = 1/2 threshold value), largest step
    # of Lambda -3.8e-7.  Near threshold Lambda may read above sqrt(2) pi by
    # less than its tolerance (ROADMAP item 3; nowhere on this grid), so
    # Lambda lies in (pi, sqrt(2) pi] wherever sqrt(2) pi - Lambda exceeds
    # the tolerance, and within it of sqrt(2) pi elsewhere.  Upsilon is
    # below its threshold value upsilon_limit(p) = -sqrt(2 a_*) pi at every
    # point and strictly decreasing in a along every p (ROADMAP item 15):
    # the smallest margin is 3.7e-9 relative, at p = 1/2 and offset 1e-8,
    # 37 times the default rel_tol.
    tol = DEFAULT_REL_TOL * SQRT2_PI
    points = 0
    for p, (offsets, lams, _, rows) in dense_grid.items():
        upsilons = [row[0] for row in rows]
        points += len(lams)
        limit = upsilon_limit(p)
        for offset, lam, ups in zip(offsets, lams, upsilons):
            assert math.pi < lam <= SQRT2_PI + tol, (p, offset, lam)
            assert ups < 0.0, (p, offset, ups)
            assert ups < limit, (p, offset, ups, limit)
        assert np.all(np.diff(lams) < 0.0), p
        assert np.all(np.diff(upsilons) < 0.0), p
    assert points == 738


def _grid_rewrites(dense_grid):
    """(p, offset, Upsilon, derived rewrites, reference terms) at every
    point of the dense grid, from its own quadratures."""
    for p, (offsets, _, params_seq, rows) in dense_grid.items():
        for offset, params, (direct, *moments) in zip(offsets, params_seq, rows):
            derived = _rewrite_values(params, moments)
            yield p, offset, direct, derived, rewrite_terms(p, params.a, moments)


def test_rewrites_match_their_hand_expanded_algebra(dense_grid):
    # Each rewrite, derived from eta and the parts identity, equals its
    # written-out three-moment sum to rounding: within what rounding in
    # that sum can cost, relative to Upsilon.  Measured: at most 1.9e-12,
    # 1.3e-6 and 4.3e-6 (r1, r2, r3), and at most 0.19 of the bound.
    for p, offset, direct, derived, reference in _grid_rewrites(dense_grid):
        for k, (value, terms) in enumerate(zip(derived, reference)):
            gap = abs(value - sum(terms)) / abs(direct)
            assert gap <= rounding_bound(terms), (p, offset, k + 1, gap)


def test_rewrite_residuals_are_bounded_by_their_conditioning(dense_grid):
    # ROADMAP item 3: every rewrite's residual against the direct Upsilon is
    # finite and within what rounding in its three-moment sum can cost, and
    # the best-conditioned rewrite agrees to 1e-10.  Measured: at most
    # 1.7e-12, 1.7e-6 and 9.1e-7 (r1, r2, r3), at most 0.17 of the bound,
    # and 1.7e-12 for the best-conditioned rewrite.
    for p, offset, direct, derived, reference in _grid_rewrites(dense_grid):
        residuals = [abs(value - direct) / abs(direct) for value in derived]
        for k, (residual, terms) in enumerate(zip(residuals, reference)):
            assert residual <= rounding_bound(terms), (p, offset, k + 1, residual)
        best = min(range(3), key=lambda k: condition(reference[k]))
        assert residuals[best] <= 1e-10, (p, offset, best + 1, residuals[best])


_DUAL_P = (0.01, 0.05, 0.2, 0.3, 0.45)
_DUAL_OFFSETS = (1e-6, 1e-4, 1e-2, 1.0, 1e2, 5e2)


@pytest.mark.parametrize("p", _DUAL_P)
def test_quantities_are_dual_under_p_to_one_minus_p(p):
    # The polar curve of a p-elastica is a (1-p)-elastica with the same a
    # (ROADMAP item 8): kappa* = 1/kappa, ds* = kappa ds, a_*(p) = a_*(1-p).
    # Lambda, the energy per period and Upsilon are equal at p and 1 - p,
    # and the period at 1 - p is the total curvature 2p(1-p) M(0) at p.
    # Measured: <= 3.6e-13 apart for Lambda, energy and period and
    # <= 1.2e-12 for Upsilon (largest at p = 0.01 and offset 1e-6, where
    # the roots are least accurate), with the octave mesh and the log mesh
    # alike.
    for offset in _DUAL_OFFSETS:
        a = a_star(p) * (1.0 + offset)
        low, high = make_params(p, a), make_params(1.0 - p, a)
        pairs = {
            "lambda": (closure.lambda_p(low), closure.lambda_p(high), 5e-13),
            "energy": (energy_closed(low, 1), energy_closed(high, 1), 5e-13),
            "upsilon": (upsilon(low).upsilon, upsilon(high).upsilon, 2e-12),
            "period": (
                2.0 * p * (1.0 - p) * kappa_moment(low, 0.0),
                closure.period(high),
                5e-13,
            ),
        }
        for name, (at_p, at_dual, rel) in pairs.items():
            assert at_dual == pytest.approx(at_p, rel=rel, abs=0.0), (name, offset)


@pytest.mark.parametrize("p,dual", [(0.2, 0.8), (0.01, 0.99)])
def test_dual_reference_rows_share_their_closure(solved_rows, p, dual):
    # table1's dual rows take one closure scan, at the smaller exponent: the
    # larger row's ClosureIndex is the smaller row's, bit for bit.  The
    # energy and delta^2, computed independently at p and 1 - p at that
    # momentum, agree as the duality says (ROADMAP item 8).
    index = solved_rows[(p, 2, 3)]
    assert solved_rows[(dual, 2, 3)] == index
    low, high = make_params(p, index.a_solved), make_params(dual, index.a_solved)
    assert energy_closed(high, 3) == pytest.approx(energy_closed(low, 3), rel=1e-12, abs=0.0)
    assert upsilon(high, m=3).delta_squared == pytest.approx(
        upsilon(low, m=3).delta_squared, rel=1e-12, abs=0.0
    )


@pytest.mark.parametrize("n,m", [(2, 3), (3, 5), (5, 8)])
def test_dual_area_plus_length_is_a_multiple_of_two_pi(solved_rows, n, m):
    # On a closed curve the swept area of the 1 - p curve plus the length of
    # the p curve at the same momentum is 0 mod 2 pi (ROADMAP item 8); here
    # it is 2 pi n.  The 0.3 and 0.7 curves of (n, m) share their momentum,
    # since Lambda_p = Lambda_{1-p}.  Measured: within 6.4e-14 of 2 pi n.
    a = solved_rows[(0.3, n, m)].a_solved
    for p, dual in ((0.3, 0.7), (0.7, 0.3)):
        length = m * ArchTrace(make_params(p, a)).period
        area = m * ArchTrace(make_params(dual, a)).area
        assert abs(math.remainder(area + length, 2.0 * math.pi)) <= 1e-12, p
        assert round((area + length) / (2.0 * math.pi)) == n, p


# At p = 1/2, Q = a kappa - kappa^2/4 - 1/4 is a quadratic in kappa, so
# int dkappa / (kappa sqrt(Q)) over the arch is 2 pi and the period, times
# 2p(1-p) = 1/2, is pi at every momentum (ROADMAP item 9).
_ITEM_7 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: near threshold the arch's nodes switch between "
    "Q's Taylor and direct forms inside the arch, and the direct form has "
    "lost digits (1.1e-13 to 6.7e-11 off pi)",
)


@pytest.mark.parametrize(
    "offset",
    [1e-12, 1e-11]
    + [pytest.param(10.0**e, marks=_ITEM_7) for e in range(-10, -5)]
    + [10.0**e for e in range(-5, 6)],
)
def test_period_at_one_half_is_pi(offset):
    params = make_params(0.5, a_star(0.5) * (1.0 + offset))
    assert closure.period(params) == pytest.approx(math.pi, rel=1e-14, abs=0.0)
