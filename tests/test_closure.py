"""Angular progression, admissibility window and the closure solver."""

import math
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from pelastica import closure
from pelastica.cli import REFERENCE_TABLE
from pelastica.closure import (
    ClosureIndex,
    is_admissible,
    lambda_p,
    period,
    solve_closure,
    solve_closures,
)
from pelastica.errors import DomainError, NotFound, ResolutionError
from pelastica.qpotential import _zeroin, a_star, make_params, momentum_cap

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


def test_zeroin_matches_brentq_on_every_reference_closure_bracket(solved_rows):
    # the scan cell holding each reference row's root, refined by the port
    # and by brentq with solve_closure's tolerances: the same bits, and the
    # bits table1's scan returned.  The dual rows p = 0.8 and 0.99 take
    # their root from the scan at 0.2 and 0.01, so they are refined on that
    # exponent; Brent on Lambda at the row's own p, in the same cell, lands
    # within 1e-14 of it.
    exponents = {p for p, _, _ in solved_rows}
    for (p, n, m), solved in solved_rows.items():
        scan_p = min([p, *(q for q in exponents if p + q == 1.0)])
        thr = a_star(scan_p)
        target = ClosureIndex(n, m).target

        def gap(a, q, target=target):
            return lambda_p(make_params(q, a), closure._SCAN_REL_TOL) - target

        k = 1
        while thr * (1.0 + 2.0**k * closure._SCAN_BASE) < solved.a_solved:
            k += 1
        lo = thr * (1.0 + 2.0 ** (k - 1) * closure._SCAN_BASE)
        hi = thr * (1.0 + 2.0**k * closure._SCAN_BASE)
        root = _zeroin(partial(gap, q=scan_p), lo, hi, xtol=1e-15, rtol=1e-14)
        assert root == brentq(gap, lo, hi, xtol=1e-15, rtol=1e-14, args=(scan_p,)), (p, n, m)
        assert root == solved.a_solved, (p, n, m)
        assert solved.a_candidates == (root,), (p, n, m)
        own = _zeroin(partial(gap, q=p), lo, hi, xtol=1e-15, rtol=1e-14)
        assert own == pytest.approx(root, rel=1e-14, abs=0.0), (p, n, m)


def test_solve_closure_rejects_inadmissible():
    with pytest.raises(DomainError):
        solve_closure(0.3, ClosureIndex(5, 7))
    with pytest.raises(DomainError):
        solve_closure(0.3, ClosureIndex(1, 2))


def test_grouped_solve_matches_per_pair_bit_for_bit():
    # one scan for table1's six p = 0.3 pairs, each pair refined from it
    indices = tuple(ClosureIndex(n, m) for _, p, n, m, *_ in REFERENCE_TABLE if p == 0.3)
    assert len(indices) == 6
    grouped = solve_closures(0.3, indices)
    for index, got in zip(indices, grouped):
        alone = solve_closure(0.3, index)
        assert (got.n, got.m) == (index.n, index.m)
        assert got.a_solved == alone.a_solved
        assert got.a_candidates == alone.a_candidates


def test_grouped_solve_of_no_indices_is_empty():
    assert solve_closures(0.3, ()) == ()


@pytest.mark.parametrize(
    "bad,error",
    [
        (ClosureIndex(5, 7), DomainError),
        # admissible, but 2 pi 2378/3363 lies within 1e-6 of sqrt(2) pi
        (ClosureIndex(2378, 3363), NotFound),
    ],
)
@pytest.mark.parametrize("position", [0, 1, 2])
def test_grouped_solve_checks_every_index_before_any_lambda(bad, error, position, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("Lambda computed before every index was checked")

    monkeypatch.setattr(closure, "lambda_p", forbidden)
    monkeypatch.setattr(closure, "lambda_grid", forbidden)
    indices = [ClosureIndex(2, 3), ClosureIndex(3, 5)]
    indices.insert(position, bad)
    with pytest.raises(error):
        solve_closures(0.3, tuple(indices))


_ADMISSIBLE_UP_TO_40 = tuple(
    (n, m) for m in range(1, 41) for n in range(1, m) if is_admissible(n, m)
)


@pytest.mark.parametrize("p", [0.001, 0.01, 0.5, 0.99, 0.999])
def test_every_admissible_pair_closes(p):
    # The existence theorem: each coprime (n, m) with m < 2n < sqrt(2) m has
    # a closed gamma_{n,m}.  (12, 17), with 2 * 12/17 only 2.5e-3 below
    # sqrt(2), does not close yet at the extreme exponents (see
    # test_closure_scan_names_where_it_stopped).
    assert len(_ADMISSIBLE_UP_TO_40) == 100
    stuck = (12, 17) if p in (0.001, 0.999) else None
    pairs = [pair for pair in _ADMISSIBLE_UP_TO_40 if pair != stuck]
    solved = solve_closures(p, tuple(ClosureIndex(n, m) for n, m in pairs))
    for (n, m), index in zip(pairs, solved):
        assert (index.n, index.m) == (n, m)
        assert index.a_candidates == (index.a_solved,), (n, m)
        gap = lambda_p(make_params(p, index.a_solved)) - index.target
        assert abs(gap) <= 1e-10, (n, m, gap)
    if stuck is not None:
        with pytest.raises(NotFound) as info:
            solve_closures(p, (ClosureIndex(*stuck),))
        assert str(info.value).startswith(
            "no momentum solves Lambda = 2 pi 12/17: the scan stopped at a = a_* (1 + "
        )


def test_closure_index_validation():
    with pytest.raises(DomainError):
        ClosureIndex(0, 3)
    idx = ClosureIndex(2, 3)
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


def test_batched_lambda_with_an_unresolvable_momentum_raises_its_error():
    # the batch holds resolvable momenta on both sides of one past p = 0.99's
    # mesh wall; it raises the error that momentum raises alone
    thr = a_star(0.99)
    good, bad, far = (make_params(0.99, thr * (1.0 + off)) for off in (1.0, 2e4, 7.4e3))
    with pytest.raises(ResolutionError) as alone:
        lambda_p(bad)
    with pytest.raises(ResolutionError) as batched:
        closure.lambda_grid([good, bad, far])
    assert str(batched.value) == str(alone.value) == (
        "inner layer's theta scale is below 8e-300, the arch mesh's reach"
    )


def test_batched_lambda_edges():
    with pytest.raises(DomainError):
        closure.lambda_grid([make_params(0.3, 2.0), make_params(0.5, 2.0)])
    assert closure.lambda_grid([]) == ()
    # a near-circular momentum takes the local-maximum limit inside a batch
    near, far = (make_params(0.5, a_star(0.5) * (1.0 + off)) for off in (1e-14, 1.0))
    assert near.near_circular
    assert closure.lambda_grid([near, far]) == (lambda_p(near), lambda_p(far))


@pytest.mark.parametrize(
    "p,sides",
    [(0.3, [(0.3, 34)]), (0.2, [(0.2, 34)]), (0.5, [(0.5, 34)]), (0.01, [(0.01, 24), (0.99, 3)])],
)
def test_scan_lambda_is_batched_per_side_and_equals_one_at_a_time(p, sides, monkeypatch):
    # table1's four scans (its 0.8 and 0.99 rows share the 0.2 and 0.01
    # ones): each side's grid goes through one lambda_grid call, and every
    # value is the one lambda_p gives for its momentum alone, bit for bit
    batches = []
    original = closure.lambda_grid

    def recording(params_seq, *args):
        values = original(params_seq, *args)
        batches.append((params_seq, args, values))
        return values

    monkeypatch.setattr(closure, "lambda_grid", recording)
    solve_closures(p, [ClosureIndex(n, m) for _, q, n, m, *_ in REFERENCE_TABLE if q == p])
    monkeypatch.undo()
    scans = [batch for batch in batches if len(batch[0]) > 1]
    assert [(params_seq[0].p, len(params_seq)) for params_seq, _, _ in scans] == sides
    for params_seq, args, values in scans:
        assert values == tuple(lambda_p(params, *args) for params in params_seq)


@pytest.mark.parametrize("p,offset_max", [(0.01, 5e2), (0.5, 1e5), (0.99, 7.4e3)])
def test_sweep_lambda_batch_equals_one_at_a_time(p, offset_max):
    # sweep grids from (1 + 1e-6) a_* up to about half of momentum_cap at
    # p = 0.01 and short of the mesh wall at p = 0.99
    grid = a_star(p) * (1.0 + np.geomspace(1e-6, offset_max, 16))
    params_seq = [make_params(p, a) for a in grid]
    assert closure.lambda_grid(params_seq) == tuple(lambda_p(params) for params in params_seq)


def test_closure_scan_stops_at_unresolvable_lambda(monkeypatch):
    seen = []
    original = closure.lambda_grid

    def recording(*args):
        values = original(*args)
        seen.extend(values)
        return values

    monkeypatch.setattr(closure, "lambda_grid", recording)
    solved = solve_closure(0.99, ClosureIndex(2, 3))
    assert solved.a_solved == pytest.approx(0.96, abs=0.02)
    assert solved.a_candidates == (solved.a_solved,)
    # every Lambda the scan used is a true progression angle
    assert all(math.pi < v <= SQRT2_PI for v in seen)


@pytest.mark.parametrize(
    "p,stop",
    [
        # 2 pi 12/17 lies within 2.5e-3 of sqrt(2) pi: at p = 0.999 Lambda is
        # unresolvable past 1.8 a_* offsets; at p = 0.001 the curvature cap
        # ends p's own side first, at 0.8192, and the scan goes on at
        # 1 - p = 0.999 to the same wall
        (0.999, "a = a_* (1 + 1.6384), where the arch mesh cannot resolve Lambda"),
        (0.001, "a = a_* (1 + 1.6384), where the arch mesh cannot resolve Lambda"),
    ],
)
def test_closure_scan_names_where_it_stopped(p, stop):
    with pytest.raises(NotFound) as info:
        solve_closure(p, ClosureIndex(12, 17))
    assert str(info.value) == (
        f"no momentum solves Lambda = 2 pi 12/17: the scan stopped at {stop}"
    )


@pytest.mark.parametrize(
    "pair,index,stop",
    [
        ((0.001, 0.999), ClosureIndex(12, 17), "1.6384"),
        # 2 pi 5001/10001 is 1e-4 pi above pi: its root lies past the
        # reach of p = 0.99, 6,710 a_* offsets, where Lambda is 1.15e-4 pi
        # above pi, and momentum_cap(0.01) stops the small side at 1,046
        ((0.01, 0.99), ClosureIndex(5001, 10001), "13421.8"),
    ],
    ids=["0.001-0.999", "0.01-0.99"],
)
def test_dual_exponents_stop_at_the_same_momentum(pair, index, stop):
    # a scan covers every momentum either side of the pair resolves, so p
    # and 1 - p stop at the same grid momentum, for the same reason
    for p in pair:
        with pytest.raises(NotFound) as info:
            solve_closure(p, index)
        assert str(info.value) == (
            f"no momentum solves Lambda = 2 pi {index.n}/{index.m}: the scan stopped at "
            f"a = a_* (1 + {stop}), where the arch mesh cannot resolve Lambda"
        ), p


@pytest.mark.parametrize("p,dual", [(0.3, False), (0.99, False), (0.01, True)])
def test_scan_computes_lambda_at_one_minus_p_only_past_its_own_reach(p, dual, monkeypatch):
    # at p = 0.3 the scan ends at 1e6 a_*, and at p = 0.99 at its mesh's
    # wall, beyond momentum_cap(0.01): neither computes Lambda at 1 - p.
    # At p = 0.01 the curvature cap ends p's own side, and the scan goes on
    # at 0.99 up to that side's wall.
    seen = []
    original = closure.lambda_grid

    def recording(params_seq, *args):
        seen.extend((params.p, params.a) for params in params_seq)
        return original(params_seq, *args)

    monkeypatch.setattr(closure, "lambda_grid", recording)
    alone = solve_closure(p, ClosureIndex(2, 3))
    assert {q for q, _ in seen} == ({p, 1.0 - p} if dual else {p})
    own = [a for q, a in seen if q == p]
    assert all(a <= momentum_cap(p) for a in own)
    assert all(a > max(own) for q, a in seen if q != p)
    assert alone.a_candidates == (alone.a_solved,)


@pytest.mark.parametrize(
    "p,off,reference",
    [(0.25, 1e5 - 1.0, 3.1420400156464322), (0.3, 1e-6, 4.4428822417544717)],
)
def test_lambda_matches_high_precision_quadrature(p, off, reference):
    # reference: 40-digit mpmath quadrature of the same integral at the same
    # float64 momentum, with both roots found to 40 digits; float64 roots
    # alone leave errors of 1.4e-8 and 6e-10 here.  approx's default abs of
    # 1e-12 stays on the near-threshold pin (2.25e-13 of Lambda there); the
    # far pin is relative only.
    value = lambda_p(make_params(p, a_star(p) * (1.0 + off)))
    assert value == pytest.approx(reference, rel=1e-13, abs=0.0 if off > 1.0 else None)


@pytest.mark.parametrize("ulps", [-2, -1, 1, 2])
def test_lambda_pin_holds_with_beta_moved_by_ulps(ulps):
    # the arch rule polishes the roots and takes Q's Taylor form by root
    # distance, so Lambda does not hang on beta's last float64 bits
    params = make_params(0.25, a_star(0.25) * 1e5)
    beta = params.beta
    for _ in range(abs(ulps)):
        beta = math.nextafter(beta, math.copysign(math.inf, ulps))
    value = lambda_p(replace(params, beta=beta))
    assert value == pytest.approx(3.1420400156464322, rel=1e-13, abs=0.0)
