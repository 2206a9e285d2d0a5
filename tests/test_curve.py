"""Profile sampling, embedding and closed-curve diagnostics."""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from ode_reference import (
    first_integral_residual,
    ode_profile,
    ode_trace,
    psi_rate,
    unit_tangent,
)

import pelastica
from pelastica import curve
from pelastica.closure import ClosureIndex, lambda_p, period, solve_closure
from pelastica.curve import (
    geodesic_curvature_check,
    monotone_progression_check,
    sample_profile,
    trace_to_csv,
    trace_to_json,
    trace_to_svg,
)
from pelastica.errors import DomainError, ResolutionError
from pelastica.hopf import horizontal_lift
from pelastica.qpotential import a_star, make_params


def test_profile_conserves_first_integral(g23_params):
    prof = sample_profile(g23_params, 3.0)
    st = prof.states
    worst = float(np.max(first_integral_residual(0.3, g23_params.a, st.kappa, st.kappa_prime)))
    assert worst < 1e-8 * g23_params.a


def test_samples_are_one_shared_read_only_record(g23_trace):
    st = g23_trace.states
    lift = horizontal_lift(g23_trace.points, st.area)
    assert len(st) == len(g23_trace.points) == len(lift) == 512 * 3 + 1
    for column in (st.s, st.kappa, st.kappa_prime, st.psi, st.area, g23_trace.points):
        with pytest.raises(ValueError):
            column[0] = 0.0


def test_replaced_samples_are_embedded_anew(g23_trace):
    # ode_reference.ode_trace swaps the DOP853 samples into the trace this way
    ode = ode_trace(g23_trace)
    assert ode.arch is g23_trace.arch and ode.index is g23_trace.index
    assert not np.array_equal(ode.points, g23_trace.points)
    assert float(np.max(np.abs(ode.points - g23_trace.points))) < 1e-8
    assert ode.closure_gap != g23_trace.closure_gap and ode.closure_gap < 1e-6
    assert not ode.points.flags.writeable
    # 1.5 of the 3 periods: psi turns once and the curve stays open
    part = sample_profile(g23_trace.params, 1.5)
    swapped = replace(g23_trace, states=part.states)
    assert np.array_equal(swapped.points, part.points)
    assert swapped.closure_gap == part.closure_gap > 0.5
    assert swapped.winding_number == part.winding_number == 1


def test_profile_returns_to_minimum_after_one_period(g23_params):
    rho = period(g23_params)
    prof = sample_profile(g23_params, 1.0)
    kappa_end, kappa_prime_end, _, _ = prof.arch.at(rho)
    assert kappa_end == pytest.approx(g23_params.beta, rel=1e-8)
    assert abs(kappa_prime_end) < 1e-8 * g23_params.beta
    # curvature stays within the arch
    kappa = prof.states.kappa
    assert kappa.min() >= g23_params.beta * (1.0 - 1e-9)
    assert kappa.max() <= g23_params.alpha * (1.0 + 1e-9)


def test_psi_over_one_period_equals_lambda(g23_params):
    rho = period(g23_params)
    prof = sample_profile(g23_params, 1.0)
    assert prof.arch.at(rho)[2] == pytest.approx(lambda_p(g23_params), rel=1e-9)


def test_psi_rate_on_shell_matches_raw_form():
    p, a = 0.3, 1.2
    params = make_params(p, a)
    k = math.sqrt(params.beta * params.alpha)
    q = a * k ** (2 * (1 - p)) - (1 - p) ** 2 * k**2 - p**2
    kp = k * math.sqrt(q) / (p * (1 - p))  # from the first integral
    raw = (1 - p) * math.sqrt(a) * k ** (2 - p) / (a * k ** (2 * (1 - p)) - p**2)
    assert float(psi_rate(p, a, k, kp)) == pytest.approx(raw, rel=1e-12)


def test_profile_rejects_nonpositive_span(g23_params):
    with pytest.raises(DomainError):
        sample_profile(g23_params, 0.0)


def test_trace_closes_and_winds(g23_trace):
    assert g23_trace.closure_gap < 1e-6
    assert g23_trace.winding_number == 2
    assert monotone_progression_check(g23_trace)


def test_trace_points_on_unit_sphere(g23_trace):
    norms = np.linalg.norm(g23_trace.points, axis=1)
    assert float(np.max(np.abs(norms - 1.0))) < 1e-12


def test_trace_stays_in_open_upper_half(g23_trace):
    x = g23_trace.points[:, 0]
    assert np.all(x > 0.0) and np.all(x < 1.0)
    # the height maximum sits at the curvature minimum (x decreases in kappa)
    assert x.argmax() == g23_trace.states.kappa.argmin()
    p, a = g23_trace.params.p, g23_trace.params.a
    x_beta = p * g23_trace.params.beta ** (p - 1.0) / math.sqrt(a)
    assert float(x.max()) == pytest.approx(x_beta, rel=1e-9)


def test_tangents_are_unit_speed(g23_trace):
    st = g23_trace.states
    tans = unit_tangent(g23_trace.params, st.kappa, st.kappa_prime, st.psi)
    speeds = np.linalg.norm(tans, axis=1)
    assert float(np.max(np.abs(speeds - 1.0))) < 1e-8
    # tangency: orthogonal to the position on the sphere
    dots = np.einsum("ij,ij->i", tans, g23_trace.points)
    assert float(np.max(np.abs(dots))) < 1e-8


def test_geodesic_curvature_matches_profile(g23_trace):
    assert geodesic_curvature_check(g23_trace) < 1e-4


def test_exports_roundtrip(tmp_path, g23_trace):
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "trace.json"
    svg_path = tmp_path / "trace.svg"
    trace_to_csv(g23_trace, str(csv_path))
    trace_to_json(g23_trace, str(json_path))
    trace_to_svg(g23_trace, str(svg_path))

    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "s,kappa,kappa_prime,psi,x,y,z"
    assert len(lines) == len(g23_trace.states) + 1

    meta = json.loads(json_path.read_text())
    assert meta["n"] == 2 and meta["m"] == 3
    assert meta["closureGap"] == pytest.approx(g23_trace.closure_gap)
    assert len(meta["samples"]) == len(g23_trace.states)

    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def _per_sample_text(trace):
    # per-sample reference writer: one CSV row and one JSON object per index
    st = trace.states
    rows = ["s,kappa,kappa_prime,psi,x,y,z\r\n"]
    samples = []
    for i in range(len(st)):
        s, k, kp, psi = (float(col[i]) for col in (st.s, st.kappa, st.kappa_prime, st.psi))
        point = [float(v) for v in trace.points[i]]
        rows.append(",".join(f"{v:.12g}" for v in (s, k, kp, psi, *point)) + "\r\n")
        samples.append({"s": s, "kappa": k, "kappa_prime": kp, "psi": psi, "point": point})
    meta = {
        "p": trace.params.p,
        "a": trace.params.a,
        "n": trace.index.n if trace.index else None,
        "m": trace.index.m if trace.index else None,
        "closureGap": trace.closure_gap,
        "windingNumber": trace.winding_number,
        "samples": samples,
    }
    return "".join(rows), json.dumps(meta, indent=1)


@pytest.mark.parametrize("block_lines", [None, 7])
@pytest.mark.parametrize(
    ("p", "closed"),
    [
        pytest.param(0.3, True, id="True"),
        pytest.param(0.3, False, id="False"),
        # kappa' = 0 cells are exact zeros and psi ~ 1e-19 cells exponent
        # notation: values that the %.12g kernel leaves to Python
        pytest.param(0.01, True, id="p0.01-True"),
    ],
)
def test_exports_match_per_sample_writer(
    tmp_path, monkeypatch, all_traces, g23_params, p, closed, block_lines
):
    # the closed gamma_{2,3} traces, and half a period embedded without an index
    trace = all_traces(p, 2, 3) if closed else sample_profile(g23_params, 0.5)
    assert (trace.index is None) is not closed
    if block_lines is not None:
        monkeypatch.setattr(curve, "_BLOCK_LINES", block_lines)
    trace_to_csv(trace, str(tmp_path / "trace.csv"))
    trace_to_json(trace, str(tmp_path / "trace.json"))
    csv_ref, json_ref = _per_sample_text(trace)
    if p == 0.01:
        assert ",0," in csv_ref and "e-" in csv_ref
    assert (tmp_path / "trace.csv").read_bytes() == csv_ref.encode()
    assert (tmp_path / "trace.json").read_bytes() == json_ref.encode()


def _first_mismatch(values, got: bytes, expected: bytes) -> str:
    for value, line, ref in zip(values, got.splitlines(), expected.splitlines()):
        if line != ref:
            return f"{value!r}: {line!r} != {ref!r}"
    return f"{len(got)} != {len(expected)} bytes"


def test_g12_kernel_matches_python_percent_format():
    rng = np.random.default_rng(25)
    # 13-digit decimals ending in 5, exponents -5..12: each double lies
    # within an ulp of a .5 tie of the 12th digit, on either side
    ties = [
        float(f"{d}5e{k - 12}")
        for d, k in zip(
            rng.integers(10**11, 10**12, 20000).tolist(), rng.integers(-5, 13, 20000).tolist()
        )
    ]
    # 10^k and 4 ulps to either side, where log10 may round across the
    # power and rounding to 12 digits carries into it (1e-4, 1e-5, 1e11 and
    # 1e12 among them), and values that do or do not round to 10^k
    near_powers = []
    for k in range(-6, 14):
        power = float(f"1e{k}")
        near_powers += [power, power * (1 - 4e-13), power * (1 - 6e-13), power * (1 + 4e-12)]
        below = above = power
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            near_powers += [below, above]
    big = np.finfo(float).max
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, big, -big]
    # short decimals: the fraction's trailing zeros, integers, no fraction
    short = [0.5, 1.25, 100.0, 120000.0, 0.001, 0.0001, 1.5e-3, 2.5e10, 123456789012.0, 99.9]
    short += np.round(rng.uniform(-1e3, 1e3, 2000), 2).tolist()
    short += np.round(rng.uniform(-1e6, 1e6, 1000)).tolist()
    sweep = rng.uniform(1.0, 10.0, 100000) * 10.0 ** rng.integers(-8, 15, 100000)
    values = np.concatenate([ties, near_powers, special, short, sweep])
    values[rng.random(len(values)) < 0.5] *= -1.0
    values = rng.permutation(values)[: len(values) // 3 * 3]
    line_format = "v %.12g %.12g %.12g\n"
    got = b"".join(curve._number_lines(line_format, values.reshape(-1, 3)))
    expected = ((line_format * (len(values) // 3)) % tuple(values.tolist())).encode()
    assert got == expected, _first_mismatch(values.reshape(-1, 3).tolist(), got, expected)


def _odd_multiples(rng, e: int, shift: int, count: int) -> list[float]:
    # doubles A 2^-shift in [10^e, 10^(e + 1)) with A odd and below 2^53
    lo = math.ceil(Fraction(10) ** e * 2**shift)
    hi = min(math.ceil(Fraction(10) ** (e + 1) * 2**shift), 2**53)
    if hi - lo < 2:
        return []
    return [math.ldexp(a | 1, -shift) for a in rng.integers(lo, hi - 1, count).tolist()]


def _interval_end_neighbours(e: int, digits: int) -> list[float]:
    # In each binade 2^E of the decade [10^e, 10^(e + 1)), the two doubles on
    # either side of the midpoint N 2^(E - 53) (N odd) that a decimal of
    # `digits` significant digits comes closest to: the midpoint lies
    # (N a mod b) / b steps of 10^(e - digits + 1) from that grid, for
    # a / b = 2^(E - 53) / 10^(e - digits + 1), so N a = +-1 (mod b).
    # Rounding those doubles keeps or drops the decimal by a hair's breadth.
    values = []
    for binade in range(math.floor(e * math.log2(10)) - 1, math.ceil((e + 1) * math.log2(10))):
        unit = Fraction(2) ** (binade - 53)
        ratio = unit / Fraction(10) ** (e - digits + 1)
        a, b = ratio.numerator, ratio.denominator
        lo = max(Fraction(2) ** binade, Fraction(10) ** e) / unit
        hi = min(Fraction(2) ** (binade + 1), Fraction(10) ** (e + 1)) / unit
        for residue in (1, b - 1):
            n = residue * pow(a, -1, b) % b
            n += math.ceil((lo + 1 - n) / b) * b
            if b > 2 and n + 1 < hi:
                assert n % 2 == 1
                values += [math.ldexp(n - 1, binade - 53), math.ldexp(n + 1, binade - 53)]
    return values


def test_repr_kernel_matches_python_repr():
    rng = np.random.default_rng(26)
    # With k = 16 - e, y = |x| 10^k ends in 50, 5 or .5, a tie between
    # 15-, 16- or 17-digit candidates, where x is an odd multiple of
    # 2^(1 - k), 2^-k or 2^-(k + 1); with the doubles next to them
    ties = []
    for e in range(-4, 16):
        for shift in (15 - e, 16 - e, 17 - e):
            ties += _odd_multiples(rng, e, shift, 300)
    ties += np.nextafter(ties, 0.0).tolist() + np.nextafter(ties, np.inf).tolist()
    # the doubles whose rounding interval ends nearest a 15- or 16-digit
    # decimal, with an even and an odd significand
    ends = [v for e in range(-4, 16) for d in (15, 16) for v in _interval_end_neighbours(e, d)]
    # powers of two: the gap below is half the gap above
    powers_of_two = (2.0 ** np.arange(-20, 60)).tolist()
    # 10^k and 4 ulps to either side, where log10 may round across the power
    # and the shortest digits may carry into it
    near_powers = []
    for k in range(-5, 17):
        below = above = float(f"1e{k}")
        near_powers.append(below)
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            near_powers += [below, above]
    # decimals of at most 14 digits: the fraction's trailing zeros, integers
    short = [0.5, 1.25, 100.0, 120000.0, 0.001, 0.0001, 1.5e-3, 2.5e10, 1e15, 99.9]
    short += np.round(rng.uniform(-1e3, 1e3, 2000), 2).tolist()
    short += np.round(rng.uniform(-1e6, 1e6, 1000)).tolist()
    short += [
        float(f"{d}e{k}")
        for d, k in zip(
            rng.integers(1, 10**14, 2000).tolist(), rng.integers(-20, 4, 2000).tolist()
        )
    ]
    big = np.finfo(float).max
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310, 2.2250738585072014e-308, big]
    sweep = rng.uniform(1.0, 10.0, 100000) * 10.0 ** rng.integers(-8, 19, 100000)
    values = np.concatenate([ties, ends, powers_of_two, near_powers, short, special, sweep])
    values[rng.random(len(values)) < 0.5] *= -1.0
    # the JSON trace's line: separators of 6 to 23 bytes
    fields = 7
    values = rng.permutation(values)[: len(values) // fields * fields]
    line_format = curve._JSON_SAMPLE + ",\n"
    got = b"".join(curve._number_lines(line_format, values.reshape(-1, fields)))
    expected = ((line_format * (len(values) // fields)) % tuple(values.tolist())).encode()
    assert got == expected, _first_mismatch(values.reshape(-1, fields).tolist(), got, expected)
    assert len(ends) > 100


@pytest.mark.parametrize(("p", "n", "m"), [(0.5, 2, 3), (0.3, 5, 8)])
def test_repr_kernel_formats_trace_values_itself(all_traces, p, n, m):
    # a kernel that left every value to Python would pass the byte tests
    values = curve._sample_rows(all_traces(p, n, m)).ravel()
    _, exact = curve._repr_index(values, curve._tables())
    assert exact.mean() >= 0.98


def test_int_kernel_matches_python_percent_d(monkeypatch):
    # each block takes as many 4-digit groups as its largest value needs;
    # the values cross every group boundary up to 2^53, and |-2^63| holds
    # only as uint64
    edges = [0, 1, 9, 10, 9999, 10000, 99999999, 100000000, 2**31, 2**53]
    edges += [-1, -10000, -(2**63), 2**63 - 1]
    # one block of 1- and 3-group values, the 3-group ones with zero groups
    # inside and a 0 among them
    mixed = [5, 100000001, 0, 999999999999, 7, 100000000000, 42, 12]
    line_format = "f %d %d %d\n"
    for values, block_lines in ((edges + [3], 2), (mixed + [1], 4096)):
        monkeypatch.setattr(curve, "_BLOCK_LINES", block_lines)
        rows = np.array(values, dtype=np.int64).reshape(-1, 3)
        got = b"".join(curve._number_lines(line_format, rows))
        expected = "".join(line_format % tuple(row) for row in rows.tolist()).encode()
        assert got == expected


def _per_point_svg(trace):
    # per-point reference writer: one f-string per point on numpy scalars
    size = 640
    half = size / 2.0
    scale = 0.45 * size
    coords = " ".join(
        f"{half + scale * y:.2f},{half - scale * z:.2f}" for y, z in trace.points[:, 1:]
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
        f'<circle cx="{half}" cy="{half}" r="{scale}" fill="none" '
        f'stroke="#cccccc" stroke-width="1"/>\n'
        f'<polyline points="{coords}" fill="none" stroke="#1f4e8c" '
        f'stroke-width="1.5"/>\n</svg>\n'
    )


@pytest.mark.parametrize("block_lines", [None, 7])
@pytest.mark.parametrize("closed", [True, False])
def test_svg_export_matches_per_point_writer(
    tmp_path, monkeypatch, g23_trace, g23_params, closed, block_lines
):
    # the closed gamma_{2,3} trace, and half a period embedded without an index
    trace = g23_trace if closed else sample_profile(g23_params, 0.5)
    if block_lines is not None:
        monkeypatch.setattr(curve, "_BLOCK_LINES", block_lines)
    trace_to_svg(trace, str(tmp_path / "trace.svg"))
    assert (tmp_path / "trace.svg").read_bytes() == _per_point_svg(trace).encode()


def test_trace_other_family_member(all_traces):
    trace = all_traces(0.3, 3, 5)
    assert trace.closure_gap < 1e-6
    assert trace.winding_number == 3


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_first_integral_residual_zero_on_shell(p):
    params = make_params(p, a_star(p) * 2.0)
    k = np.linspace(params.beta * 1.0001, params.alpha * 0.9999, 17)
    q = params.a * k ** (2 * (1 - p)) - (1 - p) ** 2 * k**2 - p**2
    kp = k * np.sqrt(q) / (p * (1 - p))
    res = first_integral_residual(p, params.a, k, kp)
    assert float(np.max(res)) < 1e-10 * params.a


def test_json_export_matches_json_dump_in_partial_blocks(tmp_path, monkeypatch, g23_params):
    # 7-line blocks leave a partial block, and the last sample its own block
    monkeypatch.setattr(curve, "_BLOCK_LINES", 7)
    trace = sample_profile(g23_params, 0.05)
    assert len(trace.states) == 27 and trace.index is None
    trace_to_json(trace, str(tmp_path / "trace.json"))
    assert (tmp_path / "trace.json").read_bytes() == _per_sample_text(trace)[1].encode()


# The closed curves the quadrature trace is checked on: the benchmark's
# p = 1/2 anchor and its two longer pairs, and the extreme exponents.
_REFERENCE_CURVES = [(0.5, 2, 3), (0.3, 5, 8), (0.7, 11, 19), (0.01, 2, 3), (0.99, 2, 3)]


@pytest.fixture(scope="module")
def solved_curves():
    cache = {}

    def get(p, n, m):
        if (p, n, m) not in cache:
            cache[(p, n, m)] = solve_closure(p, ClosureIndex(n, m))
        return cache[(p, n, m)]

    return get


@pytest.mark.parametrize("p,n,m", _REFERENCE_CURVES)
def test_samples_match_ode_reference(solved_curves, p, n, m):
    # the DOP853 profile at rtol 1e-12 over all m periods, sample by sample
    params = make_params(p, solved_curves(p, n, m).a_solved)
    st = sample_profile(params, m).states
    ref = ode_profile(params, m, rtol=1e-12)
    assert np.allclose(st.s, ref.t, rtol=1e-13, atol=0.0)
    for got, want in zip((st.kappa, st.kappa_prime, st.psi, st.area), ref.y):
        assert float(np.max(np.abs(got - want))) < 1e-8 * float(np.max(np.abs(want)))


@pytest.mark.parametrize("p,n,m", [(0.7, 11, 19), (0.8, 2, 3)])
def test_trace_meets_the_tightest_tolerance(solved_curves, p, n, m):
    # the swept-area row's error estimates shrink to 1e-14 only where Q is
    # that accurate at the nodes next to theta = pi/2
    trace = sample_profile(make_params(p, solved_curves(p, n, m).a_solved), m, rel_tol=1e-14)
    assert trace.closure_gap < 1e-13


@pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.99])
def test_near_circular_arch_is_not_traced(p):
    # One to three ulps above a_* the arch is far narrower than Q's roots
    # resolve; lambda_p takes the local-maximum limit there, and the trace
    # refuses rather than integrate between inconsistent roots.
    a = a_star(p)
    for _ in range(3):
        a = math.nextafter(a, math.inf)
        params = make_params(p, a)
        assert params.near_circular
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError):
                sample_profile(params, 1.0)


def test_narrowest_traced_arch_keeps_its_progression():
    # just above the near-circular width: alpha - beta = 3.1e-6 kappa_*
    params = make_params(0.3, a_star(0.3) * (1.0 + 1e-12))
    assert not params.near_circular
    arch = sample_profile(params, 1.0).arch
    assert arch.progression == pytest.approx(lambda_p(params), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p,mult", [(0.01, 1001.0), (0.001, 2.0)])
def test_trace_reads_half_period_where_no_arc_length_is_left(p, mult):
    # Far above threshold the half panels next to alpha hold no float64 arc
    # length, so s = T/2 falls on a plateau of the cumulative arc length; it
    # is read at the arch's end, without a 0/0 (a RuntimeWarning is an error).
    params = make_params(p, mult * a_star(p))
    trace = sample_profile(params, 1.0, samples_per_period=2)
    arch = trace.arch
    assert np.diff(arch._cumulative[0])[-1] == 0.0
    s = np.linspace(0.0, arch.period, 101)
    assert s[50] == 0.5 * arch.period
    kappa, _, psi, _ = arch.at(s)
    assert np.all(np.diff(kappa[:51]) >= 0.0)
    assert np.all(np.diff(psi) > 0.0)
    assert kappa[50] == pytest.approx(params.alpha, rel=1e-10, abs=0.0)
    assert psi[50] == 0.5 * arch.progression


@pytest.mark.parametrize("p,n,m", _REFERENCE_CURVES)
def test_progression_over_one_period_is_lambda(solved_curves, p, n, m):
    params = make_params(p, solved_curves(p, n, m).a_solved)
    arch = sample_profile(params, 1.0).arch
    lam = lambda_p(params)
    assert arch.progression == pytest.approx(lam, rel=1e-12, abs=0.0)
    assert arch.at(arch.period)[2] == pytest.approx(lam, rel=1e-12, abs=0.0)
    # a closed curve closes to the quadrature's accuracy
    assert abs(arch.at(m * arch.period)[2] - 2.0 * math.pi * n) < 1e-11


@pytest.mark.parametrize("p,n,m", [(0.3, 2, 3), (0.01, 2, 3), (0.99, 2, 3)])
def test_profile_reflection_and_shift_symmetry(solved_curves, p, n, m):
    params = make_params(p, solved_curves(p, n, m).a_solved)
    arch = sample_profile(params, 1.0).arch
    T, lam, area = arch.period, arch.progression, arch.area
    s = np.linspace(0.0, T, 97)
    k, kp, psi, a_swept = arch.at(s)
    rk, rkp, rpsi, ra = arch.at(T - s)
    assert np.allclose(rk, k, rtol=1e-12, atol=0.0)
    assert np.allclose(rkp, -kp, rtol=0.0, atol=1e-12 * np.max(np.abs(kp)))
    assert np.allclose(rpsi, lam - psi, rtol=0.0, atol=1e-12 * lam)
    assert np.allclose(ra, area - a_swept, rtol=0.0, atol=1e-12 * abs(area))
    # kappa' is the first integral's root with the sign of the half period
    assert np.all(kp[1:48] > 0.0) and np.all(kp[49:-1] < 0.0)
    sk, skp, spsi, sa = arch.at(s + 2.0 * T)
    assert np.allclose(sk, k, rtol=1e-12, atol=0.0)
    assert np.allclose(spsi, psi + 2.0 * lam, rtol=0.0, atol=1e-12 * lam)
    assert np.allclose(sa, a_swept + 2.0 * area, rtol=0.0, atol=1e-12 * abs(area))


def _fresh_interpreter(code: str) -> str:
    # a fresh interpreter, importing the package these tests run against
    src = os.path.dirname(os.path.dirname(os.path.abspath(pelastica.__file__)))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    ).stdout


@pytest.mark.parametrize("module", ["pelastica", "pelastica.cli"])
def test_import_leaves_scipy_out(module):
    # the runtime needs numpy only
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = _fresh_interpreter(code)
    assert out.strip() == "[]"


def test_import_builds_no_number_writer_table():
    # the word table and powers of ten are built at the first export, so a
    # command that writes no numbers pays for none of them
    code = "import pelastica.cli, pelastica.curve as c; print(c._tables.cache_info().currsize)"
    assert _fresh_interpreter(code).strip() == "0"
