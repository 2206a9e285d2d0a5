"""Singular arch quadrature against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from pelastica import closure, quad
from pelastica.cli import REFERENCE_TABLE, _solve_rows
from pelastica.energy import energy_closed
from pelastica.errors import ConvergenceFailure, DomainError, ResolutionError
from pelastica.qpotential import a_star, make_params, momentum_cap
from pelastica.quad import (
    integrate_over_arch,
    kappa_moment,
    limit_at_maximum,
    parts_identity_residual,
)
from pelastica.stability import upsilon, upsilon_grid


def _one(k, q, r, a):
    return np.ones_like(k)


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
    res = integrate_over_arch(params, lambda k, q, r, a: k)
    ref, ref_err = _oracle_moment(params, 1.0)
    assert abs(res.value - ref) <= max(
        10 * (res.error_estimate + ref_err), 1e-9 * abs(ref)
    )


def test_near_circular_limit_formula():
    # for a one-numerator the integral of 1/sqrt(Q) over a collapsing arch
    # tends to pi / sqrt(-Q''(kappa_*)/2)
    p = 0.4
    params_limit = make_params(p, a_star(p) * (1 + 1e-13))
    lim = limit_at_maximum(params_limit, _one)
    seq = make_params(p, a_star(p) * (1 + 1e-7))
    val = integrate_over_arch(seq, _one).value
    assert val == pytest.approx(lim, rel=1e-4)


def test_near_circular_short_circuit():
    p = 0.4
    params = make_params(p, a_star(p) * (1 + 1e-13))
    res = integrate_over_arch(params, _one)
    assert res.error_estimate == 0.0
    assert res.value == pytest.approx(limit_at_maximum(params, _one))


def test_numerator_receives_q_and_r():
    params = make_params(0.3, 1.5)
    seen = {}

    def numerator(k, q, r, a):
        seen["q_positive"] = bool(np.all(q > 0.0))
        seen["r_error"] = float(np.max(np.abs(r / k ** (1.0 - params.p) - 1.0)))
        return np.ones_like(k)

    integrate_over_arch(params, numerator, rel_tol=1e-6)
    assert seen["q_positive"]
    assert seen["r_error"] < 1e-17


@pytest.mark.parametrize("dtype", [np.longdouble, np.float64])
def test_power_is_within_two_ulp_of_pow(dtype):
    # the float64 run stands in for a platform whose long double is double,
    # where an unsplit (1-p) E would be off by up to ~180 ulp
    rng = np.random.default_rng(2)
    u = rng.uniform(math.log(np.finfo(np.float64).tiny), math.log(1e150), 20000)
    k = np.exp(u.astype(dtype))
    for e in (0.01, 0.3, 0.5, 0.7, 0.99):
        got, ref = quad._power(k, e), k ** dtype(e)
        assert got.dtype == k.dtype
        assert np.max(np.abs(got - ref) / np.spacing(ref)) <= 2.0, e
    # exact where the power is: (4^j)^(1/2) = 2^j
    j = np.arange(-511, 250)
    fours = np.ldexp(np.ones(j.size, dtype=dtype), 2 * j)
    assert np.array_equal(quad._power(fours, 0.5), np.ldexp(np.ones(j.size, dtype=dtype), j))


def _ldexp_power(k, e):
    """_power with the tail product E (e - head) formed in k's dtype and the
    scaling by 2^I through np.ldexp: the reference for _power's bits."""
    head_m, head_e = math.frexp(e)
    head = math.ldexp(math.floor(math.ldexp(head_m, 42)), head_e - 42)
    m, exponent = np.frexp(k)
    product = exponent * head
    whole = np.rint(product)
    dtype = k.dtype.type
    t = (product - whole).astype(k.dtype) + exponent * dtype(e - head)
    t += dtype(e) * np.log2(m)
    return np.ldexp(np.exp2(t), whole.astype(np.int32))


@pytest.mark.parametrize("dtype", [np.longdouble, np.float64])
def test_power_equals_its_ldexp_form_across_the_curvature_range(dtype):
    # The float64 tail product is exact (11 bits each) and 2^I a normal
    # float64 for |I| <= 1021, so the result keeps its bits from the smallest
    # normal curvature (E = -1021) to past the largest curvature_bounds
    # admits (~1e158, at kappa_* = 1e150 and p near 1).
    rng = np.random.default_rng(41)
    tiny = np.finfo(np.float64).tiny
    u = np.concatenate([
        rng.uniform(math.log(tiny), math.log(tiny) + 40.0, 10_000),
        rng.uniform(math.log(1e140), math.log(1e160), 10_000),
        rng.uniform(-30.0, 30.0, 2_000),
    ])
    k = np.exp(u.astype(dtype))
    k = np.concatenate([k, np.array([tiny, 1e158], dtype=dtype)])
    for e in (1e-3, 0.01, 0.3, 0.5, 0.7, 0.99, 0.999, 1.0 - 2.0**-52):
        got, ref = quad._power(k, e), _ldexp_power(k, e)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), e


def _full_size_q(params, theta):
    """The arch map's stabilised Q with both Taylor branches formed at every
    node and selected by np.where on the nodes' root distances; the Taylor
    mask, the nodes' side and where the direct Q cancels below 1e-8 of the
    scale of its terms."""
    p, a = params.p, params.a
    beta, alpha = quad._polish_root(p, a, params.beta), quad._polish_root(p, a, params.alpha)
    width = alpha - beta
    db, da = quad._q_derivatives(p, a, beta), quad._q_derivatives(p, a, alpha)

    def taylor(coeffs, d):
        d1, d2, d3 = coeffs
        return d * (d1 + d * (0.5 * d2 + d * (d3 / 6.0)))

    s2 = np.sin(theta).astype(np.longdouble) ** 2
    c2 = np.cos(theta).astype(np.longdouble) ** 2
    d_beta, d_alpha = width * s2, width * c2
    kl = beta + d_beta
    r = quad._power(kl, 1.0 - p)
    lead = np.longdouble(a) * r * r
    mid_term = np.longdouble((1.0 - p) ** 2) * kl**2
    p2 = np.longdouble(p) ** 2
    q_direct = lead - mid_term - p2
    nearer_beta = s2 < c2
    reach = quad._TAYLOR_REACH
    near = np.where(nearer_beta, d_beta < reach * beta, d_alpha < reach * alpha)
    q = np.where(
        near, np.where(nearer_beta, taylor(db, d_beta), taylor(da, -d_alpha)), q_direct
    )
    cancelling = np.abs(q_direct) < 1e-8 * (lead + mid_term + p2)
    return q, near, nearer_beta, cancelling


# Q cancels near beta only on the deep graded mesh, and near both roots just
# above threshold; the Taylor form is taken near both roots in either case,
# whether or not Q cancels there.
@pytest.mark.parametrize("p,mult,alpha_cancels", [(0.99, 7.4e3, False), (0.3, 1.0 + 1e-6, True)])
def test_stabilised_q_equals_full_size_taylor_selection(p, mult, alpha_cancels):
    params = make_params(p, mult * a_star(p))
    breaks, log = quad._arch_breaks(params, quad._progression_layer(params))
    theta = quad._local_nodes(breaks[:-1], breaks[1:], log, quad._GL_NODES)[0].ravel()
    _, q, *_ = quad._theta_map(params.p, quad._arch_constants((params,))[:, 0], theta)
    ref, near, nearer_beta, cancelling = _full_size_q(params, theta)
    assert np.any(near & nearer_beta) and np.any(near & ~nearer_beta) and not np.all(near)
    assert np.any(cancelling & nearer_beta)
    assert np.any(cancelling & ~nearer_beta) == alpha_cancels
    # equal values, not bytes: long double arrays carry padding bytes
    assert q.dtype == ref.dtype and np.array_equal(q, ref)


def test_numerator_receives_each_arch_momentum():
    # the momentum of each node's arch: the float a on a block of one arch,
    # one value per panel, broadcasting against the nodes, on a shared block
    p = 0.3
    params_seq = [make_params(p, a_star(p) * (1.0 + off)) for off in (0.5, 2.0, 40.0)]
    seen = []

    def numerator(k, q, r, a):
        seen.append(a)
        return a * k ** (1.0 - p)

    shared = quad._integrate_arches(params_seq, numerator, quad.DEFAULT_REL_TOL, [None] * 3)
    (a_rows,) = seen
    assert a_rows.dtype == np.float64 and a_rows.shape[1] == 1
    assert set(a_rows[:, 0].tolist()) == {params.a for params in params_seq}
    for params, integral in zip(params_seq, shared):
        seen.clear()
        alone = integrate_over_arch(params, numerator)
        assert seen == [params.a] and type(seen[0]) is float
        assert (integral.value, integral.error_estimate) == (alone.value, alone.error_estimate)


def test_rel_tol_domain():
    params = make_params(0.3, 1.5)
    with pytest.raises(DomainError):
        integrate_over_arch(params, _one, rel_tol=1e-20)
    with pytest.raises(DomainError):
        integrate_over_arch(params, _one, rel_tol=0.5)


@given(
    p=st.floats(0.1, 0.9),
    mult=st.floats(1.05, 50.0),
    t=st.floats(-1.5, 2.5),
)
@settings(max_examples=25, deadline=None)
def test_parts_identity_property(p, mult, t):
    params = make_params(p, a_star(p) * mult)
    assert parts_identity_residual(params, t) < 1e-8


def test_wide_dynamic_range_stays_finite():
    # momenta far above threshold: the integrand develops inner layers
    for p in (0.1, 0.5, 0.9):
        params = make_params(p, a_star(p) * 1e6)
        val = kappa_moment(params, 1.0 - p)
        assert np.isfinite(val) and val > 0.0


def test_unreachable_grade_floor_raises():
    params = make_params(0.3, 2.0)
    # the mesh grades down to grade_floor / 8 and stops at 1e-300
    integrate_over_arch(params, _one, grade_floor=8e-300)
    for floor in (7e-300, 1e-310, 0.0):
        with pytest.raises(ResolutionError):
            integrate_over_arch(params, _one, grade_floor=floor)


def test_kronrod_constants_extend_gl15_exactly_to_degree_46():
    nodes, weights = quad._K31_NODES, quad._K31_WEIGHTS
    gauss = quad._GL_NODES.size
    assert nodes.shape == weights.shape == (31,)
    # the embedded Gauss nodes are the rule's own GL15 nodes, bit for bit
    assert np.array_equal(nodes[:gauss], quad._GL_NODES)
    # each half mirrors itself: the Gauss nodes, then the Kronrod nodes
    for part in (slice(0, gauss), slice(gauss, None)):
        assert np.array_equal(nodes[part], -nodes[part][::-1])
        assert np.array_equal(weights[part], weights[part][::-1])
    assert np.all(weights > 0.0)
    assert np.unique(nodes).size == 31 and np.all(np.abs(nodes) < 1.0)
    x, w = nodes.astype(np.longdouble), weights.astype(np.longdouble)
    for k in range(47):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x**k) - exact) <= 2e-15, k


def _mid(lo, hi, log):
    return float(quad._midpoints(np.array([lo]), np.array([hi]), np.array([log]))[0])


def _panel(f, lo, hi, log):
    """(value, err) of one panel, with one integrand call: its K31 sum in its
    own variable and the gap to the GL15 sum on the Gauss nodes among them."""
    theta, h, dtheta = quad._local_nodes(
        np.array([lo]), np.array([hi]), np.array([log]), quad._K31_NODES
    )
    values = f(theta, np.zeros(1, dtype=int))[0, 0] * dtheta[0]
    kronrod = float(h[0, 0] * np.dot(quad._K31_WEIGHTS, values))
    gauss = float(h[0, 0] * np.dot(quad._GL_WEIGHTS, values[: quad._GL_NODES.size]))
    return kronrod, abs(kronrod - gauss)


def _per_panel_reference(params, numerator, rel_tol=quad.DEFAULT_REL_TOL, grade_floor=None):
    """The arch rule refined in rounds, with one integrand call per panel.

    Runs on the rule's own initial mesh, its log panels in u = log theta,
    and keeps its panels in the rule's order, each round's children after
    the panels it leaves whole: the left halves, then the right halves.
    Returns (value, error estimate, initial panels, bisections, bisections
    of log panels).
    """
    f = quad._make_theta_integrand((params,), numerator)
    breaks, logs = quad._arch_breaks(params, grade_floor)
    ends = zip(breaks[:-1].tolist(), breaks[1:].tolist(), logs.tolist())
    panels = [(lo, hi, log, *_panel(f, lo, hi, log)) for lo, hi, log in ends]
    initial, bisections, log_bisections = len(panels), 0, 0
    while True:
        total = float(np.sum([panel[3] for panel in panels]))
        total_err = float(np.sum([panel[4] for panel in panels]))
        tol = rel_tol * max(abs(total), 1e-300)
        if not total_err > tol:
            return total, total_err, initial, bisections, log_bisections
        share = tol / len(panels)
        split = [(lo, hi, log) for lo, hi, log, _, err in panels if err > share]
        assert len(panels) + len(split) <= quad._PANEL_CAP
        children = [(lo, _mid(lo, hi, log), log) for lo, hi, log in split]
        children += [(_mid(lo, hi, log), hi, log) for lo, hi, log in split]
        panels = [panel for panel in panels if not panel[4] > share]
        panels += [(lo, hi, log, *_panel(f, lo, hi, log)) for lo, hi, log in children]
        bisections += len(split)
        log_bisections += sum(log for _, _, log in split)


def _fixed_mesh_breaks(params, grade_floor=None):
    """The arch mesh before it was sized per (p, a): 48 halving levels toward
    each root, and more toward beta when grade_floor asks for them."""
    half_pi = 0.5 * math.pi
    low_levels = 48
    if grade_floor is not None:
        low_levels = max(low_levels, math.ceil(math.log2(half_pi / (grade_floor / 8.0))))
    lows = [half_pi * 2.0**-k for k in range(low_levels, 0, -1)]
    highs = [half_pi * (1.0 - 2.0**-k) for k in range(2, 49)]
    breaks = np.array([0.0] + lows + highs + [half_pi])
    return breaks, np.zeros(breaks.size - 1, dtype=bool)


def _uniform_log_breaks(params, grade_floor=None):
    """The arch mesh with uniform log panels at most 3 wide from an eighth
    of the floor all the way to pi/8, across the empty stretches between
    its layers as well: the rule's mesh before those stretches took one
    panel each."""
    half_pi = 0.5 * math.pi
    floor = math.exp(0.5 * (math.log(params.beta) - math.log(params.alpha - params.beta)))
    if grade_floor is not None:
        floor = min(floor, grade_floor)
    u_low = math.log(min(floor / 8.0, half_pi * 2.0**-quad._LOW_LEVELS))
    u_high = math.log(0.125 * math.pi)
    logs = math.ceil((u_high - u_low) / quad._LOG_WIDTH)
    lows = np.exp(np.linspace(u_low, u_high, logs + 1))[:-1]
    mids = [0.125 * math.pi, 0.25 * math.pi, 0.375 * math.pi]
    highs = [half_pi - 0.125 * math.pi * 2.0**-k for k in range(1, quad._HIGH_LEVELS + 1)]
    breaks = np.concatenate([[0.0], lows, mids, highs, [half_pi]])
    log = np.zeros(breaks.size - 1, dtype=bool)
    log[1 : logs + 1] = True
    return breaks, log


def _lambda_call(params, monkeypatch):
    """Lambda's arch integral: its numerator, rel_tol and grade_floor."""
    seen = []

    def spy(params_seq, numerator, rel_tol, grade_floors):
        seen.extend((numerator, rel_tol, floor) for floor in grade_floors)
        return quad._integrate_arches(params_seq, numerator, rel_tol, grade_floors)

    monkeypatch.setattr(closure, "_integrate_arches", spy)
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
        (lambda k, q, r, a: k**0.7, quad.DEFAULT_REL_TOL, None),
        # a kink or a step at kappa_* makes the rule bisect, so children are
        # compared too
        (lambda k, q, r, a: np.abs(k - params.kappa_star) ** 0.5, quad.DEFAULT_REL_TOL, None),
        (lambda k, q, r, a: np.where(k < params.kappa_star, 1.0, 2.0), quad.DEFAULT_REL_TOL, None),
    ]
    bisected = log_bisected = 0
    for numerator, rel_tol, floor in cases:
        res = integrate_over_arch(params, numerator, rel_tol, floor)
        value, err, _, bisections, log_bisections = _per_panel_reference(
            params, numerator, rel_tol, floor
        )
        assert (res.value, res.error_estimate) == (value, err)
        bisected += bisections
        log_bisected += log_bisections
    assert bisected > 0
    # at p = 0.99 kappa_* lies below theta = pi/8, so the kink and the step
    # bisect log panels
    assert (log_bisected > 0) == (p == 0.99)


@pytest.mark.parametrize("p,mult", [(0.3, 2.0), (0.99, 7.4e3)])
def test_initial_mesh_is_evaluated_in_bounded_blocks(p, mult, monkeypatch):
    # One integrand call per block of at most 185 panels, 31 nodes a panel:
    # fewer calls than that means unbounded blocks, more means per-panel calls.
    params = make_params(p, mult * a_star(p))
    numerator, rel_tol, floor = _lambda_call(params, monkeypatch)
    _, _, panels, bisections, _ = _per_panel_reference(params, numerator, rel_tol, floor)
    assert bisections == 0
    sizes = []

    def counted(k, q, r, a):
        sizes.append(k.size)
        return numerator(k, q, r, a)

    integrate_over_arch(params, counted, rel_tol, floor)
    assert len(sizes) == math.ceil(panels / 185)
    assert max(sizes) <= 5_760


@pytest.mark.parametrize("rows", [1, 6])
def test_panel_cap_is_reached_in_bounded_work(rows):
    # Noise never meets a tolerance, however fine the panels: every round
    # bisects most panels, so the cap comes after a few hundred calls of
    # whole blocks, not one call per bisection.
    params = make_params(0.3, 2.0)
    rng = np.random.default_rng(20)
    sizes = []

    def noise(k, q, r, a):
        sizes.append(k.size)
        return 1.0 + 0.1 * rng.standard_normal((rows, k.size))

    with pytest.raises(ConvergenceFailure):
        integrate_over_arch(params, noise)
    assert len(sizes) <= 400
    assert max(sizes) <= 5_760


def _oracle_split_at_kappa_star(params, exponent, right_factor):
    """scipy quad of |kappa - kappa_*|^exponent / sqrt(Q) over [beta, kappa_*]
    and, times right_factor, over [kappa_*, alpha], each side with algebraic
    weights at both of its ends.

    The smooth factor 1/sqrt(g), g = Q / ((alpha - kappa)(kappa - beta)),
    takes Q / (kappa - root) about the nearer root with Q(root) = 0 exactly,
    so it stays accurate where Q cancels next to the roots.
    """
    p, a = params.p, params.a
    beta, alpha, ks = params.beta, params.alpha, params.kappa_star
    e, c = 2.0 * (1.0 - p), (1.0 - p) ** 2

    def q_over(k, root):
        d = k - root
        if d == 0.0:
            return a * e * root ** (e - 1.0) - 2.0 * c * root
        return a * root**e * math.expm1(e * math.log1p(d / root)) / d - c * (k + root)

    def inv_sqrt_g(k):
        if k - beta < alpha - k:
            return 1.0 / math.sqrt(q_over(k, beta) / (alpha - k))
        return 1.0 / math.sqrt(-q_over(k, alpha) / (k - beta))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        left, left_err = scipy_quad(
            lambda k: inv_sqrt_g(k) / math.sqrt(alpha - k), beta, ks,
            weight="alg", wvar=(-0.5, exponent), limit=200, epsabs=1e-16, epsrel=1e-14,
        )
        right, right_err = scipy_quad(
            lambda k: inv_sqrt_g(k) / math.sqrt(k - beta), ks, alpha,
            weight="alg", wvar=(exponent, -0.5), limit=200, epsabs=1e-16, epsrel=1e-14,
        )
    return left + right_factor * right, left_err + right_factor * right_err


@pytest.mark.parametrize("rel_tol", [1e-10, 1e-12, 1e-14])
@pytest.mark.parametrize("kind", ["kink", "step"])
def test_error_estimate_is_honest_where_the_rule_bisects(kind, rel_tol):
    params = make_params(0.3, 2.0)
    ks = params.kappa_star
    if kind == "kink":

        def numerator(k, q, r, a):
            return np.abs(k - ks) ** 0.5

        ref, ref_err = _oracle_split_at_kappa_star(params, 0.5, 1.0)
    else:

        def numerator(k, q, r, a):
            return np.where(k < ks, 1.0, 2.0)

        ref, ref_err = _oracle_split_at_kappa_star(params, 0.0, 2.0)
    assert _per_panel_reference(params, numerator, rel_tol)[3] > 0
    res = integrate_over_arch(params, numerator, rel_tol)
    assert abs(res.value - ref) <= 2 * (res.error_estimate + ref_err)


def test_stacked_rows_equal_separate_integrals():
    params = make_params(0.3, 2.0)
    ts = (0.0, -1.0, 0.7)
    stacked = integrate_over_arch(params, lambda k, q, r, a: [k**t for t in ts])
    for t, value, err in zip(ts, stacked.value, stacked.error_estimate):
        single = integrate_over_arch(params, lambda k, q, r, a: k**t)
        assert (value, err) == (single.value, single.error_estimate)


def _arch_quantities(params):
    """Lambda, the seven kappa^t moments the package uses, and Upsilon."""
    p = params.p
    values = {"lambda": closure.lambda_p(params), "upsilon": upsilon(params).upsilon}
    for t in (0.0, -1.0, p - 1.0, 1.0 - p, -1.0 - p, 1.0 + p, p - 3.0):
        values[t] = kappa_moment(params, t)
    return values


# The fixed mesh is a reference wherever its 48 levels reach the kappa^t
# layer sqrt(beta/(alpha-beta)); at p = 0.01 from ~840 a_* it does not and
# returns M(p-3) = 0 (see the regression test below).
_MESH_GRID = [
    (p, off)
    for p in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    for off in (1e-6, 1e-4, 1e-2, 1.0, 10.0, 100.0)
] + [(0.1, 1e3), (0.3, 1e4), (0.5, 1e5 - 1.0), (0.9, 1e4), (0.99, 1e3)]


@pytest.mark.parametrize("p,off", _MESH_GRID)
def test_rule_matches_fixed_48_level_mesh(p, off, monkeypatch):
    params = make_params(p, a_star(p) * (1.0 + off))
    rule = _arch_quantities(params)
    monkeypatch.setattr(quad, "_arch_breaks", _fixed_mesh_breaks)
    fixed = _arch_quantities(params)
    for key, value in rule.items():
        tol = 1e-8 if key == "upsilon" else 1e-9
        assert value == pytest.approx(fixed[key], rel=tol), key


def test_moment_below_fixed_mesh_reach_is_resolved():
    # At p = 0.01 and 1001 a_* the kappa^t layer sits near theta = 4e-77, far
    # below 48 halving levels; there every panel sum of M(p-3) underflowed
    # float64 and the moment came out exactly 0.0.
    p = 0.01
    params = make_params(p, 1001.0 * a_star(p))
    m_low = kappa_moment(params, p - 3.0)
    assert m_low > 0.0
    # the parts identity at t = p - 2
    rhs = -params.a * kappa_moment(params, -1.0 - p) - (1.0 - p) ** 2 * (
        p - 1.0
    ) * kappa_moment(params, p - 1.0)
    assert (p - 2.0) * p**2 * m_low == pytest.approx(rhs, rel=1e-8)


@pytest.mark.parametrize("p", [0.001, 0.01, 0.3, 0.5, 0.7, 0.99, 0.999])
def test_log_panels_are_uniform_within_reach_of_every_layer(p):
    # Uniform panels at most 3 wide in u = log theta within 33 of the bottom
    # end, the moment layer and pi/8; panels at most 350 wide across each
    # stretch between; and the uniform mesh's breaks, bit for bit, on a log
    # range of at most 66.
    reach, seen = quad._LAYER_REACH, set()
    for offset in np.geomspace(1e-6, 1e5, 23):
        try:
            params = make_params(p, a_star(p) * (1.0 + offset))
        except DomainError:  # beta below the float64 range
            break
        layer = quad._progression_layer(params)
        if params.a >= momentum_cap(p) or not quad._resolves(params, layer):
            break
        for floor in (None, layer):
            breaks, log = quad._arch_breaks(params, floor)
            u = np.log(breaks[1 : np.count_nonzero(log) + 2])
            u_moment = 0.5 * (math.log(params.beta) - math.log(params.alpha - params.beta))
            layers = [u[0], u[-1]] + ([u_moment] if u[0] < u_moment < u[-1] else [])
            widths = np.diff(u)
            stretch = widths > quad._LOG_WIDTH * (1.0 + 1e-12)
            assert np.all(widths <= quad._STRETCH_WIDTH), (p, offset)
            # a stretch panel keeps _LAYER_REACH from every layer
            for lo, hi in zip(u[:-1][stretch], u[1:][stretch]):
                assert all(hi <= x - reach + 1e-9 or lo >= x + reach - 1e-9 for x in layers)
            uniform = _uniform_log_breaks(params, floor)
            if u[-1] - u[0] <= 2.0 * reach:
                assert np.array_equal(breaks, uniform[0]) and np.array_equal(log, uniform[1])
                seen.add("uniform")
            else:
                assert log.size <= uniform[1].size
            if np.any(stretch):
                seen.add("stretched")
    assert "uniform" in seen and ("stretched" in seen) == (p in (0.001, 0.01, 0.99, 0.999))


def test_layer_mesh_panel_count_deep_in_lambdas_layer():
    # At p = 0.99 and 6.7e3 a_* Lambda's layer lies ~570 e-folds below pi/8:
    # uniform log panels all the way took 230 panels, 201 of them holding
    # less than 1e-20 of Lambda each.
    params = make_params(0.99, 6.7e3 * a_star(0.99))
    layer = quad._progression_layer(params)
    assert _uniform_log_breaks(params, layer)[1].size == 230
    assert quad._arch_breaks(params, layer)[1].size <= 55


# Each p's wall: the largest momentum offset that momentum_cap admits (at
# p = 0.001 and 0.01) or whose Lambda layer the mesh reaches (0.99, 0.999).
_WALLS = {0.001: 1.0, 0.01: 1.0e3, 0.99: 9.1e3, 0.999: 1.49}


def _mesh_quantities(params):
    """Lambda, the period, the energy and the arch trace's three totals (s,
    psi, A), then Upsilon and the trace's dense output at 64 arc lengths."""
    trace = quad.ArchTrace(params)
    exact = {
        "lambda": closure.lambda_p(params),
        "period": closure.period(params),
        "energy": energy_closed(params, 1),
        "s": trace.period,
        "psi": trace.progression,
        "A": trace.area,
    }
    dense = trace.at((np.arange(64) + 0.5) / 64 * trace.period)
    return exact, upsilon(params).upsilon, dense


@pytest.mark.parametrize("p", sorted(_WALLS))
def test_layer_mesh_matches_uniform_log_mesh(p, monkeypatch):
    # One panel across each empty stretch moves Lambda, the period and the
    # energy by at most 5.7e-16 relative over 40 offsets per p, and the
    # trace's totals by 7.1e-16 over 60; Upsilon by up to 6.6e-12, within
    # rel_tol, while both meshes read within ~5e-12 of a rel_tol 1e-12
    # reference.  The trace's dense output agrees to its rel_tol.
    stretched = 0
    for offset in np.geomspace(1e-2, _WALLS[p], 8):
        params = make_params(p, a_star(p) * (1.0 + offset))
        exact, ups, dense = _mesh_quantities(params)
        with monkeypatch.context() as patched:
            patched.setattr(quad, "_arch_breaks", _uniform_log_breaks)
            ref_exact, ref_ups, ref_dense = _mesh_quantities(params)
        for key, value in exact.items():
            assert value == pytest.approx(ref_exact[key], rel=1e-15, abs=0.0), (key, offset)
        assert ups == pytest.approx(ref_ups, rel=quad.DEFAULT_REL_TOL, abs=0.0), offset
        for column, ref in zip(dense, ref_dense):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(column - ref)) <= quad.DEFAULT_REL_TOL * scale, offset
        layer = quad._progression_layer(params)
        stretched += quad._arch_breaks(params, layer)[1].size < _uniform_log_breaks(params, layer)[1].size
    assert stretched >= 2


def _integrand_call_sizes(monkeypatch):
    """The node count of every theta-integrand call from here on."""
    sizes = []
    make = quad._make_theta_integrand

    def counting(params_seq, numerator):
        f = make(params_seq, numerator)

        def counted(theta, arch):
            sizes.append(theta.size)
            return f(theta, arch)

        return counted

    monkeypatch.setattr(quad, "_make_theta_integrand", counting)
    return sizes


def test_table_work_stays_within_node_budget(monkeypatch):
    # Integrand nodes of table1's work on the 11 reference rows (closure
    # solves, one scan per exponent or dual pair (p, 1 - p), then one Upsilon
    # quadrature per exponent, whose M(p-1) row gives the energy): 72,695
    # here, refinement rounds included.  With uniform log panels across the
    # empty stretches between the mesh's layers it took 94,147 (and a lone
    # energy and Upsilon per row), one scan per exponent 148,738, GL15
    # against its halves (45 nodes a panel) 216,360, one octave panel per
    # level below pi/8 620,325, solved pair by pair 819,045, and the fixed
    # 48/48 mesh 2,956,590.
    nodes = _integrand_call_sizes(monkeypatch)
    _solve_rows(REFERENCE_TABLE)
    assert sum(nodes) <= 75_000


def test_table_scans_share_integrand_calls(monkeypatch):
    # table1's work on the 11 reference rows takes 73 integrand calls of
    # 72,695 nodes: each scan puts its own-side grid, and its 1 - p
    # continuation, through one arch rule whose momenta share blocks, and
    # the rows at one exponent share one Upsilon quadrature.  With a lone
    # energy and Upsilon per row and uniform log panels it took 94 calls,
    # and with one call per momentum 208.
    sizes = _integrand_call_sizes(monkeypatch)
    _solve_rows(REFERENCE_TABLE)
    assert len(sizes) <= 76
    assert sum(sizes) <= 75_000
    assert max(sizes) <= 5_760


# The benchmark's sweep grids at the edge exponents: offsets 1e-6 to these,
# 16 momenta for Lambda and 8 for Upsilon.
_SWEEP_OFFSET_MAX = {0.01: 523.5116567016549, 0.99: 7498.942093324558}


@pytest.mark.parametrize("p,budget", [(0.01, 12_500), (0.99, 19_000)])
def test_edge_sweep_grids_stay_within_node_budget(p, budget, monkeypatch):
    # Lambda's and Upsilon's grids take 7,688 + 3,844 nodes at p = 0.01 and
    # 12,989 + 4,526 at p = 0.99; with uniform log panels across the empty
    # stretches between the mesh's layers they took 9,424 + 4,960 and
    # 29,140 + 6,913.
    def grid(count):
        offsets = np.geomspace(1e-6, _SWEEP_OFFSET_MAX[p], count)
        return [make_params(p, a_star(p) * (1.0 + off)) for off in offsets]

    nodes = _integrand_call_sizes(monkeypatch)
    closure.lambda_grid(grid(16))
    upsilon_grid(grid(8))
    assert sum(nodes) <= budget


def test_trace_is_evaluated_in_bounded_blocks(monkeypatch):
    # One call per 185-panel block of the rule's mesh (here the initial one,
    # deep into Lambda's layer on the uniform log mesh, which spans several
    # blocks), 31 nodes a panel, then one per block of 384 half panels, 15
    # nodes each, for the dense output: neither pass exceeds 5,760 nodes.
    monkeypatch.setattr(quad, "_arch_breaks", _uniform_log_breaks)
    params = make_params(0.99, 7.4e3 * a_star(0.99))
    panels = len(quad._arch_breaks(params, quad._progression_layer(params))[1])
    assert panels > 185
    sizes = _integrand_call_sizes(monkeypatch)
    quad.ArchTrace(params)
    assert len(sizes) == math.ceil(panels / 185) + math.ceil(2 * panels / 384)
    assert max(sizes) <= 5_760


def test_a_mesh_that_fills_blocks_shares_them_with_small_ones(monkeypatch):
    # One arch of more than a block's 185 panels (deep into Lambda's layer on
    # the uniform log mesh) and two small ones go through the same blocks:
    # ceil(total panels / 185) calls, 31 nodes a panel, and each arch's value
    # and error estimate are those of its lone integral, bit for bit.
    monkeypatch.setattr(quad, "_arch_breaks", _uniform_log_breaks)
    p = 0.99
    params_seq = [make_params(p, mult * a_star(p)) for mult in (7.4e3, 1.5, 3.0)]
    floors = [quad._progression_layer(params) for params in params_seq]
    panels = [quad._arch_breaks(params, floor)[1].size for params, floor in zip(params_seq, floors)]
    assert panels[0] > 185 and sum(panels[1:]) < 185
    numerator = quad._progression_numerator(p)
    sizes = []

    def counted(k, q, r, a):
        sizes.append(k.size)
        return numerator(k, q, r, a)

    shared = quad._integrate_arches(params_seq, counted, quad.DEFAULT_REL_TOL, floors)
    assert len(sizes) == math.ceil(sum(panels) / 185)
    assert sum(sizes) == 31 * sum(panels)
    for params, floor, integral in zip(params_seq, floors, shared):
        alone = integrate_over_arch(params, numerator, quad.DEFAULT_REL_TOL, floor)
        assert (integral.value, integral.error_estimate) == (alone.value, alone.error_estimate)
