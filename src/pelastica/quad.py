"""Singular-endpoint quadrature for integrals of the form int f(kappa)/sqrt(Q).

All closure, energy and second-variation quantities reduce to integrals over
one curvature arch [beta, alpha] with inverse-square-root singularities at
both ends.  The substitution kappa = beta + (alpha-beta) sin^2(theta) removes
them because Q has simple zeros at the roots, leaving the smooth integrand

    2 f(kappa(theta)) / sqrt(g(kappa(theta))),  theta in [0, pi/2],

with g(kappa) = Q(kappa) / ((alpha-kappa)(kappa-beta)).  Root distances and g
are evaluated in the theta variable throughout: for momenta far above the
threshold the integrand develops interior layers narrower than the floating
point resolution of kappa itself, but they stay resolvable in theta.  The
float64 roots are first refined by one extended-precision Newton step, so
that Q vanishes at the substitution's ends as closely as its Taylor forms
about them assume.  Each node within 1e-5 of the nearer root, relative to
that root, takes Q's cubic Taylor form about it, with the root distance
taken exactly from theta; every other node takes the direct form.  The
choice rests on the nodes' positions, never on the computed Q.

One rule serves every arch quantity of a (p, a), on one mesh.  Below
theta = pi/8 it is in u = log theta, in which the smooth integrand above,
F(theta), becomes theta F(theta): log panels run from pi/8 down to an
eighth of

    floor = min(sqrt(beta / (alpha - beta)), grade_floor),

and at least down to pi/2 2^-8, with one theta panel from 0 beneath them.
sqrt(beta / (alpha - beta)) is the theta at which kappa - beta reaches
beta, the layer of every kappa^t moment; grade_floor is a numerator's own,
deeper layer (Lambda's).  Below a layer F is about constant and above it F
is a power of theta, so in u a layer is a transition of width O(1) however
deep it lies, and theta F is smooth on the scale of a panel; one panel
spans 3 / log 2 = 4.3 octaves of theta.  The log panels are uniform, at
most 3 wide, within 33 of the mesh's three layers in u: its bottom end,
the moment layer and pi/8.  Between those zones theta F decays
exponentially away from both layers, so each empty stretch takes one
panel (as many as keep it within 350 wide, so that its nodes' theta ratios
stay finite); at the edge exponents, where Lambda's layer lies hundreds of
e-folds below the moment layer, the mesh takes ~50 panels, and a deeper
layer costs about the same.  Toward theta = pi/2 the integrand
is analytic, since Q has a simple root at alpha, so the rest of the arch
takes uniform theta panels no wider than pi/8 and three halving levels.
The mesh grades toward theta = 0 only, so a numerator's layers must lie
there.  A floor below 8e-300 raises ResolutionError: its log panels' theta
would leave float64's normal range.

Each node forms r = kappa^(1-p) once, the only non-integer power of the rule,
then Q = a r^2 - (1-p)^2 kappa^2 - p^2 and the Jacobian.  r is formed without
a long double pow: kappa = m 2^E exactly (frexp), 1-p is split into a 42-bit
head and its tail so that each product with E is exact even where long
double is float64, and with I the integer nearest (1-p) E,

    r = exp2(((1-p) E - I) + (1-p) log2 m) 2^I,

whose exp2 argument stays in (-2, 1); r is within 2 ulp of the pow.  Q's
Taylor form is evaluated only at the nodes where it replaces the direct one.
Numerators are called as numerator(kappa, q, r, a) with the nodes'
curvature, stabilised Q and r and their arch's momentum, and return one row
of values or a stack of rows; every row is integrated on the same nodes.

What stays adaptive: every panel is evaluated once, at the 31 nodes of the
Gauss-Kronrod pair G15/K31 in its own variable (theta, or u on a log panel,
whose nodes take the Jacobian dtheta/du = theta).  The panel's value is the
31-point Kronrod sum, exact to degree 46, and its error estimate is the
distance from the 15-point Gauss-Legendre sum on the Gauss nodes among them,
so it measures the error of GL15 on the whole panel.  While the summed
estimate of any row misses rel_tol, a round bisects every panel whose
estimate exceeds an even share, rel_tol |total| / panels, of such a row's
tolerance, and re-sums the rows.

Every integrand call, of the rule and of the arch trace's dense output
alike, takes one block of panels from one loop (_blocks): at most 5760
nodes, and at most 17280 node values over a numerator's rows (the arch
trace's three rows on a full block).  That is 185 K31 panels for one to
three rows, 92 for Upsilon's six and 384 GL15 half panels for the trace.
The values equal those of one call per panel bit for bit, since every node
and every weighted sum is formed the same way.

One rule serves several momenta at one p as well (_integrate_arches, behind
closure.lambda_grid and stability.upsilon_grid): every arch keeps its own
mesh, tolerance share, rounds, panel cap and reach check, and its totals
are summed over its own panels in the same order, but all of a round's
panels, whatever their arch, share the integrand blocks, each carrying its
arch's roots, width, a and Taylor coefficients.  A numerator reads its
arch's momentum from its fourth argument: the float a on a block of one
arch, and one float64 value per panel, shape (panels, 1) against the nodes
(panels, nodes), on a block of several, so a product of a with a float
forms the same bits either way.  Each arch's results equal those of a call
for it alone bit for bit, and the ~34 momenta of a closure scan, ~9 panels
each, take 2 integrand calls instead of 34.  integrate_over_arch is the
one-arch form of the same path.

ArchTrace runs the same rule on the rows of arc length, progression and
swept area, with one integrand for both passes, evaluates its final mesh's
half panels at their GL15 nodes in the same blocks and keeps the 15 values
as the Legendre coefficients of their antiderivative in the half panel's
own variable: a dense output of the three integrals, from which a curve's
profile is read at any arc length.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure, DomainError, ResolutionError
from .qpotential import ElasticaParams, q_second

DEFAULT_REL_TOL = 1e-10
# Q is its cubic Taylor expansion about a root at the nodes whose distance d
# from it is below this fraction of the root.  Relative to Q, the expansion's
# remainder grows like (d/kappa)^3 and the direct form's rounding like
# eps_ld kappa/d, both times kappa/(alpha - beta) near threshold; they meet
# where (d/kappa)^4 ~ eps_ld, d/kappa ~ 2e-5, at any width.
_TAYLOR_REACH = 1e-5
_PANEL_CAP = 20000
# The log panels start no higher than pi/2 2^-_LOW_LEVELS; halving levels
# toward pi/2.
_LOW_LEVELS = 8
_HIGH_LEVELS = 3
# Widest initial panel in u = log theta.  Wider panels still meet rel_tol,
# but the arch trace's dense output interpolates on them: at width 4 the
# Hopf lift's horizontality reads 1.3e-10 on p = 0.7 gamma_{11,19}, above
# the 1e-10 its test allows.
_LOG_WIDTH = 3.0
# Half width in u of the zone of uniform log panels about each of the mesh's
# layers; one log panel spans each stretch between zones.  Above Lambda's
# layer theta F decays like e^-u, so a stretch holds ~e^-31 of the layer's
# integral, and neither the rule's K31 sum nor the arch trace's GL15 half
# panels on it move Lambda or the trace's totals by more than a few ulps.
# At 24 Lambda moved by up to 7e-14, at 30 the trace's progression by 1.1e-14.
_LAYER_REACH = 33.0
# Widest panel across a stretch in u: its nodes' theta ratios, up to e^(2h),
# stay far inside float64's range.
_STRETCH_WIDTH = 350.0
# Smallest theta the mesh may reach (its log panels start at an eighth of
# grade_floor); finer panel ends would run out of float64 range.
_THETA_FLOOR = 1e-300
# Integrand nodes per call: bounds the node arrays when grade_floor asks for
# ~1000 log panels or a round bisects thousands; 185 panels of the rule, or
# 384 half panels of the arch trace's dense output.
_BLOCK_NODES = 5760
# Node values per call over all of a numerator's rows: the arch trace's three
# rows on a full block.  Upsilon's six rows take blocks of 92 panels, so its
# extended-precision rows and temporaries stay within the trace's.
_BLOCK_VALUES = 3 * _BLOCK_NODES

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
# QUADPACK's G15/K31 pair: _GL_NODES, then the 16 Kronrod nodes, the roots
# of the Stieltjes polynomial E16 (orthogonal to x^j P15 for j < 16), and
# the 31 weights in the same order, exact to degree 46; derived at 60
# digits and rounded to float64.
_K31_NODES = np.concatenate([_GL_NODES, [
    -0.9980022986933971, -0.9677390756791391, -0.8972645323440819, -0.790418501442466,
    -0.650996741297417, -0.4850818636402397, -0.29918000715316884, -0.1011420669187175,
    0.1011420669187175, 0.29918000715316884, 0.4850818636402397, 0.650996741297417,
    0.790418501442466, 0.8972645323440819, 0.9677390756791391, 0.9980022986933971,
]])
_K31_WEIGHTS = np.array([
    0.015007947329316122, 0.03534636079137585, 0.05348152469092809, 0.06985412131872826,
    0.08308050282313302, 0.09312659817082532, 0.09917359872179196, 0.10133000701479154,
    0.09917359872179196, 0.09312659817082532, 0.08308050282313302, 0.06985412131872826,
    0.05348152469092809, 0.03534636079137585, 0.015007947329316122, 0.005377479872923349,
    0.02546084732671532, 0.04458975132476488, 0.06200956780067064, 0.07684968075772038,
    0.08856444305621176, 0.09664272698362368, 0.10076984552387559, 0.10076984552387559,
    0.09664272698362368, 0.08856444305621176, 0.07684968075772038, 0.06200956780067064,
    0.04458975132476488, 0.02546084732671532, 0.005377479872923349,
])
# GL15 values -> Legendre coefficients of their interpolant, and of its
# antiderivative from x = -1 (exact: the rule integrates degree 29).
_TO_LEGENDRE = (
    (np.arange(15) + 0.5)[:, None]
    * np.polynomial.legendre.legvander(_GL_NODES, 14).T
    * _GL_WEIGHTS
)
_ANTIDERIVATIVE = np.polynomial.legendre.legint(_TO_LEGENDRE, lbnd=-1)
# Newton steps on a panel polynomial: at most this many, and none after a
# step in the local variable x in [-1, 1] below _NEWTON_X_TOL, since the
# convergence is quadratic and the next step would be at roundoff.
_NEWTON_STEPS = 8
_NEWTON_X_TOL = 1e-8


def limit_at_maximum(params: ElasticaParams, numerator: Callable):
    """Local-maximum limit of the arch integral as the roots collapse.

    As a -> a_* both roots tend to kappa_* and the integral tends to
    numerator(kappa_*) * pi / sqrt(-Q''(kappa_*)/2), one value per row.
    """
    ks = params.kappa_star
    curv = -0.5 * q_second(params.p, params.a, ks)
    kappa = np.asarray([ks])
    values = np.asarray(
        numerator(kappa, np.zeros(1), kappa ** (1.0 - params.p), params.a), dtype=float
    )
    limit = values.reshape(values.shape[:-1]) * math.pi / math.sqrt(curv)
    return float(limit) if limit.ndim == 0 else limit


@dataclass(frozen=True)
class SingularIntegral:
    """Value of one arch integral together with its error estimate.

    Both are floats for a one-row numerator and arrays, one entry per row,
    for a stack of rows.
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray


def _power(k: np.ndarray, e: float) -> np.ndarray:
    """k ** e, in k's dtype, for an array k of positive normal float64 values.

    With k = m 2^E (m in [1/2, 1)) and I the integer nearest e E,
    k^e = exp2((e E - I) + e log2 m) 2^I.  e E is formed from a head of e
    of at most 42 bits and its tail of at most 11, so both products with
    E (|E| < 2^11) are exact in float64; an unsplit e E would be off by up
    to ~180 ulp where long double is float64.  2^I scales as a float64
    power of two, which is exact (equal to ldexp) for |I| <= 1021.  That
    holds for e in (0, 1) at every kappa that curvature_bounds admits: the
    arch lies within [2^-1022, 2^1021), so |I| <= |E| <= 1021.  Within 2 ulp
    of k ** e; long double's pow was the costliest step of a node.
    """
    head_m, head_e = math.frexp(e)
    head = math.ldexp(math.floor(math.ldexp(head_m, 42)), head_e - 42)
    m, exponent = np.frexp(k)
    product = exponent * head
    whole = np.rint(product)
    t = (product - whole).astype(k.dtype)
    t += exponent * (e - head)
    t += k.dtype.type(e) * np.log2(m)
    r = np.exp2(t)
    r *= np.ldexp(1.0, whole.astype(np.int32))
    return r


def _q_derivatives(p: float, a: float, kappa):
    """First three kappa-derivatives of Q at a point, in extended precision.

    Extended range matters as much as precision here: kappa^(e-3) can
    overflow float64 when the lower root sits near 1e-300.
    """
    e = np.longdouble(2.0 * (1.0 - p))
    k = np.longdouble(kappa)
    a_l = np.longdouble(a)
    c = np.longdouble((1.0 - p) ** 2)
    d1 = a_l * e * k ** (e - 1.0) - 2.0 * c * k
    d2 = a_l * e * (e - 1.0) * k ** (e - 2.0) - 2.0 * c
    d3 = a_l * e * (e - 1.0) * (e - 2.0) * k ** (e - 3.0)
    return d1, d2, d3


def _polish_root(p: float, a: float, kappa: float):
    """One extended-precision Newton step on Q from a float64 root.

    At small p the upper root is ill-conditioned in float64 (~1e-12
    relative at p = 0.01); the substitution needs it to the precision of
    the Taylor switch, or g grows a spurious spike where the switch meets
    the root's error.
    """
    k = np.longdouble(kappa)
    r = k ** np.longdouble(1.0 - p)
    q = np.longdouble(a) * r * r - np.longdouble((1.0 - p) ** 2) * k * k
    q -= np.longdouble(p) ** 2
    return k - q / _q_derivatives(p, a, k)[0]


def _arch_constants(params_seq) -> np.ndarray:
    """The theta map's constants of arches at one p, in extended precision:
    one row per constant, one column per arch.

    The rows are the polished lower root beta, the width alpha - beta and
    its square, a, _TAYLOR_REACH times each polished root, and the
    coefficients Q', Q''/2 and Q'''/6 of Q's Taylor expansion about beta,
    then about alpha.  Every step acts elementwise, so a column equals the
    constants of its arch alone.
    """

    def column(name):
        # numpy's scalar arithmetic costs a fraction of its 1-element arrays'
        values = [getattr(params, name) for params in params_seq]
        return values[0] if len(values) == 1 else np.array(values)

    p, a = params_seq[0].p, column("a")
    beta, alpha = _polish_root(p, a, column("beta")), _polish_root(p, a, column("alpha"))
    width = alpha - beta
    taylor = []
    for root in (beta, alpha):
        d1, d2, d3 = _q_derivatives(p, a, root)
        taylor += [d1, 0.5 * d2, d3 / 6.0]
    reach = [_TAYLOR_REACH * beta, _TAYLOR_REACH * alpha]
    rows = [beta, width, width * width, np.longdouble(a), *reach, *taylor]
    return np.array(rows).reshape(len(rows), len(params_seq))


def _theta_map(p: float, constants, theta):
    """(kappa, Q, r, sin^2 theta, cos^2 theta) at the nodes theta.

    constants are the rows of _arch_constants: scalars, where every node is
    on one arch, or arrays (panels, 1), where theta holds the nodes (panels,
    nodes) of panels on several arches at one p.  The map works in extended
    precision with the polished roots.  At the nodes within _TAYLOR_REACH
    of the nearer root, relative to that root, Q is its cubic Taylor
    expansion about the root; the choice depends on the nodes' exact root
    distances alone, never on the computed Q.
    """
    beta, width, _, a_l, reach_beta, reach_alpha, *taylor = constants
    s2 = np.sin(theta).astype(np.longdouble) ** 2
    c2 = np.cos(theta).astype(np.longdouble) ** 2
    # Root distances come straight from the substitution, so they stay
    # meaningful even when kappa - beta underflows the ulp of kappa.
    d_beta = width * s2
    d_alpha = width * c2
    kl = beta + d_beta
    r = _power(kl, 1.0 - p)
    q = a_l * r * r - np.longdouble((1.0 - p) ** 2) * kl**2 - np.longdouble(p) ** 2
    nearer_beta = s2 < c2
    near_beta = nearer_beta & (d_beta < reach_beta)
    near_alpha = ~nearer_beta & (d_alpha < reach_alpha)
    for near, d, coeffs in ((near_beta, d_beta, taylor[:3]), (near_alpha, -d_alpha, taylor[3:])):
        d = d[near]
        if np.ndim(coeffs[0]):
            # one row per panel: the coefficients of each near node's panel
            panel = near.nonzero()[0]
            coeffs = [c[panel, 0] for c in coeffs]
        d1, d2, d3 = coeffs
        q[near] = d * (d1 + d * (d2 + d * d3))
    return kl, q, r, s2, c2


def _make_theta_integrand(params_seq, numerator: Callable):
    """(theta, arch) -> (rows, *theta.shape) integrand values of the
    numerator at the nodes theta (panels, nodes), each panel on the arch
    params_seq[arch] (arch holds one index per panel); the arches share p."""
    p = params_seq[0].p
    constants = _arch_constants(params_seq)
    momenta = np.array([params.a for params in params_seq])

    def integrand(theta, arch):
        # A block on one arch takes its constants and momentum as scalars,
        # which numpy operates with at a fraction of the cost of 1-element
        # arrays, and its nodes flat; a block on several arches takes one
        # row (panels, 1) per constant and of momenta, against the nodes
        # (panels, nodes).
        if np.all(arch == arch[0]):
            columns, nodes = tuple(constants[:, arch[0]]), theta.ravel()
            a = params_seq[arch[0]].a
        else:
            columns, nodes = tuple(constants[:, arch, None]), theta
            a = momenta[arch, None]
        kl, q, r, s2, c2 = _theta_map(p, columns, nodes)
        if np.any(q <= 0.0):
            raise DomainError("Q <= 0 inside (beta, alpha): inconsistent roots")
        # Everything stays in extended precision: on the deepest panels
        # theta^2 underflows float64 and the integrand's pointwise
        # values can overflow it, even though the integral is O(1).
        g = (q / (columns[2] * s2 * c2)).ravel()
        values = np.asarray(numerator(kl, q, r, a)).reshape(-1, g.size)
        return (values * (2.0 / np.sqrt(g))).reshape(-1, *theta.shape)

    return integrand


def _log_ends(u_low: float, u_moment: float, u_high: float) -> np.ndarray:
    """Lower ends in u = log theta of the log panels from u_low to u_high.

    Uniform panels at most _LOG_WIDTH wide cover each zone within
    _LAYER_REACH of u_low, of the moment layer u_moment (where it lies
    between them) and of u_high; zones that meet merge into one.  Each
    stretch between two zones takes one panel, or as many equal ones as keep
    them within _STRETCH_WIDTH.  A piece's ends are lo + i (hi - lo) / n, as
    np.linspace forms them, so a range of at most 2 _LAYER_REACH, one zone,
    keeps the uniform breaks from u_low to u_high bit for bit.
    """
    zones = [(u_low, u_low + _LAYER_REACH), (u_high - _LAYER_REACH, u_high)]
    if u_low < u_moment < u_high:
        zones.append((u_moment - _LAYER_REACH, u_moment + _LAYER_REACH))
    merged = []
    for lo, hi in sorted((max(lo, u_low), min(hi, u_high)) for lo, hi in zones):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    pieces, end = [], u_low
    for lo, hi in merged:
        if lo > end:
            pieces.append((end, lo, math.ceil((lo - end) / _STRETCH_WIDTH)))
        pieces.append((lo, hi, math.ceil((hi - lo) / _LOG_WIDTH)))
        end = hi
    return np.array([lo + i * ((hi - lo) / n) for lo, hi, n in pieces for i in range(n)])


def _arch_breaks(params: ElasticaParams, grade_floor: float | None = None):
    """Panel ends in theta of the initial mesh for one (p, a), and a mask of
    the panels integrated in u = log theta.

    The log panels run from an eighth of the floor to pi/8 (_log_ends), with
    a theta panel from 0 below them and theta panels toward pi/2 above.
    """
    half_pi = 0.5 * math.pi
    # log sqrt(beta / (alpha - beta)): the ratio underflows at large a
    u_moment = 0.5 * (math.log(params.beta) - math.log(params.alpha - params.beta))
    floor = math.exp(u_moment)
    if grade_floor is not None:
        floor = min(floor, grade_floor)
    u_low = math.log(min(floor / 8.0, half_pi * 2.0**-_LOW_LEVELS))
    lows = np.exp(_log_ends(u_low, u_moment, math.log(0.125 * math.pi)))
    # a theta panel from 0, the log panels up to pi/8, uniform pi/8 panels,
    # halving toward pi/2
    mids = [0.125 * math.pi, 0.25 * math.pi, 0.375 * math.pi]
    highs = [half_pi - 0.125 * math.pi * 2.0**-k for k in range(1, _HIGH_LEVELS + 1)]
    breaks = np.concatenate([[0.0], lows, mids, highs, [half_pi]])
    log = np.zeros(breaks.size - 1, dtype=bool)
    log[1 : lows.size + 1] = True
    return breaks, log


def _local_nodes(lo, hi, log, x):
    """(theta, h, dtheta) at local variables x in [-1, 1] of the panels
    [lo, hi]: the nodes, the panels' half widths h in their own variables
    and d theta / d(own variable) at the nodes.

    lo, hi and log hold one entry per panel, and x broadcasts against
    (panels, 1).  A panel's own variable is theta, or u = log theta where
    log is set; a log panel's nodes are theta = lo exp(h (1 + x)), formed
    from its end rather than from u, whose rounding deep in the layer (|u|
    up to ~690) would cost theta ~1e-13 of its relative precision.
    """
    lo, hi, log = lo[:, None], hi[:, None], log[:, None]
    # the bottom theta panel starts at 0; a theta panel's ratio is unused
    h = np.where(log, 0.5 * np.log(hi / np.where(log, lo, hi)), 0.5 * (hi - lo))
    theta = np.where(log, lo * np.exp(h * (1.0 + x)), 0.5 * (lo + hi) + h * x)
    return theta, h, np.where(log, theta, 1.0)


def _midpoints(lo, hi, log):
    """Midpoints in theta of the panels [lo, hi], each in its own variable."""
    return _local_nodes(lo, hi, log, 0.0)[0][:, 0]


def _blocks(f, lo, hi, log, arch, x, rows):
    """Per block of the panels [lo, hi] of the arches arch (one index per
    panel), one integrand call each: the (rows, panels, x.size) values of f
    d(theta) at the local variables x, and the half widths h (panels, 1).
    A block holds at most _BLOCK_NODES nodes and _BLOCK_VALUES node values."""
    step = min(_BLOCK_NODES, _BLOCK_VALUES // rows) // x.size
    for start in range(0, len(lo), step):
        block = slice(start, start + step)
        theta, h, dtheta = _local_nodes(lo[block], hi[block], log[block], x)
        yield f(theta, arch[block]) * dtheta, h


def _panels(f, lo, hi, log, arch, rows):
    """(value, err) of the panels [lo, hi] of the arches arch (one index per
    panel), each of shape (rows, panels).

    value is a panel's K31 sum in its own variable and err its distance from
    the GL15 sum on the 15 Gauss nodes among them, from _blocks.
    """
    blocks = []
    for values, h in _blocks(f, lo, hi, log, arch, _K31_NODES, rows):
        # weighted sums in the integrand's (extended) precision, then narrowed
        kronrod = h[:, 0] * (values @ _K31_WEIGHTS)
        gauss = h[:, 0] * (values[..., : _GL_NODES.size] @ _GL_WEIGHTS)
        blocks.append(np.stack([kronrod, gauss]).astype(float))
    kronrod, gauss = np.concatenate(blocks, axis=-1)
    return kronrod, np.abs(kronrod - gauss)


def _resolves(params: ElasticaParams, grade_floor: float | None) -> bool:
    """Whether the arch rule resolves an integral over params' arch whose
    numerator has its deepest layer at the theta scale grade_floor.

    A near-circular arch takes the local-maximum limit; any other needs the
    floor within the mesh's reach, 8 * _THETA_FLOOR (an underflowed 0 is
    not).
    """
    return params.near_circular or grade_floor is None or grade_floor / 8.0 >= _THETA_FLOOR


def _adapt(params_seq, f, rel_tol, grade_floors, rows=1):
    """For each arch of params_seq (all at one p, each with the grade floor
    of the same place in grade_floors): row totals, their error sums and the
    final mesh's panels (lo, hi, log), refined in rounds.  f is the arches'
    integrand (_make_theta_integrand) and rows its row count, which sizes
    the integrand blocks.

    Each arch keeps its own mesh, tolerance share, rounds and panel cap, and
    a round's children follow the panels it leaves whole.  All of a round's
    meshes share _panels' blocks, and a panel's value does not depend on the
    block it is in, so every arch's results are those of a call for it
    alone, bit for bit.  Any arch the mesh cannot resolve raises
    ResolutionError before the first integrand call.
    """
    if not all(map(_resolves, params_seq, grade_floors)):
        raise ResolutionError(
            f"inner layer's theta scale is below {8.0 * _THETA_FLOOR:g}, "
            "the arch mesh's reach"
        )

    def evaluate(arches, meshes):
        """(value, err) of each mesh (lo, hi, log), meshes[j] on arches[j]."""
        sizes = [lo.size for lo, _, _ in meshes]
        lo, hi, log = (np.concatenate(ends) for ends in zip(*meshes))
        value, err = _panels(f, lo, hi, log, np.repeat(arches, sizes), rows)
        starts = itertools.accumulate(sizes, initial=0)
        return [(value[:, i : i + n], err[:, i : i + n]) for i, n in zip(starts, sizes)]

    meshes = []
    for params, floor in zip(params_seq, grade_floors):
        breaks, log = _arch_breaks(params, floor)
        meshes.append((breaks[:-1], breaks[1:], log))
    sums = evaluate(range(len(meshes)), meshes)
    results = [None] * len(meshes)
    pending = range(len(meshes))
    while True:
        refining = []
        for i in pending:
            (lo, hi, log), (value, err) = meshes[i], sums[i]
            total, total_err = value.sum(axis=1), err.sum(axis=1)
            tol = rel_tol * np.maximum(np.abs(total), 1e-300)
            missing = total_err > tol
            if not np.any(missing):
                results[i] = (total, total_err, lo, hi, log)
                continue
            split = np.any(err[missing] > tol[missing, None] / lo.size, axis=0)
            if lo.size + np.count_nonzero(split) > _PANEL_CAP:
                raise ConvergenceFailure("adaptive quadrature exceeded panel cap")
            mid = _midpoints(lo[split], hi[split], log[split])
            c_lo, c_hi = np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])
            refining.append((i, split, (c_lo, c_hi, np.tile(log[split], 2))))
        if not refining:
            return results
        pending = [i for i, _, _ in refining]
        children = evaluate(pending, [child for _, _, child in refining])
        for (i, split, child), (c_value, c_err) in zip(refining, children):
            meshes[i] = tuple(np.concatenate([x[~split], c]) for x, c in zip(meshes[i], child))
            value, err = sums[i]
            sums[i] = (
                np.concatenate([value[:, ~split], c_value], axis=1),
                np.concatenate([err[:, ~split], c_err], axis=1),
            )


def _check_rel_tol(rel_tol: float) -> None:
    if not 1e-14 <= rel_tol <= 1e-3:
        raise DomainError("rel_tol must lie in [1e-14, 1e-3]")


def _integrate_arches(params_seq, numerator, rel_tol, grade_floors, rows=1) -> list:
    """integrate_over_arch over each arch of params_seq, all at one p, with
    the grade floor of the same place in grade_floors: near-circular arches
    take the local-maximum limit, and the rest go through one arch rule
    (_adapt), whose panels share integrand blocks sized for the numerator's
    rows."""
    _check_rel_tol(rel_tol)
    results = [None] * len(params_seq)
    arches = []
    for i, params in enumerate(params_seq):
        if params.near_circular:
            limit = limit_at_maximum(params, numerator)
            results[i] = SingularIntegral(value=limit, error_estimate=0.0 * limit)
        else:
            arches.append(i)
    if arches:
        arch_params, floors = [params_seq[i] for i in arches], [grade_floors[i] for i in arches]
        f = _make_theta_integrand(arch_params, numerator)
        for i, (total, total_err, *_) in zip(arches, _adapt(arch_params, f, rel_tol, floors, rows)):
            if total.size == 1:
                total, total_err = float(total[0]), float(total_err[0])
            results[i] = SingularIntegral(value=total, error_estimate=total_err)
    return results


def integrate_over_arch(
    params: ElasticaParams,
    numerator: Callable,
    rel_tol: float = DEFAULT_REL_TOL,
    grade_floor: float | None = None,
) -> SingularIntegral:
    """Compute int_beta^alpha numerator(kappa, q, r, a)/sqrt(Q) dkappa adaptively.

    numerator(kappa, q, r, a) receives extended-precision node arrays (the
    curvature, the stabilised Q and r = kappa^(1-p)) and the momentum a, a
    float or, where blocks are shared by several arches, a float64 array
    that broadcasts against the nodes; it must act elementwise, and returns
    an array of the nodes' shape or a stack of such rows; a stack is
    integrated on shared nodes and gives one value per row.

    The initial mesh is in u = log theta from pi/8 down to an eighth of
    the smaller of sqrt(beta/(alpha-beta)) and grade_floor (at least to
    pi/2 2^-8), uniform near those ends and the moment layer and one panel
    across each stretch between, with one theta panel below and coarse
    theta panels toward the upper root.  Each panel takes the 31 nodes of the
    Gauss-Kronrod pair G15/K31: its value is the K31 sum and its error
    estimate |K31 - G15|, with G15 the 15-point Gauss-Legendre sum on the
    embedded Gauss nodes.  Panels are evaluated in blocks of at most 5760
    nodes per integrand call.  While any row's error estimate misses
    rel_tol, rounds bisect the panels above an even share of its tolerance
    (see the module docstring) in the same blocks, up to 20000 panels
    (ConvergenceFailure).

    The mesh is fine only toward theta = 0, at the lower root: a
    numerator's layers must lie there.  One with a layer elsewhere, such as
    toward the upper root, can come back wrong with a tiny error estimate.
    Numerators with a layer deeper than the moment layer (its theta scale
    can fall below 1e-40 for momenta far above threshold) pass its theta
    scale as grade_floor; a floor the mesh cannot reach (below 8 * 1e-300,
    including 0 from an underflowed scale) raises ResolutionError.
    Near-circular parameters short-circuit to the local-maximum limit.
    This is the one-arch form of the rule that integrates several momenta
    at one p together (see the module docstring).
    """
    return _integrate_arches((params,), numerator, rel_tol, (grade_floor,))[0]


def _progression_numerator(p: float) -> Callable:
    """Lambda's numerator kappa^(1-p) / (a kappa^(2(1-p)) - p^2).

    The denominator is formed as Q + (1-p)^2 kappa^2; the Q-aware form avoids
    the cancellation that wrecks it in the inner layer at large a.
    """

    def numerator(k, q, r, a):
        return r / (q + (1.0 - p) ** 2 * k**2)

    return numerator


def _progression_layer(params: ElasticaParams) -> float | None:
    """theta scale of the inner layer of Lambda's numerator, or None.

    The denominator collapses to ~(1-p)^2 beta^2 at the lower root while Q
    grows like Q'(beta) (alpha-beta) theta^2 away from it; their crossover
    sets the theta scale of the inner layer the quadrature mesh must reach.
    With the on-shell Q'(beta) = 2p(1-p)(p - (1-p) beta^2)/beta the scale is
    formed in logs: at large momenta beta and the layer fall far below the
    float range, and a layer the mesh cannot reach must raise there.
    """
    p, beta = params.p, params.beta
    on_shell = p - (1.0 - p) * beta * beta
    if on_shell <= 0.0:
        return None
    return math.exp(
        math.log1p(-p)
        + 1.5 * math.log(beta)
        - 0.5 * math.log(2.0 * p * (1.0 - p) * on_shell * (params.alpha - beta))
    )


class ArchTrace:
    """Curvature, progression and swept area of a curve as functions of arc
    length, from one arch quadrature over half a curvature period.

    Three rows are integrated on one mesh from the curvature minimum beta to
    the maximum alpha:

        ds   = p(1-p)/kappa                               dkappa/sqrt(Q)
        dpsi = p(1-p)^2 sqrt(a) kappa^(1-p)/(a kappa^(2(1-p)) - p^2) dkappa/sqrt(Q)
        dA   = (1 - p/(sqrt(a) kappa^(1-p))) dpsi

    (psi's numerator is Lambda's, A is the area swept between the curve and
    the pole (1, 0, 0)).  Every half panel of the final mesh keeps its 15
    Gauss-Legendre values as the Legendre coefficients of their antiderivative
    in the half panel's local variable x in [-1, 1], so each row is a
    piecewise polynomial in theta or, on a log panel, in log theta and costs
    no further integrand calls.  Near-circular parameters raise
    ResolutionError.

    at(s) reduces s to the rising half period by the profile's symmetries:
    reflection, kappa(T - s) = kappa(s), kappa'(T - s) = -kappa'(s),
    psi(T - s) = Lambda - psi(s), A(T - s) = A(T) - A(s); and shift, s + T
    adding Lambda to psi and A(T) to A.  It then solves s(x) = s by
    Newton's method on the panel polynomial, maps x back to theta, reads
    kappa = beta + (alpha - beta) sin^2(theta) and kappa' =
    +-kappa sqrt(Q)/(p(1-p)) from the first integral, and psi and A from
    their antiderivatives.
    """

    def __init__(self, params: ElasticaParams, rel_tol: float = DEFAULT_REL_TOL):
        _check_rel_tol(rel_tol)
        if params.near_circular:
            raise ResolutionError("near-circular arch: too narrow for the trace to resolve")
        p, sqrt_a = params.p, math.sqrt(params.a)
        progression = _progression_numerator(p)

        def numerator(k, q, r, a):
            dpsi = p * (1.0 - p) ** 2 * sqrt_a * progression(k, q, r, a)
            return p * (1.0 - p) / k, dpsi, (1.0 - p / (sqrt_a * r)) * dpsi

        f = _make_theta_integrand((params,), numerator)
        ((_, _, lo, hi, log),) = _adapt((params,), f, rel_tol, (_progression_layer(params),), 3)
        # the half panels in theta order; the panels tile [0, pi/2]
        order = np.argsort(lo)
        lo, hi, log = lo[order], hi[order], log[order]
        mid = _midpoints(lo, hi, log)
        self._lo = np.column_stack([lo, mid]).ravel()
        self._hi = np.column_stack([mid, hi]).ravel()
        self._log = np.repeat(log, 2)
        # Each block's (rows, half panels, 15) values, scaled by the half
        # width in extended precision before narrowing: the integrand's
        # values can overflow float64 on the deepest panels.
        arch = np.zeros(len(self._lo), dtype=int)
        blocks = [
            (values @ _ANTIDERIVATIVE.T * half, values[0] @ _TO_LEGENDRE.T * half)
            for values, half in _blocks(f, self._lo, self._hi, self._log, arch, _GL_NODES, 3)
        ]
        antiderivative, slope = (np.concatenate(b, axis=-2) for b in zip(*blocks))
        self._antiderivative = antiderivative.astype(float)
        self._slope = slope.astype(float)
        # P_k(1) = 1, so a half panel's integral is its coefficients' sum.
        steps = antiderivative.sum(axis=-1)
        self._cumulative = np.concatenate(
            [np.zeros((3, 1)), np.cumsum(steps, axis=1).astype(float)], axis=1
        )
        self.params = params
        self._constants = tuple(_arch_constants((params,))[:, 0])
        half_period, half_progression, half_area = self._cumulative[:, -1]
        self.period = 2.0 * half_period
        self.progression = 2.0 * half_progression
        self.area = 2.0 * half_area

    def _locate(self, s_half: np.ndarray):
        """Half panel index, local variable x and Legendre basis at x of the
        points where the arc-length row reaches s_half in [0, T/2]."""
        cumulative = self._cumulative[0]
        last = len(self._lo) - 1
        panel = np.clip(np.searchsorted(cumulative, s_half, side="right") - 1, 0, last)
        # Far above threshold the half panels next to alpha can hold no
        # float64 arc length; the one picked at s_half = T/2 is read at its
        # end, x = 1, and the others by Newton's method.
        width = cumulative[panel + 1] - cumulative[panel]
        solve = width > 0.0
        solved = panel[solve]
        target = s_half[solve] - cumulative[solved]
        coeffs, slope = self._antiderivative[0, solved], self._slope[solved]
        y = np.clip(2.0 * target / width[solve] - 1.0, -1.0, 1.0)
        for _ in range(_NEWTON_STEPS):
            basis = np.polynomial.legendre.legvander(y, _GL_NODES.size)
            step = (np.einsum("ij,ij->i", basis, coeffs) - target) / np.einsum(
                "ij,ij->i", basis[:, :-1], slope
            )
            y = np.clip(y - step, -1.0, 1.0)
            if np.max(np.abs(step), initial=0.0) < _NEWTON_X_TOL:
                break
        else:
            raise ConvergenceFailure("Newton's method on the arc-length polynomial failed")
        x = np.ones_like(s_half)
        x[solve] = y
        return panel, x, np.polynomial.legendre.legvander(x, _GL_NODES.size)

    def at(self, s):
        """(kappa, kappa', psi, A) at arc lengths s, an array of any shape,
        with s = 0 at the curvature minimum."""
        s = np.asarray(s, dtype=float)
        flat = s.ravel()
        turns = np.floor(flat / self.period)
        rest = flat - turns * self.period
        falling = rest > 0.5 * self.period
        panel, x, basis = self._locate(np.where(falling, self.period - rest, rest))
        theta = _local_nodes(self._lo[panel], self._hi[panel], self._log[panel], x[:, None])[0]
        p = self.params.p
        kappa, q, *_ = _theta_map(p, self._constants, theta[:, 0])
        speed = kappa * np.sqrt(np.maximum(q, 0.0)) / (p * (1.0 - p))
        psi_half, area_half = self._cumulative[1:, panel] + np.einsum(
            "rij,ij->ri", self._antiderivative[1:, panel], basis
        )
        columns = (
            kappa.astype(float),
            np.where(falling, -speed, speed).astype(float),
            turns * self.progression + np.where(falling, self.progression - psi_half, psi_half),
            turns * self.area + np.where(falling, self.area - area_half, area_half),
        )
        return tuple(column.reshape(s.shape) for column in columns)


def kappa_moment(params: ElasticaParams, t: float) -> float:
    """Moment M(t) = int_beta^alpha kappa^t / sqrt(Q) dkappa.

    These moments satisfy the integration-by-parts identity

        (1-p)^2 (1+t) M(1+t) = a (1+t-p) M(1+t-2p) - t p^2 M(-1+t),

    which downstream rewrites of the second variation rely on.
    """
    return integrate_over_arch(params, lambda k, q, r, a: k**t).value


def parts_identity_residual(params: ElasticaParams, t: float) -> float:
    """Relative residual of the integration-by-parts identity at exponent t.

    Normalized by the largest of the three term magnitudes: near t = -1 the
    identity's sides both vanish, so side-based normalization is meaningless.
    """
    p, a = params.p, params.a
    t1 = (1.0 - p) ** 2 * (1.0 + t) * kappa_moment(params, 1.0 + t)
    t2 = a * (1.0 + t - p) * kappa_moment(params, 1.0 + t - 2.0 * p)
    t3 = t * p**2 * kappa_moment(params, -1.0 + t)
    scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
    return abs(t1 - (t2 - t3)) / scale
