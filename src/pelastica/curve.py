"""Curvature profile reconstruction and the embedded spherical curve.

A critical curve's curvature oscillates between the roots beta < alpha of Q,
and along it the first integral gives kappa' = +-kappa sqrt(Q)/(p(1-p)).  So
arc length, the angular progression psi and the swept area A over a
curvature arch are arch integrals of the same form as Lambda, and
quad.ArchTrace evaluates all of them at any arc length from one quadrature
over half a period.  The curve itself then comes from the explicit
parameterization

    gamma(s) = (x, sqrt(1-x^2) sin psi, sqrt(1-x^2) cos psi),
    x(s) = p kappa^(p-1)(s) / sqrt(a),

which stays inside an open half-sphere and winds monotonically around the
pole (0, 0, +-1).

sample_profile samples the arch trace uniformly in arc length over a given
number of curvature periods into one CurveTrace: the arch trace, one
ProfileSamples record of column arrays (s, kappa, kappa_prime, psi, area)
and the embedded points.  The exporters, the Hopf lift and the second
variation all read those same arrays.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .closure import ClosureIndex, solve_closure
from .errors import DomainError
from .qpotential import ElasticaParams, make_params
from .quad import DEFAULT_REL_TOL, ArchTrace

SAMPLES_PER_PERIOD = 512
# Lines formatted per block by every numeric text writer (the % writer, the
# OBJ faces, and the %.12g kernel on lines of 3 values): one format per line
# is slow, one over the whole file holds every line's text at once.  On
# 4,096 vertex lines the kernel's tracemalloc peak is 3.3 MB, and the
# 4-cover torus export stays at the 9.44 MB of stereographic_project; 8,192
# lines would pass it.
_BLOCK_LINES = 4096
# One trace sample as json.dump(..., indent=1) writes it inside "samples".
_JSON_SAMPLE = (
    '  {\n   "s": %r,\n   "kappa": %r,\n   "kappa_prime": %r,\n   "psi": %r,\n'
    '   "point": [\n    %r,\n    %r,\n    %r\n   ]\n  }'
)


@dataclass(frozen=True)
class ProfileSamples:
    """Profile samples as columns: arc length s and the state
    (kappa, kappa', psi, A) at s, one entry per sample.

    The columns are read-only: the trace, its exporters, the Hopf lift and
    the second variation all hold these same arrays.
    """

    s: np.ndarray
    kappa: np.ndarray
    kappa_prime: np.ndarray
    psi: np.ndarray
    area: np.ndarray  # swept area A

    def __post_init__(self):
        for column in (self.s, self.kappa, self.kappa_prime, self.psi, self.area):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.s)


@dataclass
class CurveTrace:
    """A traced curve: the arch trace, its samples and, for a closed curve,
    the closure index.

    The embedded points (read-only, one per sample), closure_gap (distance
    between the first and last points) and winding_number (full turns of
    psi) are computed from the samples, so dataclasses.replace(trace,
    states=...) embeds the new samples.
    """

    arch: ArchTrace = field(repr=False)  # (kappa, kappa', psi, A) at any s
    states: ProfileSamples = field(repr=False)
    index: ClosureIndex | None
    points: np.ndarray = field(init=False, repr=False)  # (N, 3) unit vectors
    closure_gap: float = field(init=False)
    winding_number: int = field(init=False)

    def __post_init__(self):
        psi = self.states.psi
        self.points = _embed_points(self.params, self.states.kappa, psi)
        self.points.flags.writeable = False
        self.closure_gap = float(np.linalg.norm(self.points[-1] - self.points[0]))
        self.winding_number = int(round(psi[-1] / (2.0 * math.pi)))

    @property
    def params(self) -> ElasticaParams:
        return self.arch.params


def _embed_points(params: ElasticaParams, kappa, psi) -> np.ndarray:
    p, a = params.p, params.a
    x = p * np.asarray(kappa, dtype=float) ** (p - 1.0) / math.sqrt(a)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise DomainError("height coordinate left (0, 1); parameters are inconsistent")
    r = np.sqrt(1.0 - x**2)
    psi = np.asarray(psi, dtype=float)
    return np.column_stack([x, r * np.sin(psi), r * np.cos(psi)])


def _trace(
    params: ElasticaParams,
    periods: float,
    rel_tol: float,
    samples_per_period: int,
    index: ClosureIndex | None,
) -> CurveTrace:
    if periods <= 0.0:
        raise DomainError("periods must be positive")
    arch = ArchTrace(params, rel_tol)
    n_samples = max(2, int(round(samples_per_period * periods)) + 1)
    s = np.linspace(0.0, periods * arch.period, n_samples)
    return CurveTrace(arch, ProfileSamples(s, *arch.at(s)), index)


def sample_profile(
    params: ElasticaParams,
    periods: float,
    rel_tol: float = DEFAULT_REL_TOL,
    samples_per_period: int = SAMPLES_PER_PERIOD,
) -> CurveTrace:
    """Trace the curve from the minimum-curvature point over `periods`
    curvature periods (any positive number, not only whole ones), with no
    closure index.

    The state at s is (kappa, kappa', psi, A) with kappa(0) = beta,
    kappa'(0) = 0 and psi(0) = A(0) = 0 (to roundoff, ~1e-19), where A is
    the spherical area swept between the curve and the pole (1, 0, 0); the
    Hopf lift takes its fiber phase A/2 from it.  rel_tol is the arch
    quadrature's tolerance, and the samples_per_period uniform samples per
    period become the ProfileSamples columns.
    """
    return _trace(params, periods, rel_tol, samples_per_period, None)


def trace_closed_curve(
    p: float,
    index: ClosureIndex,
    rel_tol: float = DEFAULT_REL_TOL,
    samples_per_period: int = SAMPLES_PER_PERIOD,
) -> CurveTrace:
    """Solve the closure condition (unless already solved) and trace the
    curve over its m periods."""
    if index.a_solved is None:
        index = solve_closure(p, index)
    params = make_params(p, index.a_solved)
    return _trace(params, index.m, rel_tol, samples_per_period, index)


def geodesic_curvature_check(trace: CurveTrace) -> float:
    """Max deviation between finite-difference geodesic curvature and kappa.

    The geodesic curvature on the sphere is the component of gamma'' along
    gamma x gamma' for a unit-speed curve; interior samples only (one-sided
    stencils at the ends are too noisy to be informative).
    """
    pts = trace.points
    s = trace.states.s
    if len(s) < 5:
        raise DomainError("trace too short for finite differences")
    h = s[1] - s[0]
    # Fourth-order central stencils; second order is not accurate enough for
    # the 1e-4 contract at the default sampling density.
    d1 = (-pts[4:] + 8.0 * pts[3:-1] - 8.0 * pts[1:-3] + pts[:-4]) / (12.0 * h)
    d2 = (
        -pts[4:] + 16.0 * pts[3:-1] - 30.0 * pts[2:-2] + 16.0 * pts[1:-3] - pts[:-4]
    ) / (12.0 * h**2)
    normal = np.cross(pts[2:-2], d1)
    kg = np.einsum("ij,ij->i", d2, normal)
    return float(np.max(np.abs(np.abs(kg) - trace.states.kappa[2:-2])))


def monotone_progression_check(trace: CurveTrace) -> bool:
    """True iff the angular progression is strictly increasing."""
    psi = trace.states.psi
    return bool(np.all(psi[1:] > psi[:-1]))


def _write_lines(fh, line_format: str, rows: np.ndarray) -> None:
    """Write line_format once per row of a 2-D array, one % format per block."""
    for start in range(0, len(rows), _BLOCK_LINES):
        block = rows[start : start + _BLOCK_LINES]
        fh.write((line_format * len(block)) % tuple(block.ravel().tolist()))


def _word(text: bytes) -> int:
    """Up to 4 ASCII bytes as one uint32 word, NUL-padded."""
    return int.from_bytes(text.ljust(4, b"\0"), sys.byteorder)


# Offsets in the %.12g kernel's word table (_digit_words): the 4-digit text
# of 0..9999 with every digit at 0, then with leading zeros as NUL, with
# trailing zeros as NUL, and with leading zeros as NUL but 0 written "0"; a
# NUL word and a "." word follow
_LEAD, _TRAIL, _LEAD0, _NUL = 10000, 20000, 30000, 40000
_SIGN = _word(b"\0\0\0-")
# 10^k for k = 0..17, each exact in float64
_POW10 = np.array([float(10**k) for k in range(18)])
# rint(y) is Python's rounding of |x| to 12 digits unless y, which carries at
# most 2^-14 of rounding error below 1e12, lies this close to a .5 tie
_TIE = 0.5 - 2.0**-11


def _digit_words() -> np.ndarray:
    words = np.zeros(40002, dtype=np.uint32)
    digits = words[:40000].view(np.uint8).reshape(4, 10000, 4)
    values = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)  # of each digit column
    digits[:] = values // place % 10 + ord("0")
    digits[1] *= values >= place  # leading zeros as NUL
    digits[2] *= values % (10 * place) != 0  # trailing zeros as NUL
    digits[3] = digits[1]
    digits[3, 0, 3] = ord("0")  # leading zeros as NUL, but 0 written "0"
    words[_NUL + 1] = _word(b".")
    return words


_DIGIT_WORDS = _digit_words()


def _g12_lines(line_format: str, rows: np.ndarray):
    """Yield the ASCII text of line_format % row for every row of a 2-D float
    array, byte for byte, a block of lines at a time.

    Every field of line_format is %.12g, and its literal text between two
    fields is at most 3 bytes long.  Each field becomes a fixed row of 9
    uint32 words (_g12_words): a separator word holding the literal text
    before the field (before a line's first field: the previous line's end
    and the line's start) with the sign in its last byte, 3 words of
    integer digits, a "." word and 4 words of fraction digits, NUL where a
    digit is absent.  Dropping the NUL bytes leaves the text.
    """
    parts = line_format.encode("ascii").split(b"%.12g")
    end = parts[-1]
    seps = [end + parts[0], *parts[1:-1]]
    if any(len(sep) > 3 or b"%" in sep for sep in seps + [end]):
        raise ValueError(f"not %.12g fields with at most 3 bytes between: {line_format!r}")
    sep_words = np.array([_word(sep) for sep in seps], dtype=np.uint32)
    # as many values a block as _BLOCK_LINES vertex lines hold, whatever the
    # fields a line: a 7-field CSV block of 4,096 lines (28,672 values) ran at
    # 77 ns a value against 64 ns for 1,755 lines, its temporaries past a
    # 2 MB L2 cache
    lines = max(1, 3 * _BLOCK_LINES // len(seps))
    skip = len(end)  # the first line has no line end before it
    for start in range(0, len(rows), lines):
        block = np.ascontiguousarray(rows[start : start + lines], dtype=float)
        yield _g12_words(block.ravel(), sep_words)[skip:]
        skip = 0
    if len(rows):
        yield end


def _g12_words(x: np.ndarray, sep_words: np.ndarray) -> bytes:
    """The %.12g text of x, len(sep_words) fields a line (see _g12_lines).

    With e = floor(log10|x|), y = |x| 10^(11 - e) lies in [1e11, 1e12) and
    rint(y) is |x| rounded to 12 significant digits.  Where log10 rounds
    across a power of ten, y lies within 1e-3 below 1e11 or above 1e12, and
    rint(y) is 1e11, or 1e12, which is 1e11 a decade up: the same digits.
    The integer part and the fraction, left-aligned to 16 digits, are exact
    float64 integers; their 4-digit groups index words, which take the
    leading-NUL variant where every group before them is zero and the
    trailing-NUL one where every group after them is.  Python formats every
    value that this cannot be sure of: y near a .5 tie, zero, nan, inf, and
    exponents outside the fixed notation's -4..11.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ax = np.abs(x)
        e = np.floor(np.log10(ax))
        # 10^(11 - e), with 11 - e clipped to 0..17 and nan taken as 0
        y = ax * _POW10[np.fmin(np.fmax(11.0 - e, 0.0), 17.0).astype(np.intp)]
        digits = np.rint(y)
        exact = np.abs(y - digits) <= _TIE
        carry = digits == 1e12
        e += carry
        digits[carry] = 1e11
        exact &= (e >= -4.0) & (e <= 11.0)
    fallback = np.flatnonzero(~exact)
    digits[fallback] = 0.0
    e[fallback] = 0.0
    exponent = e.astype(np.intp)
    place = _POW10[11 - exponent]
    whole = np.floor(digits / place)
    fraction = (digits - whole * place) * _POW10[5 + exponent]  # < 1e16, exact
    # 8-digit halves (the integer part's lower half shifted up 4 digits, so
    # that its lower group and the "." share a pair), then 4-digit groups
    m = len(x)
    halves = np.empty((4, m))
    np.floor(whole / 1e4, out=halves[0])
    np.multiply(whole - halves[0] * 1e4, 1e4, out=halves[1])
    np.floor(fraction / 1e8, out=halves[2])
    np.subtract(fraction, halves[2] * 1e8, out=halves[3])
    halves = halves.astype(np.intp)
    index = np.empty((8, m), dtype=np.intp)
    np.floor_divide(halves, 10000, out=index[0::2])
    np.multiply(index[0::2], 10000, out=index[1::2])
    np.subtract(halves, index[1::2], out=index[1::2])
    # index rows: integer groups, the "." (0 here), fraction groups
    index[0] += _LEAD
    index[1] += (whole < 1e8) * _LEAD
    index[2] += (whole < 1e4) * _LEAD0
    index[3] += (fraction != 0.0) + _NUL  # "." before a nonzero fraction
    low_zero = halves[3] == 0
    index[4] += ((index[5] == 0) & low_zero) * _TRAIL
    index[5] += low_zero * _TRAIL
    index[6] += (index[7] == 0) * _TRAIL
    index[7] += _TRAIL
    text = np.empty((9, m), dtype=np.uint32)
    text[0].reshape(-1, len(sep_words))[:] = sep_words
    text[0] += (np.signbit(x) & exact) * np.uint32(_SIGN)
    # every index is in range; "clip" spares the copy that "raise" buffers
    np.take(_DIGIT_WORDS, index, out=text[1:], mode="clip")
    if fallback.size:
        python = np.array([b"%.12g" % v for v in x[fallback].tolist()], dtype="S32")
        text[1:, fallback] = python.view(np.uint32).reshape(-1, 8).T
    return text.T.tobytes().translate(None, b"\0")


def _sample_rows(trace: CurveTrace) -> np.ndarray:
    """One row (s, kappa, kappa', psi, x, y, z) per sample."""
    st = trace.states
    return np.column_stack([st.s, st.kappa, st.kappa_prime, st.psi, trace.points])


def trace_to_csv(trace: CurveTrace, path: str) -> None:
    """Write `s,kappa,kappa_prime,psi,x,y,z` rows with 12 significant digits
    (%.12g) and "\r\n" line ends, as the csv module writes them."""
    with open(path, "wb") as fh:
        fh.write(b"s,kappa,kappa_prime,psi,x,y,z\r\n")
        fh.writelines(_g12_lines(",".join(["%.12g"] * 7) + "\r\n", _sample_rows(trace)))


def trace_to_json(trace: CurveTrace, path: str) -> None:
    """Write trace metadata and samples as JSON, the text of
    json.dump(meta, fh, indent=1) with the samples under "samples".

    The samples go through the blocked line writer: %r of a finite float is
    its JSON text.
    """
    meta = {
        "p": trace.params.p,
        "a": trace.params.a,
        "n": trace.index.n if trace.index else None,
        "m": trace.index.m if trace.index else None,
        "closureGap": trace.closure_gap,
        "windingNumber": trace.winding_number,
    }
    rows = _sample_rows(trace)
    with open(path, "w") as fh:
        # the metadata object without its closing "\n}"
        fh.write(json.dumps(meta, indent=1)[:-2] + ',\n "samples": [\n')
        _write_lines(fh, _JSON_SAMPLE + ",\n", rows[:-1])
        _write_lines(fh, _JSON_SAMPLE + "\n", rows[-1:])
        fh.write(" ]\n}")


def trace_to_svg(trace: CurveTrace, path: str) -> None:
    """Orthographic projection onto the plane x = 0 as a closed polyline.

    The pixel coordinates (half + scale y, half - scale z) are computed as
    arrays and go through the blocked line writer as "%.2f,%.2f" pairs, one
    space between pairs.
    """
    yz = trace.points[:, 1:]
    size = 640  # square canvas, pixels
    half = size / 2.0
    scale = 0.45 * size
    pixels = np.column_stack([half + scale * yz[:, 0], half - scale * yz[:, 1]])
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n'
            f'<circle cx="{half}" cy="{half}" r="{scale}" fill="none" '
            f'stroke="#cccccc" stroke-width="1"/>\n<polyline points="'
        )
        _write_lines(fh, "%.2f,%.2f ", pixels[:-1])
        _write_lines(fh, "%.2f,%.2f", pixels[-1:])
        fh.write('" fill="none" stroke="#1f4e8c" stroke-width="1.5"/>\n</svg>\n')
