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

import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .closure import ClosureIndex, solve_closure
from .errors import DomainError
from .qpotential import ElasticaParams, make_params
from .quad import DEFAULT_REL_TOL, ArchTrace

SAMPLES_PER_PERIOD = 512
# Lines formatted per block by every numeric text writer (the % writer, the
# OBJ vertex projection and faces, and the number writer on lines of 3
# values): one format per line is slow, one over the whole file holds every
# line's text at once.  On 4,096 vertex lines the kernel's tracemalloc peak
# is 2.7-3.3 MB and sets the 4-cover torus export's; 8,192 lines double it.
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


# Offsets in the word table (_Tables.words): the 4-digit text of 0..9999 with
# every digit at 0, then with leading zeros as NUL, with trailing zeros as
# NUL, and with leading zeros as NUL but 0 written "0"; a NUL word, a "."
# word and a ".0" word follow
_LEAD, _TRAIL, _LEAD0, _NUL = 10000, 20000, 30000, 40000
_SIGN = _word(b"\0\0\0-")
# Veltkamp's splitter for float64: 2^27 + 1
_SPLIT = 134217729.0
# rint(y) is Python's rounding of |x| to 12 digits unless y, which carries at
# most 2^-14 of rounding error below 1e12, lies this close to a .5 tie
_TIE = 0.5 - 2.0**-11


class _Tables(NamedTuple):
    words: np.ndarray  # uint32 text words, at the offsets above
    pow10: np.ndarray  # 10^k for k = 0..22, each exact in float64
    pow10_high: np.ndarray  # the 26-bit upper half of each 10^k
    pow10_low: np.ndarray  # 10^k minus its upper half, exact
    pow10_int: np.ndarray  # 10^k for k = 0..17 in int64


@functools.cache
def _tables() -> _Tables:
    """The number writer's tables, built at the first export: a command
    that writes no numbers builds none."""
    words = np.zeros(40003, dtype=np.uint32)
    digits = words[:40000].view(np.uint8).reshape(4, 10000, 4)
    values = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)  # of each digit column
    digits[:] = values // place % 10 + ord("0")
    digits[1] *= values >= place  # leading zeros as NUL
    digits[2] *= values % (10 * place) != 0  # trailing zeros as NUL
    digits[3] = digits[1]
    digits[3, 0, 3] = ord("0")  # leading zeros as NUL, but 0 written "0"
    words[_NUL + 1] = _word(b".")
    words[_NUL + 2] = _word(b".0")
    pow10 = np.array([float(10**k) for k in range(23)])
    split = _SPLIT * pow10
    high = split - (split - pow10)
    return _Tables(words, pow10, high, pow10 - high, 10 ** np.arange(18, dtype=np.int64))


def _number_lines(line_format: str, rows: np.ndarray):
    """Yield the ASCII text of line_format % row for every row of a 2-D
    array, byte for byte, a block of lines at a time.

    Every field of line_format is %.12g, every one %r or every one %d (rows
    read as int64).  Each field becomes a fixed row of uint32 words:
    separator words holding the literal text before the field (before a
    line's first field: the previous line's end and the line's start),
    NUL-padded, with the sign in the last byte, then the digit words that
    the format's front end (_g12_index, _repr_index, _int_index) indexes in
    the word table, NUL where a digit is absent.  Python formats, one value
    at a time, every value that the front end cannot be sure of.  Dropping
    the NUL bytes leaves the text.
    """
    fmt = line_format.encode("ascii")
    fronts = {b"%r": (_repr_index, float), b"%d": (_int_index, np.int64)}
    conversion = next((c for c in fronts if c in fmt), b"%.12g")
    front, dtype = fronts.get(conversion, (_g12_index, float))
    parts = fmt.split(conversion)
    end = parts[-1]
    seps = [end + parts[0], *parts[1:-1]]
    if any(b"%" in sep for sep in seps + [end]):
        raise ValueError(f"not all fields {conversion.decode()}: {line_format!r}")
    width = max(map(len, seps)) // 4 + 1  # separator words, the sign byte included
    sep_words = np.frombuffer(
        b"".join(sep.ljust(4 * width, b"\0") for sep in seps), dtype=np.uint32
    ).reshape(len(seps), width)
    # as many values a block as _BLOCK_LINES vertex lines hold, whatever the
    # fields a line: a 7-field CSV block of 4,096 lines (28,672 values) ran at
    # 77 ns a value against 64 ns for 1,755 lines, its temporaries past a
    # 2 MB L2 cache
    lines = max(1, 3 * _BLOCK_LINES // len(seps))
    skip = len(end)  # the first line has no line end before it
    for start in range(0, len(rows), lines):
        block = np.ascontiguousarray(rows[start : start + lines], dtype=dtype)
        yield _number_words(block.ravel(), sep_words, front, conversion)[skip:]
        skip = 0
    if len(rows):
        yield end


def _number_words(x: np.ndarray, sep_words: np.ndarray, front, conversion: bytes) -> bytes:
    """The text of x, len(sep_words) fields a line (see _number_lines)."""
    tables = _tables()
    index, exact = front(x, tables)
    width = sep_words.shape[1]
    text = np.empty((width + len(index), len(x)), dtype=np.uint32)
    for k, sep in enumerate(sep_words):  # strided: 3x a broadcast's speed
        text[:width, k :: len(sep_words)] = sep[:, None]
    # x < 0: the sign bit of every value a front end holds, with no float cast
    np.add(text[width - 1], _SIGN, out=text[width - 1], where=(x < 0) & exact)
    # every index is in range or belongs to a value Python formats; "clip"
    # spares the copy that "raise" buffers
    np.take(tables.words, index, out=text[width:], mode="clip")
    fallback = np.flatnonzero(~exact)
    if fallback.size:
        python = np.array(
            [conversion % v for v in x[fallback].tolist()], dtype=f"S{4 * len(index)}"
        )
        text[width:, fallback] = python.view(np.uint32).reshape(-1, len(index)).T
    return text.T.tobytes().translate(None, b"\0")


def _digit_index(halves: np.ndarray, n_int: int):
    """Word indices of 8-digit halves of decimal text, split into 4-digit
    groups: the first n_int groups the integer part, right-aligned, then a
    zero group that holds the "." slot, then the fraction, left-aligned.

    A group takes the leading-NUL variant when every group before it is
    zero (the units group the variant that writes 0 as "0") and the
    trailing-NUL one when every group after it is, so no row is shifted.
    Returns the indices, with the "." slot at the NUL word for the caller
    to move, and the mask of the values whose fraction is zero.
    """
    index = np.empty((2 * len(halves), halves.shape[1]), dtype=np.intp)
    np.floor_divide(halves, 10000, out=index[0::2])
    np.multiply(index[0::2], 10000, out=index[1::2])
    np.subtract(halves, index[1::2], out=index[1::2])
    zero = index == 0
    lead = zero[0]  # every group so far is zero
    index[0] += _LEAD
    for row in range(1, n_int - 1):
        index[row] += lead * _LEAD
        lead = lead & zero[row]
    index[n_int - 1] += lead * _LEAD0
    index[n_int] += _NUL
    trail = zero[-1]  # every group after this row is zero
    index[-1] += _TRAIL
    for row in range(len(index) - 2, n_int, -1):
        index[row] += trail * _TRAIL
        trail = trail & zero[row]
    return index, trail


def _g12_index(x: np.ndarray, tables: _Tables):
    """Word indices of the %.12g text of x (see _number_lines) and the mask
    of the values they hold.

    With e = floor(log10|x|), y = |x| 10^(11 - e) lies in [1e11, 1e12) and
    rint(y) is |x| rounded to 12 significant digits.  Where log10 rounds
    across a power of ten, y lies within 1e-3 below 1e11 or above 1e12, and
    rint(y) is 1e11, or 1e12, which is 1e11 a decade up: the same digits.
    The integer part and the fraction, left-aligned to 16 digits, are exact
    float64 integers; 3 integer groups and 4 fraction groups hold them, and
    the "." is written only before a nonzero fraction.  Left to Python: y
    near a .5 tie, zero, nan, inf, and exponents outside the fixed
    notation's -4..11.
    """
    pow10 = tables.pow10
    with np.errstate(divide="ignore", invalid="ignore"):
        ax = np.abs(x)
        e = np.floor(np.log10(ax))
        # 10^(11 - e), with 11 - e clipped to 0..17 and nan taken as 0
        y = ax * pow10[np.fmin(np.fmax(11.0 - e, 0.0), 17.0).astype(np.intp)]
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
    place = pow10[11 - exponent]
    whole = np.floor(digits / place)
    fraction = (digits - whole * place) * pow10[5 + exponent]  # < 1e16, exact
    # 8-digit halves, the integer part's lower group shifted up to share a
    # half with the "." slot
    halves = np.empty((4, len(x)))
    np.floor(whole / 1e4, out=halves[0])
    np.multiply(whole - halves[0] * 1e4, 1e4, out=halves[1])
    np.floor(fraction / 1e8, out=halves[2])
    np.subtract(fraction, halves[2] * 1e8, out=halves[3])
    index, bare = _digit_index(halves.astype(np.intp), 3)
    index[3] += ~bare  # "." before a nonzero fraction
    return index, exact


def _repr_index(x: np.ndarray, tables: _Tables):
    """Word indices of the %r text (repr) of x (see _number_lines) and the
    mask of the values they hold.

    repr writes the shortest digits that read back as x, and the nearest to
    x among those (Steele & White 1990), in fixed notation for |x| in
    [1e-4, 1e16).  With e = floor(log10|x|) and k = 16 - e, y = |x| 10^k
    lies in [1e16, 1e17); Dekker's product forms it exactly as yh + yl, and
    w, half the gap above x scaled alike, is exact.  The digits are the
    nearest multiple of 100 within w, else of 10 (at a tie the even one),
    else the nearest integer, which always is (w > 0.55).  No margin is
    needed: the distances carry at most ~1e-14 of rounding, and a decimal
    of at most 16 digits stays w / 5^19 (> 2.9e-14) or more from the ends
    of the interval, so whether an end counts never matters either.  The
    gap below a power of two is half the gap above, yet no power of two in
    the range has a decimal in the difference (the tests try each one).  A
    decade that log10 rounds up leaves y in [1e15, 1e16), whose nearest
    integer is within w as well, so the digits stand; one that it rounds
    down is left to Python (digits of 10^17 or more), as are |x| outside
    [1e-4, 1e16), zero, nan and inf.  The integer part (4 groups) is
    right-aligned, the fraction (5 groups) left-aligned, and ".0" stands
    for an empty fraction.
    """
    with np.errstate(all="ignore"):
        ax = np.abs(x)
        exact = (ax >= 1e-4) & (ax < 1e16)
        np.copyto(ax, 1.5, where=~exact)  # any value with its digits in range
        e = np.floor(np.log10(ax)).astype(np.intp)  # -4..16 (-5 if log10 errs low)
        k = 16 - e
        scale = tables.pow10[k]
        scale_high, scale_low = tables.pow10_high[k], tables.pow10_low[k]
        split = _SPLIT * ax
        ax_high = split - (split - ax)
        ax_low = ax - ax_high
        yh = ax * scale
        yl = (
            (ax_high * scale_high - yh) + ax_high * scale_low + ax_low * scale_high
        ) + ax_low * scale_low
        w = 0.5 * np.spacing(ax) * scale
        # y = nearest + f with nearest = rint(y), ties to even (yh is even)
        rounded = np.rint(yl)
        f = yl - rounded
        nearest = yh.astype(np.int64) + rounded.astype(np.int64)
        digits = nearest
        for unit in (10, 100):  # the shorter digits, where they read back
            low = nearest // unit
            gap = (nearest - low * unit) + f  # y - low * unit
            # the nearer multiple; at a tie, the even one
            up = (gap > unit / 2) | ((gap == unit / 2) & (low & 1 == 1))
            inside = np.where(up, unit - gap, gap) < w
            digits = np.where(inside, (low + up) * unit, digits)
        exact &= digits < 10**17
        pow10_int = tables.pow10_int
        place = pow10_int[np.minimum(k, 17)]
        whole = digits // place
        fraction = digits - whole * place  # k digits
        # the fraction left-aligned to 20 digits: the first 4, the last 16
        rest = pow10_int[np.maximum(k - 4, 0)]
        head = fraction // rest
        tail = (fraction - head * rest) * pow10_int[20 - np.maximum(k, 4)]
        halves = np.empty((5, len(x)), dtype=np.int64)
        np.floor_divide(whole, 10**8, out=halves[0])
        np.subtract(whole, halves[0] * 10**8, out=halves[1])
        np.multiply(head, pow10_int[np.maximum(4 - k, 0)], out=halves[2])
        np.floor_divide(tail, 10**8, out=halves[3])
        np.subtract(tail, halves[3] * 10**8, out=halves[4])
    index, bare = _digit_index(halves, 4)
    index[4] += 1 + bare  # "." before a fraction, ".0" for none
    return index, exact


def _int_index(x: np.ndarray, tables: _Tables):
    """Word indices of the %d text of int64 x (see _number_lines) and the
    mask of the values they hold: all.  |x| (uint64, so |-2^63| holds) takes
    as many 4-digit groups as the block's largest value needs, each the
    leading-NUL variant where the groups before it are zero (the units
    group the one that writes 0 as "0")."""
    rest = np.abs(x).view(np.uint64)
    groups = -(-len(str(rest.max())) // 4)
    index = np.empty((groups, len(x)), dtype=np.intp)
    lead = _LEAD0
    for row in range(groups - 1, 0, -1):
        # // by a scalar divides through libdivide, np.divmod at half speed
        higher = rest // 10000
        np.subtract(rest, 10000 * higher, out=index[row])
        np.add(index[row], lead, out=index[row], where=higher == 0)
        rest, lead = higher, _LEAD
    np.add(rest, lead, out=index[0])
    return index, np.ones(len(x), dtype=bool)


def _sample_rows(trace: CurveTrace) -> np.ndarray:
    """One row (s, kappa, kappa', psi, x, y, z) per sample."""
    st = trace.states
    return np.column_stack([st.s, st.kappa, st.kappa_prime, st.psi, trace.points])


def trace_to_csv(trace: CurveTrace, path: str) -> None:
    """Write `s,kappa,kappa_prime,psi,x,y,z` rows with 12 significant digits
    (%.12g) and "\r\n" line ends, as the csv module writes them."""
    with open(path, "wb") as fh:
        fh.write(b"s,kappa,kappa_prime,psi,x,y,z\r\n")
        fh.writelines(_number_lines(",".join(["%.12g"] * 7) + "\r\n", _sample_rows(trace)))


def trace_to_json(trace: CurveTrace, path: str) -> None:
    """Write trace metadata and samples as JSON, the bytes of
    json.dump(meta, fh, indent=1) with the samples under "samples".

    The samples go through the numeric line writer (_number_lines) as %r
    fields: repr of a finite float is its JSON text.
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
    with open(path, "wb") as fh:
        # the metadata object without its closing "\n}"
        fh.write((json.dumps(meta, indent=1)[:-2] + ',\n "samples": [\n').encode("ascii"))
        fh.writelines(_number_lines(_JSON_SAMPLE + ",\n", rows[:-1]))
        fh.writelines(_number_lines(_JSON_SAMPLE + "\n", rows[-1:]))
        fh.write(b" ]\n}")


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
