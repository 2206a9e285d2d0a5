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
from dataclasses import dataclass, field

import numpy as np

from .closure import ClosureIndex, solve_closure
from .errors import DomainError
from .qpotential import ElasticaParams, make_params
from .quad import DEFAULT_REL_TOL, ArchTrace

SAMPLES_PER_PERIOD = 512
# Lines formatted per string operation when writing numeric text files: one
# format per line is slow, one over the whole file holds every line's text
# and float objects at once.
_BLOCK_LINES = 16384
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


def _sample_rows(trace: CurveTrace) -> np.ndarray:
    """One row (s, kappa, kappa', psi, x, y, z) per sample."""
    st = trace.states
    return np.column_stack([st.s, st.kappa, st.kappa_prime, st.psi, trace.points])


def trace_to_csv(trace: CurveTrace, path: str) -> None:
    """Write `s,kappa,kappa_prime,psi,x,y,z` rows with 12 significant digits."""
    rows = _sample_rows(trace)
    # "\r\n" line ends, as the csv module writes them; newline="" keeps them
    with open(path, "w", newline="") as fh:
        fh.write("s,kappa,kappa_prime,psi,x,y,z\r\n")
        _write_lines(fh, ",".join(["%.12g"] * 7) + "\r\n", rows)


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
