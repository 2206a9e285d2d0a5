"""Horizontality of the Hopf lift, tests only, measured on the lift's own points.

hopf.horizontal_lift(points, area) is the lift that build_torus sweeps.  At
each trace sample its derivative q' comes from a fourth-order central
difference of that same lift evaluated on the arch trace's dense output,
with step h/8 (h the sample spacing), and the fiber component <q', iq> is
read against the lift at the sample.  The lift is horizontal exactly when
that component vanishes, so a wrong phase rate, such as a swept area off by
a constant factor, shows as a residual of the size of the error.
"""

from dataclasses import replace

import numpy as np
from ode_reference import fiber_direction

from pelastica.curve import _embed_points
from pelastica.hopf import horizontal_lift


def _dense_lift(trace, s):
    kappa, _, psi, area = trace.arch.at(s)
    return horizontal_lift(_embed_points(trace.params, kappa, psi), area)


def lift_horizontality(trace) -> float:
    """Max |<q', iq>| over the samples of the lift q of a traced curve."""
    s = trace.states.s
    delta = (s[1] - s[0]) / 8.0
    q = horizontal_lift(trace.points, trace.states.area)
    dq = (
        -_dense_lift(trace, s + 2.0 * delta)
        + 8.0 * _dense_lift(trace, s + delta)
        - 8.0 * _dense_lift(trace, s - delta)
        + _dense_lift(trace, s - 2.0 * delta)
    ) / (12.0 * delta)
    return float(np.max(np.abs(np.einsum("ij,ij->i", dq, fiber_direction(q)))))


class _ScaledAreaArch:
    """An arch trace whose swept area reads `factor` times the true one."""

    def __init__(self, arch, factor):
        self.params = arch.params
        self._arch = arch
        self._factor = factor

    def at(self, s):
        kappa, kappa_prime, psi, area = self._arch.at(s)
        return kappa, kappa_prime, psi, self._factor * area


def with_scaled_area(trace, factor):
    """The trace with its swept area, samples and dense output alike, scaled
    by factor: a lift whose phase rate is off by that factor."""
    states = replace(trace.states, area=factor * trace.states.area)
    return replace(trace, arch=_ScaledAreaArch(trace.arch, factor), states=states)
