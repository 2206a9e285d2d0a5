"""Shared fixtures: solved closure momenta and traces are expensive, so they
are computed once per session and reused across test modules."""

import numpy as np
import pytest

from pelastica.cli import REFERENCE_TABLE, _solve_indices
from pelastica.curve import trace_closed_curve
from pelastica.qpotential import make_params


def _precision_line():
    nmant = np.finfo(np.longdouble).nmant
    return f"numpy {np.__version__}, np.finfo(np.longdouble).nmant = {nmant}"


def pytest_report_header(config):
    # The 1e-13 pins were set where long double has a 63-bit stored mantissa;
    # every run says at which precision it ran.
    return _precision_line()


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the report header, so quiet runs end with the line instead.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_precision_line())


@pytest.fixture(scope="session")
def solved_rows():
    """Map (p, n, m) -> solved ClosureIndex for every reference-table row,
    by table1's own path: one closure scan per exponent, and one per dual
    pair (p, 1 - p) at the smaller exponent, whose ClosureIndex the larger
    row shares."""
    return _solve_indices(REFERENCE_TABLE)


@pytest.fixture(scope="session")
def g23_solved(solved_rows):
    return solved_rows[(0.3, 2, 3)]


@pytest.fixture(scope="session")
def g23_params(g23_solved):
    return make_params(0.3, g23_solved.a_solved)


@pytest.fixture(scope="session")
def g23_trace(g23_solved):
    return trace_closed_curve(0.3, g23_solved)


@pytest.fixture(scope="session")
def all_traces(solved_rows):
    """Reconstructed traces for every reference-table row (lazy dict)."""
    cache = {}

    def get(p, n, m):
        key = (p, n, m)
        if key not in cache:
            cache[key] = trace_closed_curve(p, solved_rows[key])
        return cache[key]

    return get
