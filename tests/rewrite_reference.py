"""The three rewrites of Upsilon as hand-expanded three-moment sums.

stability._rewrite_values derives each rewrite from eta's five-moment form
and the parts identity; this is the same algebra written out, term by term,
as the reference it is tested against.  Each is a sum of three terms, on
M(1-p), M(-1-p) and one of M(p-1) (r1), M(p+1) (r2) and M(p-3) (r3); the
coefficients of r2 and r3 carry 1/p^3 and 1/(1-p)^3.
"""

import numpy as np

EPS = np.finfo(float).eps


def rewrite_terms(p, a, moments):
    """The three terms of each of r1, r2 and r3, from the moments M(t) for
    t = 1-p, -1-p, p-1, p+1, p-3, in that order.

    At p = 0.99, a = 953921.8 a term of r3 overflows float64 to inf and r3
    is NaN.
    """
    c_crit = -4.0 * p**4 + 8.0 * p**3 + 2.0 * p**2 - 6.0 * p + 1.0
    m_1mp, m_m1mp, m_pm1, m_1pp, m_pm3 = moments
    r1 = (
        -a * p**2 / (1.0 + p) * m_1mp,
        -a * (1.0 - p) ** 2 / (2.0 - p) * m_m1mp,
        c_crit / ((1.0 + p) * (2.0 - p)) * m_pm1,
    )
    r2 = (
        -a * (1.0 - p) * (p**4 - 2.0 * p**3 - 3.0 * p**2 + 6.0 * p - 1.0)
        / (p**3 * (2.0 - p)) * m_1mp,
        -a * (1.0 - p) ** 2 / (2.0 - p) * m_m1mp,
        -(1.0 - p) ** 2 * c_crit / (p**3 * (2.0 - p)) * m_1pp,
    )
    r3 = (
        -a * p**2 / (1.0 + p) * m_1mp,
        -p**2 * c_crit / ((1.0 + p) * (1.0 - p) ** 3) * m_pm3,
        -a * p * (-(p**5) + 4.0 * p**4 - p**3 - 8.0 * p**2 + 3.0 * p + 2.0)
        / ((1.0 + p) * (1.0 - p) ** 3 * (2.0 - p)) * m_m1mp,
    )
    return r1, r2, r3


def condition(terms):
    """Condition number sum |term| / |sum| of a rewrite's terms."""
    return sum(abs(term) for term in terms) / abs(sum(terms))


def rounding_bound(terms):
    """What rounding in a rewrite's sum can cost, relative to Upsilon:
    1e-11 + 100 cond eps (ROADMAP item 3)."""
    return 1e-11 + 100.0 * condition(terms) * EPS
