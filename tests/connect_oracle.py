"""The connection layer's earlier rational routes, kept as oracles.

The library reads connection tables, the ribbon matrix and the
Radon-Nikodym coefficients off the two recurrences, on integer numerators
of the banded fill.  These routines take them the long way, from the surd
tables ``Pi`` and ``L`` of the systems and from moment sums, as the library
once did, so the tests can require ``repr`` and ``str`` equality of every
value and ``float.hex`` equality of every float derived from one.
"""

from momentpoly.cholesky import TriangularTable, tri_multiply
from momentpoly.connect import RibbonReport
from momentpoly.polysys import moment_inner_product
from momentpoly.recurrence import eta_table, tau_table
from momentpoly.scalars import one


def connection_by_tables(target, source, n, basis="orthonormal"):
    """Rows of Pi(target) * Lambda(source), or of eta(target) * tau(source)."""
    if basis == "orthonormal":
        left = TriangularTable("Pi", target.mode, target.Pi.rows[: n + 1])
        right = TriangularTable("L", source.mode, source.L.rows[: n + 1])
    else:
        left, right = eta_table(target.rec, n), tau_table(source.rec, n)
    return tri_multiply(left, right, role=left.role).rows


def ribbon_by_moments(alpha_sys, delta_moments, r, n):
    """Ribbon report from <p_i, p_j> summed over delta's moments and alpha's Pi."""
    pi = alpha_sys.Pi.rows
    worst, witness, exact_ok = 0.0, None, True
    for i in range(n + 1):
        for j in range(i - r):
            v = moment_inner_product(delta_moments, pi[i], pi[j])
            exact_ok = exact_ok and v == 0
            mag = abs(float(v))
            if mag > worst:
                worst, witness = mag, (i, j, v)
    return RibbonReport(is_ribbon=exact_ok, ribbon_width=r, order=n,
                        max_off_ribbon=worst, witness=witness)


def rn_by_moments(alpha_moments, delta_sys, n):
    """omega_j = sum_k Pi(delta)[j][k] * m_k(alpha), j = 0..n."""
    unit = (one(delta_sys.mode),)
    return [moment_inner_product(alpha_moments, unit, row) for row in delta_sys.Pi.rows[: n + 1]]
