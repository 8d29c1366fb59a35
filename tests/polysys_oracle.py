"""Second derivations of the recurrence, the reproducing kernel and the
quantities the library reads through the moment functional.

The library reads a_k^2 and b_k from the Chebyshev algorithm (rational mode)
or from ratios of Pi entries (float mode), and evaluates the kernel from the
rows of Pi.  These routines take the recurrence from determinant ratios and
L entries, and the kernel from the inverse moment matrix against monomial
vectors, so the tests can require both routes to agree with ``==``.

The last four are the library's earlier loops, kept as oracles: the ribbon
matrix and the associated polynomials as explicit sums over Hankel entries,
``recurrence_from_moments`` as a full system build plus two monic inner
products for the final b_n, and the Chebyshev algorithm stepping every entry
of every row as a scalar.  The library's versions must reproduce them bit
for bit in float mode and ``str`` for ``str`` in rational mode.
"""

import dataclasses

from momentpoly.connect import RibbonReport
from momentpoly.moments import hankel_matrix
from momentpoly.polysys import build_system, inverse_moment_matrix
from momentpoly.recurrence import RecurrenceCoefficients, eta_table
from momentpoly.cholesky import check_pivot
from momentpoly.scalars import RATIONAL, one, zero


def recurrence_delta_form(sys_):
    """(a2, b) from determinant ratios and L entries."""
    deltas = sys_.deltas
    L = sys_.L.rows
    n = sys_.order
    mode = sys_.mode

    def delta(k):
        return deltas[k] if k >= 0 else one(mode)

    a2 = [zero(mode)]
    for k in range(1, n + 1):
        a2.append(delta(k) * delta(k - 2) / (delta(k - 1) * delta(k - 1)))
    b = []
    for k in range(n):
        first = (delta(k - 1) / delta(k)) * L[k + 1][k] * L[k][k]
        if k >= 1:
            second = (delta(k - 2) / delta(k - 1)) * L[k][k - 1] * L[k - 1][k - 1]
        else:
            second = zero(mode)
        b.append(first - second)
    return tuple(a2), tuple(b)


def kernel_inverse_form(sys_, x, y):
    """X^T M^{-1} Y evaluated against the monomial vectors."""
    mu = inverse_moment_matrix(sys_)
    n = sys_.order
    xs = _powers(x, n, sys_.mode)
    ys = xs if y == x else _powers(y, n, sys_.mode)
    total = zero(sys_.mode)
    for i in range(n + 1):
        for j in range(n + 1):
            total = total + xs[i] * mu[i][j] * ys[j]
    return total


def _powers(x, n, mode):
    out = [one(mode)]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


def as_text(obj):
    """repr of each float and str of each exact scalar, through lists, tuples
    and dataclasses: equal texts mean equal float bits, and exact values that
    are equal and written alike."""
    if dataclasses.is_dataclass(obj):
        return [as_text(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [as_text(v) for v in obj]
    return repr(obj) if isinstance(obj, float) else str(obj)


def ribbon_loop(alpha_sys, delta_moments, r, n, tol=1e-10):
    """Ribbon test as the quadruple sum pi[i][k] * m_{k+l} * pi[j][l]."""
    hank = hankel_matrix(delta_moments, n)
    pi = alpha_sys.Pi.rows
    mode = alpha_sys.mode
    worst = 0.0
    witness = None
    exact_ok = True
    for i in range(n + 1):
        for j in range(i + 1):
            if i - j <= r:
                continue
            v = zero(mode)
            for kk in range(i + 1):
                if not pi[i][kk]:
                    continue
                for ll in range(j + 1):
                    if not pi[j][ll]:
                        continue
                    v = v + pi[i][kk] * hank.entry(kk, ll) * pi[j][ll]
            mag = abs(float(v))
            if mode == RATIONAL:
                if v != 0:
                    exact_ok = False
            elif mag > tol:
                exact_ok = False
            if mag > worst:
                worst = mag
                witness = (i, j, v)
    return RibbonReport(is_ribbon=exact_ok, ribbon_width=r, order=n,
                        max_off_ribbon=worst, witness=witness)


def associated_loop(sys_):
    """Rows q_n[k] = sum_{j>k} pi[n][j] * m_{j-1-k}, one term at a time."""
    pi = sys_.Pi.rows
    m = sys_.moments
    rows = [[]]
    for n in range(1, sys_.order + 1):
        row = []
        for k in range(n):
            s = zero(sys_.mode)
            for j in range(k + 1, n + 1):
                s = s + pi[n][j] * m.m(j - 1 - k)
            row.append(s)
        rows.append(row)
    return rows


def _functional(m, c1, c2):
    total = zero(m.mode)
    for i, a in enumerate(c1):
        for j, b in enumerate(c2):
            if a and b:
                total = total + a * b * m.m(i + j)
    return total


def recurrence_via_system(m):
    """Recurrence of the order-n system, plus b_n = <x ptilde_n, ptilde_n> /
    <ptilde_n, ptilde_n> when the top moment m_{2n+1} is odd."""
    n = m.max_matrix_order()
    rec = build_system(m, n).rec
    if m.top_order == 2 * n + 1:
        row = eta_table(rec, n).rows[n]
        b_n = _functional(m, row, [zero(m.mode)] + row) / _functional(m, row, row)
        rec = RecurrenceCoefficients(rec.a2, rec.b + (b_n,), rec.mode, rec.label)
    return rec


def chebyshev_fraction_oracle(m, top):
    """(recurrence, norms, columns) of the Chebyshev algorithm with every
    s_k[l] a scalar of the mode: a Fraction in rational mode, so each step
    normalizes.  ``columns[k]`` is s_k[k..n], n = top // 2."""
    z = zero(m.mode)
    n = top // 2
    prev, cur = [z] * (top + 1), list(m.moments[: top + 1])
    a2, b, norms, columns = [z], [], [], []
    for k in range(n + 1):
        d = cur[k]
        check_pivot(k, d, m.m(2 * k), m.mode)
        norms.append(d)
        columns.append(cur[k:n + 1])
        if k:
            a2.append(d / norms[k - 1])
        if 2 * k == top:
            break
        b.append(cur[k + 1] / d - (prev[k] / norms[k - 1] if k else z))
        nxt = [z] * (top + 1)
        for l in range(k + 1, top - k):  # s_{k+1}[l], zero terms skipped
            v = cur[l + 1]
            if b[k] and cur[l]:
                v = v - b[k] * cur[l]
            if k and prev[l]:
                v = v - a2[k] * prev[l]
            nxt[l] = v
        prev, cur = cur, nxt
    return RecurrenceCoefficients(tuple(a2), tuple(b), m.mode, label=m.label), norms, columns
