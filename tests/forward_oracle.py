"""The forward layer's fills in their direct form, as oracles.

``banded_fill`` steps the shared banded recursion of
``momentpoly.recurrence`` in backend scalars, one normalized ``Fraction``
operation per term; the library runs it on integer numerators over a common
denominator.  ``_eta3_printed`` and ``_eta4_printed`` evaluate the printed
degree-3/4 closed forms for eta with their excluded-index sums written out as
loops.  The tests require the library to equal these with ``==`` (and ``str``)
in rational mode, and with ``repr`` in float mode where the arithmetic is the
same.
"""

import operator

from momentpoly.cholesky import TriangularTable
from momentpoly.scalars import one, zero


def banded_fill(rec, n, role, *, expand, b, a2):
    """Rows 0..n of the banded recursion, one backend operation per term."""
    mode = rec.mode
    z = zero(mode)
    if expand:
        step, a2_shift = operator.add, 2
        b_at, a2_at = (lambda m, j: rec.b[j]), (lambda m, j: rec.a2[j + 1])
    else:
        step, a2_shift = operator.sub, 1
        b_at, a2_at = (lambda m, j: rec.b[m]), (lambda m, j: rec.a2[m])
    rows = [[one(mode)]]
    before = [z] * 4  # padded row -1
    for m in range(n):
        above = [z] + rows[m] + [z, z]  # above[j + 1] = row_m[j]
        a2_src = above if expand else before
        row = []
        for j in range(m + 2):
            v = above[j]
            if b:
                t = above[j + 1]
                if t:
                    v = step(v, b_at(m, j) * t)
            if a2:
                t = a2_src[j + a2_shift]
                if t:
                    v = step(v, a2_at(m, j) * t)
            row.append(v)
        rows.append(row)
        before = above
    return TriangularTable(role=role, mode=mode, rows=rows)


def _eta3_printed(rec, x2, t):
    """Printed eta_{t+3,t}: xi2 at column 3, plus sum_j a_j^2 times the sum of
    b_k over k = 0..t+2 with k not in {j - 1, j}."""
    s = zero(rec.mode)
    for j in range(1, t + 3):
        inner = zero(rec.mode)
        for k in range(0, t + 3):
            if k != j and k != j - 1:
                inner = inner + rec.b[k]
        s = s + rec.a2[j] * inner
    return x2.rows[t + 3][3] + s


def _eta4_printed(rec, x1, x2, t):
    """Printed eta_{t+4,t}: xi1 + xi2, plus sum_k a_k^2 times the sum of b_i*b_j
    over 0 <= i < j <= t+3 with neither index in {k - 1, k}."""
    s = zero(rec.mode)
    for k in range(1, t + 4):
        inner = zero(rec.mode)
        for i in range(0, t + 4):
            if i in (k, k - 1):
                continue
            for j in range(i + 1, t + 4):
                if j in (k, k - 1):
                    continue
                inner = inner + rec.b[i] * rec.b[j]
        s = s + rec.a2[k] * inner
    return x1.rows[t + 4][t] + x2.rows[t + 4][t] + s
