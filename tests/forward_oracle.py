"""The forward layer's fills in their direct form, as oracles.

``banded_fill`` steps the shared banded recursion of
``momentpoly.recurrence`` in backend scalars, one normalized ``Fraction``
operation per term; the library runs it on integer numerators over a common
denominator.  ``_eta3_printed`` and ``_eta4_printed`` evaluate the printed
degree-3/4 closed forms for eta with their excluded-index sums written out as
loops, and ``_tau3_a2_sum`` the a^2 sum of the printed tau form.
``partial_solutions`` builds the near-diagonal report from the six recursion
tables of ``banded_fill``, in full, and from those loops: it calls no fill,
prefix sum or printed form of the library.  The tests require the library to
equal these with ``==`` (and ``str``) in rational mode, and with ``repr`` in
float mode where the arithmetic is the same.
"""

import operator

import momentpoly.recurrence as rm
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


def _tau3_a2_sum(rec, t):
    """The a^2 sum of printed tau_{t+3,t}: sum_{j=1}^{t+1} a_j^2*(b_{j-1} + b_j)."""
    s = zero(rec.mode)
    for j in range(1, t + 2):
        s = s + rec.a2[j] * (rec.b[j - 1] + rec.b[j])
    return s


def partial_solutions(rec, n):
    """The near-diagonal report of ``momentpoly.recurrence.partial_solutions``
    with eta, tau and the four aux recursions stepped in full by
    :func:`banded_fill`, and the printed forms by the loops above; the library
    fills only the band and the columns it compares, and reads integer prefix
    sums."""
    if rec.mode != rm.RATIONAL:
        raise ValueError("partial_solutions compares exact identities; "
                         "pass a rational-mode recurrence")
    top = n + 4
    eta, tau, x1, x2, z1, z2 = (
        banded_fill(rec, top, "XiZeta", expand=expand, b=b, a2=a2)
        for expand, b, a2 in ((False, True, True), (True, True, True), (False, False, True),
                              (False, True, False), (True, False, True), (True, True, False)))
    mode = rec.mode

    def run(name, pairs, note=""):
        mism = None
        count = 0
        for idx, expected, got in pairs:
            count += 1
            if expected != got:
                mism = (idx, expected, got)
                break
        return rm.IdentityCheck(name, mism is None, count, mism, note)

    checks = []

    # l = 1: eta_{t+1,t} = xi2_{t+1,t} = -tau_{t+1,t}
    checks.append(
        run(
            "eta_offdiag1",
            ((t, eta.rows[t + 1][t], x2.rows[t + 1][t]) for t in range(top)),
        )
    )
    checks.append(
        run(
            "tau_offdiag1",
            ((t, tau.rows[t + 1][t], -x2.rows[t + 1][t]) for t in range(top)),
        )
    )

    # l = 2: eta = xi1 + xi2, tau = zeta1 + zeta2
    checks.append(
        run(
            "eta_offdiag2",
            (
                (t, eta.rows[t + 2][t], x1.rows[t + 2][t] + x2.rows[t + 2][t])
                for t in range(top - 1)
            ),
        )
    )
    checks.append(
        run(
            "tau_offdiag2",
            (
                (t, tau.rows[t + 2][t], z1.rows[t + 2][t] + z2.rows[t + 2][t])
                for t in range(top - 1)
            ),
        )
    )

    # l = 3 printed forms
    tau3 = (z2.rows[t + 3][t] + z1.rows[t + 2][t] * z2.rows[t + 1][t] + _tau3_a2_sum(rec, t)
            for t in range(top - 2))

    checks.append(
        run(
            "tau_offdiag3_printed",
            ((t, tau.rows[t + 3][t], v) for t, v in enumerate(tau3)),
        )
    )

    checks.append(
        run(
            "eta_offdiag3_printed",
            ((t, eta.rows[t + 3][t], _eta3_printed(rec, x2, t)) for t in range(top - 2)),
            note="xi2 term evaluated at column 3 exactly as printed",
        )
    )

    # l = 4 printed forms
    checks.append(
        run(
            "eta_offdiag4_printed",
            ((t, eta.rows[t + 4][t], _eta4_printed(rec, x1, x2, t)) for t in range(top - 3)),
            note="the a^2 factor inside the outer sum is read as a_k^2",
        )
    )

    def tau4(t):
        return (
            -eta.rows[t + 4][t]
            - eta.rows[t + 4][t + 1] * tau.rows[t + 1][t]
            - eta.rows[t + 4][t + 2] * tau.rows[t + 2][t]
            - eta.rows[t + 4][t + 3] * tau.rows[t + 3][t]
        )

    checks.append(
        run(
            "tau_offdiag4_printed",
            ((t, tau.rows[t + 4][t], tau4(t)) for t in range(top - 3)),
        )
    )

    if all(v == 0 for v in rec.b):
        # pure-a^2 case: first column alternates signed odd-index products and
        # the whole near-diagonal band reduces to the xi1/zeta1 tables
        def col0(t):
            if t % 2 == 1:
                return zero(mode)
            k = t // 2
            out = one(mode)
            for j in range(1, k + 1):
                out = out * rec.a2[2 * j - 1]
            return -out if k % 2 == 1 else out

        checks.append(
            run(
                "eta_column0_symmetric",
                ((t, eta.rows[t][0], col0(t)) for t in range(1, top + 1)),
            )
        )
        checks.append(
            run(
                "eta_band_symmetric",
                (
                    ((t, l), eta.rows[t + l][t], x1.rows[t + l][t])
                    for l in range(5)
                    for t in range(top + 1 - l)
                ),
            )
        )
        checks.append(
            run(
                "tau_band_symmetric",
                (
                    ((t, l), tau.rows[t + l][t], z1.rows[t + l][t])
                    for l in range(5)
                    for t in range(top + 1 - l)
                ),
            )
        )

    return rm.PartialSolutionsReport(checks=checks)
