"""Cholesky factorization of moment matrices and triangular-matrix utilities.

The factorization runs the classical row-by-row recursion

    l[n][n]   = sqrt(m_{2n} - sum_j l[n][j]^2)
    l[i][k]   = (m_{i+k} - sum_{j<k} l[i][j] * l[k][j]) / l[k][k]

directly on the backend scalars.  The library runs it in float mode only:
a rational Hankel matrix reads its ``L`` off its own Chebyshev pass
(``HankelMoments.factor``).  On rational input the recursion still
gives exact surd entries, which the tests use as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import RATIONAL, check_mode, one, scalar_sqrt, sum_scalars, zero

#: relative pivot floor in float mode; below this the matrix is treated as
#: numerically rank deficient rather than merely ill conditioned
FLOAT_PIVOT_RELATIVE = 1e-12

ROLES = ("L", "Pi", "Lambda", "Eta", "Tau", "XiZeta")


class NotPositiveDefinite(ArithmeticError):
    """Moment matrix failed positive definiteness at a given order."""

    def __init__(self, order: int, pivot=None):
        self.order = order
        self.pivot = pivot
        msg = f"moment matrix is not positive definite at order {order}"
        if pivot is not None:
            msg += f" (pivot {pivot})"
        super().__init__(msg)


def check_pivot(order: int, pivot, m_2k, mode: str) -> None:
    """Raise :class:`NotPositiveDefinite` unless the order-k pivot passes.

    The pivot d_k = Delta_k / Delta_{k-1} must exceed 0 in rational mode and
    ``FLOAT_PIVOT_RELATIVE * m_2k`` in float mode.  A rational pivot's sign
    is its numerator's, read without ``Fraction.__le__``.  The float test is
    ``<=``, so a NaN pivot passes; NaN moments are not refused at the
    boundary yet.
    """
    if pivot.numerator <= 0 if mode == RATIONAL else pivot <= FLOAT_PIVOT_RELATIVE * m_2k:
        raise NotPositiveDefinite(order, pivot)


@dataclass
class TriangularTable:
    """Lower-triangular coefficient table; ``rows[i]`` holds entries (i, 0..i)."""

    role: str
    mode: str
    rows: list

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown table role {self.role!r}")
        check_mode(self.mode)

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def entry(self, i: int, j: int):
        if j > i:
            return zero(self.mode)
        return self.rows[i][j]

    def diagonal(self) -> list:
        return [self.rows[i][i] for i in range(len(self.rows))]

    def dense(self) -> list:
        """Square list-of-lists with explicit zeros above the diagonal."""
        n = self.order
        return [[self.entry(i, j) for j in range(n + 1)] for i in range(n + 1)]

    def to_floats(self) -> list:
        return [list(map(float, row)) for row in self.rows]


def tri_multiply(a: TriangularTable, b: TriangularTable, role: str = "L") -> TriangularTable:
    """Product of two lower-triangular tables (again lower triangular)."""
    if a.order != b.order:
        raise ValueError("triangular tables must have equal order")
    n = a.order
    rows = []
    for i in range(n + 1):
        rows.append(
            [
                sum_scalars((a.rows[i][k] * b.rows[k][j] for k in range(j, i + 1)), a.mode)
                for j in range(i + 1)
            ]
        )
    return TriangularTable(role=role, mode=a.mode, rows=rows)


def identity_table(n: int, mode: str, role: str = "L") -> TriangularTable:
    rows = []
    for i in range(n + 1):
        row = [zero(mode)] * (i + 1)
        row[i] = one(mode)
        rows.append(row)
    return TriangularTable(role=role, mode=mode, rows=rows)


def cholesky_decompose(hankel) -> TriangularTable:
    """Lower-triangular L with L*L^T equal to the moment matrix.

    ``hankel`` needs ``order``, ``mode`` and ``moment(k)`` giving the entry
    value m_{i+j}; the first pivot is m_0 = 1, so l[0][0] = 1.  Raises
    :class:`NotPositiveDefinite` at the first pivot that :func:`check_pivot`
    refuses.
    """
    n = hankel.order
    mode = hankel.mode
    rows: list = []
    for i in range(n + 1):
        row = []
        for k in range(i):
            s = hankel.moment(i + k)
            for j in range(k):
                s = s - row[j] * rows[k][j]
            row.append(s / rows[k][k])
        pivot = hankel.moment(2 * i)
        for j in range(i):
            s2 = row[j] * row[j]
            pivot = pivot - s2
        check_pivot(i, pivot, hankel.moment(2 * i), mode)
        row.append(scalar_sqrt(pivot, mode))
        rows.append(row)
    return TriangularTable(role="L", mode=mode, rows=rows)


def invert_lower_triangular(table: TriangularTable, role: str = "Pi") -> TriangularTable:
    """Forward-substitution inverse of a lower-triangular table."""
    n = table.order
    mode = table.mode
    for i in range(n + 1):
        if not table.rows[i][i]:
            raise ZeroDivisionError(f"zero diagonal entry at index {i}")
    inv: list = []
    for i in range(n + 1):
        row = []
        for j in range(i):
            # subtracted from zero, not -sum_scalars(...): the two differ in
            # the sign of a float zero
            s = zero(mode)
            for k in range(j, i):
                s = s - table.rows[i][k] * inv[k][j]
            row.append(s / table.rows[i][i])
        row.append(one(mode) / table.rows[i][i])
        inv.append(row)
    return TriangularTable(role=role, mode=mode, rows=inv)
