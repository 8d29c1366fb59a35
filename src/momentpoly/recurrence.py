"""Monic coefficient tables driven by three-term recurrence coefficients.

Given a_k^2 (k >= 1) and b_k, the monic orthogonal polynomials satisfy

    ptilde_{n+1}(x) = (x - b_n) * ptilde_n(x) - a_n^2 * ptilde_{n-1}(x)

and this module builds, by recursion, the table ``eta`` of their monomial
coefficients, the inverse table ``tau`` expanding x^n back in the monic
polynomials, the four auxiliary tables that solve the pure-a^2 / pure-b parts
of those recursions in closed form, and the moment sequence of the underlying
measure, which is the first column of ``tau``.  The recursion tables are the
ground truth; the printed closed forms near the diagonal are evaluated
verbatim and reported against them.

Every recursion table comes from one banded fill.  In rational mode it steps
integer numerators: row m is held as D^m times its entries, D the lcm of the
coefficient denominators, and each entry is reduced to a ``Fraction`` once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cholesky import TriangularTable
from .scalars import FLOAT, RATIONAL, as_scalar, check_mode, one, scalar_sqrt, to_float, zero


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Coefficient sequences of the orthonormal three-term recurrence.

    ``a2[k]`` holds a_k^2 with the a_0 = 0 convention in slot 0 (squares are
    stored so that rational mode stays radical-free); ``b[k]`` holds b_k.
    """

    a2: tuple
    b: tuple
    mode: str
    label: str = ""

    def __post_init__(self):
        check_mode(self.mode)
        if len(self.a2) < 1 or self.a2[0] != 0:
            raise ValueError("a2 must start with the a_0 = 0 slot")
        if any(v <= 0 for v in self.a2[1:]):
            raise ValueError("a_k^2 must be positive for k >= 1")

    def a(self, k: int):
        """a_k in backend scalars (a square root in rational mode)."""
        return scalar_sqrt(self.a2[k], self.mode)

    @property
    def b0(self):
        return self.b[0]

    def to_floats(self) -> "RecurrenceCoefficients":
        if self.mode == FLOAT:
            return self
        return RecurrenceCoefficients(
            tuple(to_float(v) for v in self.a2),
            tuple(to_float(v) for v in self.b),
            FLOAT,
            self.label,
        )


def recurrence_from_dict(data: dict, mode: str = RATIONAL, label: str = "") -> RecurrenceCoefficients:
    """Parse the {"a2": [...], "b": [...]} file schema."""
    if not isinstance(data, dict) or "a2" not in data or "b" not in data:
        raise ValueError("recurrence file must be an object with 'a2' and 'b' lists")
    a2 = tuple(as_scalar(v, mode) for v in data["a2"])
    b = tuple(as_scalar(v, mode) for v in data["b"])
    if not a2 or a2[0] != 0:
        # accept files that omit the a_0 = 0 slot
        a2 = (zero(mode),) + a2
    return RecurrenceCoefficients(a2, b, mode, label=str(data.get("label", label)))


def recurrence_to_dict(rec: RecurrenceCoefficients) -> dict:
    from .scalars import format_scalar

    return {
        "a2": [format_scalar(v) for v in rec.a2],
        "b": [format_scalar(v) for v in rec.b],
    }


def _require(rec: RecurrenceCoefficients, a2_top: int, b_top: int) -> None:
    if a2_top >= len(rec.a2):
        raise ValueError(
            f"recurrence {rec.label!r} provides a_k^2 up to k = {len(rec.a2) - 1}, "
            f"need k = {a2_top}"
        )
    if b_top >= len(rec.b):
        raise ValueError(
            f"recurrence {rec.label!r} provides b_k up to k = {len(rec.b) - 1}, "
            f"need k = {b_top}"
        )


def _check_order(rec: RecurrenceCoefficients, n: int) -> None:
    """Reject a negative order, and coefficients too short for rows 0..n."""
    if n < 0:
        raise ValueError(f"table order must be non-negative, got {n}")
    if n > 0:
        _require(rec, n - 1, n - 1)


def _banded_fill(rec: RecurrenceCoefficients, n: int, role: str, *, expand: bool,
                 b: bool, a2: bool) -> TriangularTable:
    """Rows 0..n of the banded recursion that every table here shares.

    Row m+1 is row m shifted one column right, plus a b term if ``b`` and an
    a^2 term if ``a2``.  In the monic direction (``expand`` false: eta, xi)
    the terms are ``- b_m * row_m[j]`` and ``- a_m^2 * row_{m-1}[j]``; in the
    expansion direction (``expand`` true: tau, zeta) they are
    ``+ b_j * row_m[j]`` and ``+ a_{j+1}^2 * row_m[j+1]``.  Zero source
    entries are skipped, so a coefficient is read only where a nonzero entry
    forces its index into 0..n-1.

    The loop runs on integer numerators over a common denominator.  D is the
    lcm of the denominators of the coefficients read (b_0..b_{n-1} if ``b``,
    a_1^2..a_{n-1}^2 if ``a2``), B = b*D and A = a^2*D are integers, and row m
    holds N_m = D^m times its entries:

        expansion: N_{m+1}[j] = D*N_m[j-1] + B_j*N_m[j] + A_{j+1}*N_m[j+1]
        monic:     N_{m+1}[j] = D*N_m[j-1] - B_m*N_m[j] - D*A_m*N_{m-1}[j]

    so no step normalizes a fraction; each entry becomes ``Fraction(N, D^m)``
    once, at the end.  Float mode runs the same loop with D = 1.0, where every
    product by D is exact.
    """
    _check_order(rec, n)
    mode = rec.mode
    exact = mode == RATIONAL
    bs, a2s = (rec.b[:n] if b else ()), (rec.a2[:n] if a2 else ())
    if exact:
        d = math.lcm(*(v.denominator for v in (*bs, *a2s)))
        B = [v.numerator * (d // v.denominator) for v in bs]
        A = [v.numerator * (d // v.denominator) for v in a2s]
        z, unit = 0, 1
    else:
        d, B, A = one(mode), bs, a2s
        z, unit = zero(mode), d
    if expand:
        step, a2_shift = operator.add, 2
        b_at, a2_at = (lambda m, j: B[j]), (lambda m, j: A[j + 1])
    else:
        step, a2_shift = operator.sub, 1
        A = [d * v for v in A]
        b_at, a2_at = (lambda m, j: B[m]), (lambda m, j: A[m])
    rows = [[unit]]
    before = [z] * 4  # padded row -1
    for m in range(n):
        above = [z] + rows[m] + [z, z]  # above[j + 1] = row_m[j]
        a2_src = above if expand else before
        row = []
        for j in range(m + 2):
            v = d * above[j]
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
    if exact:
        scale, nil = 1, zero(mode)
        for m, row in enumerate(rows):
            rows[m] = [Fraction(v, scale) if v else nil for v in row]
            scale *= d
    return TriangularTable(role=role, mode=mode, rows=rows)


def eta_table(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Monomial coefficients of the monic polynomials; row k is ptilde_k.

    Rows extend by ``eta[n+1][j] = eta[n][j-1] - b_n*eta[n][j] - a_n^2*eta[n-1][j]``
    from eta[0][0] = 1, so every diagonal entry is 1.
    """
    return _banded_fill(rec, n, "Eta", expand=False, b=True, a2=True)


def tau_table(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Expansion of x^n in the monic polynomials; inverse table of ``eta``.

    Rows extend by ``tau[n+1][j] = tau[n][j-1] + b_j*tau[n][j] + a_{j+1}^2*tau[n][j+1]``.
    """
    return _banded_fill(rec, n, "Tau", expand=True, b=True, a2=True)


# -- auxiliary tables: recursion fills and closed forms ---------------------


def _aux_recursions(rec: RecurrenceCoefficients, n: int) -> tuple:
    """xi1, xi2, zeta1, zeta2 by recursion: the pure-a^2 and pure-b parts of
    the eta and tau recursions."""
    return (
        _banded_fill(rec, n, "XiZeta", expand=False, b=False, a2=True),
        _banded_fill(rec, n, "XiZeta", expand=False, b=True, a2=False),
        _banded_fill(rec, n, "XiZeta", expand=True, b=False, a2=True),
        _banded_fill(rec, n, "XiZeta", expand=True, b=True, a2=False),
    )


def _even_gap_fill(mode: str, n: int, value) -> TriangularTable:
    """Zero at odd row - col, one on the diagonal, ``value(row, col, k)`` at
    row - col = 2k > 0."""
    rows = []
    for row in range(n + 1):
        out = []
        for col in range(row + 1):
            k, odd = divmod(row - col, 2)
            out.append(zero(mode) if odd else one(mode) if k == 0 else value(row, col, k))
        rows.append(out)
    return TriangularTable(role="XiZeta", mode=mode, rows=rows)


def _xi1_closed(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Gap-constrained products of a^2: entry (row, row - 2k) is (-1)^k times
    the sum over 1 <= j_1 < ... < j_k <= row-1 with j_{m+1} - j_m >= 2 of
    prod a_{j_m}^2; zero for odd row - col.

    Evaluated by the nested-sum form: with r factors left after the current
    one, the index runs lo..row-2r-1 and the next starts at index + 2.  That
    depends on the row and (r, lo) but not on k, so every k of a row shares
    the memo entries of that row.
    """
    mode = rec.mode
    memo: dict = {}

    def nested(row: int, r: int, lo: int):
        if r < 0:
            return one(mode)
        key = (row, r, lo)
        if key not in memo:
            total = zero(mode)
            for j in range(lo, row - 2 * r):
                total = total + rec.a2[j] * nested(row, r - 1, j + 2)
            memo[key] = total
        return memo[key]

    def signed(row, col, k):
        value = nested(row, k - 1, 1)
        return -value if k % 2 == 1 else value

    return _even_gap_fill(mode, n, signed)


def _xi2_closed(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Signed elementary symmetric sums: entry (row, col) is
    (-1)^j e_j(b_0..b_{row-1}), j = row - col.

    One running e vector serves every row: row r reads e_j(b_0..b_{r-1}),
    then one pass of the e_j recurrence folds in b_r for the next row.
    """
    mode = rec.mode
    e = [one(mode)] + [zero(mode)] * n
    rows = []
    for row in range(n + 1):
        rows.append([-e[row - col] if (row - col) % 2 == 1 else e[row - col]
                     for col in range(row + 1)])
        if row < n:
            x = rec.b[row]
            for t in range(row + 1, 0, -1):
                e[t] = e[t] + e[t - 1] * x
    return TriangularTable(role="XiZeta", mode=mode, rows=rows)


def _zeta1_closed(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Nested a^2 sums: entry (col + 2k, col) is sum_{j_1=1}^{col+1} a_{j_1}^2
    sum_{j_2=1}^{j_1+1} a_{j_2}^2 ... over k factors; zero for odd row - col.

    With r factors left after the current one, a level sums j = 1..hi and
    hands hi = j + 1 down; that depends on (r, hi) only, so one memo serves
    the whole table.
    """
    mode = rec.mode
    memo: dict = {}

    def nested(r: int, hi: int):
        if r < 0:
            return one(mode)
        key = (r, hi)
        if key not in memo:
            total = zero(mode)
            for j in range(1, hi + 1):
                total = total + rec.a2[j] * nested(r - 1, j + 1)
            memo[key] = total
        return memo[key]

    return _even_gap_fill(mode, n, lambda row, col, k: nested(k - 1, col + 1))


def _zeta2_closed(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Monotone multi-indexed b products: entry (col + j, col) is the complete
    homogeneous symmetric sum h_j(b_0..b_col).

    One running h vector serves every column: column c folds b_c into
    h_1..h_{n-c}, the entries that it and the later columns read, and b_n is
    never read.
    """
    mode = rec.mode
    rows = [[None] * (row + 1) for row in range(n + 1)]
    h = [one(mode)] + [zero(mode)] * n
    for col in range(n + 1):
        top = n - col
        if top:
            x = rec.b[col]
            for t in range(1, top + 1):
                h[t] = h[t] + h[t - 1] * x
        for j in range(top + 1):
            rows[col + j][col] = h[j]
    return TriangularTable(role="XiZeta", mode=mode, rows=rows)


@dataclass
class AuxTables:
    """Recursion fills of the four auxiliary tables plus their closed-form fills."""

    xi1: TriangularTable
    xi2: TriangularTable
    zeta1: TriangularTable
    zeta2: TriangularTable
    xi1_closed: TriangularTable
    xi2_closed: TriangularTable
    zeta1_closed: TriangularTable
    zeta2_closed: TriangularTable

    def pairs(self):
        return (
            ("xi1", self.xi1, self.xi1_closed),
            ("xi2", self.xi2, self.xi2_closed),
            ("zeta1", self.zeta1, self.zeta1_closed),
            ("zeta2", self.zeta2, self.zeta2_closed),
        )

    def first_mismatch(self, tol: float = 0.0):
        """First (table, row, col, recursion, closed) disagreement, or None."""
        for name, rec_t, closed_t in self.pairs():
            for i in range(rec_t.order + 1):
                for j in range(i + 1):
                    a, b = rec_t.rows[i][j], closed_t.rows[i][j]
                    if tol == 0.0:
                        bad = a != b
                    else:
                        bad = abs(a - b) > tol
                    if bad:
                        return (name, i, j, a, b)
        return None

    def agree(self, tol: float = 0.0) -> bool:
        return self.first_mismatch(tol) is None


def aux_tables(rec: RecurrenceCoefficients, n: int) -> AuxTables:
    """Build the four auxiliary tables twice: by recursion and by closed form.

    The closed fills read only a^2 and b, never the recursion fills they are
    compared against.
    """
    xi1, xi2, zeta1, zeta2 = _aux_recursions(rec, n)
    return AuxTables(
        xi1=xi1,
        xi2=xi2,
        zeta1=zeta1,
        zeta2=zeta2,
        xi1_closed=_xi1_closed(rec, n),
        xi2_closed=_xi2_closed(rec, n),
        zeta1_closed=_zeta1_closed(rec, n),
        zeta2_closed=_zeta2_closed(rec, n),
    )


# -- near-diagonal closed forms, evaluated verbatim and reported ------------


@dataclass
class IdentityCheck:
    name: str
    passed: bool
    checked: int
    first_mismatch: tuple | None = None
    note: str = ""


@dataclass
class PartialSolutionsReport:
    checks: list

    def passed(self, name: str) -> bool:
        return next(c for c in self.checks if c.name == name).passed

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _eta3_printed(rec: RecurrenceCoefficients, x2: TriangularTable, t: int):
    """Printed eta_{t+3,t}: the xi2 term at column 3 exactly as printed, plus
    sum_{j=1}^{t+2} a_j^2 times the sum of b_k over k = 0..t+2 with k not in
    {j - 1, j}, which is e1 - b_{j-1} - b_j with e1 = b_0 + ... + b_{t+2}."""
    e1 = zero(rec.mode)
    for x in rec.b[: t + 3]:
        e1 = e1 + x
    s = zero(rec.mode)
    for j in range(1, t + 3):
        s = s + rec.a2[j] * (e1 - rec.b[j - 1] - rec.b[j])
    return x2.rows[t + 3][3] + s


def _eta4_printed(rec: RecurrenceCoefficients, x1: TriangularTable, x2: TriangularTable,
                  t: int):
    """Printed eta_{t+4,t}: xi1 + xi2, plus sum_{k=1}^{t+3} a_k^2 times the sum
    of b_i*b_j over 0 <= i < j <= t+3 with neither index in {k - 1, k}.  With
    x = b_{k-1}, y = b_k and e1, e2 the elementary symmetric sums of
    b_0..b_{t+3}, that sum is e2 - (x + y)*(e1 - x - y) - x*y."""
    e1 = e2 = zero(rec.mode)
    for v in rec.b[: t + 4]:
        e2 = e2 + e1 * v
        e1 = e1 + v
    s = zero(rec.mode)
    for k in range(1, t + 4):
        x, y = rec.b[k - 1], rec.b[k]
        s = s + rec.a2[k] * (e2 - (x + y) * (e1 - x - y) - x * y)
    return x1.rows[t + 4][t] + x2.rows[t + 4][t] + s


def partial_solutions(rec: RecurrenceCoefficients, n: int) -> PartialSolutionsReport:
    """Evaluate the printed near-diagonal closed forms for eta and tau.

    Each closed form for eta_{t+l,t} / tau_{t+l,t}, l <= 4, is evaluated for
    every base index t with t + l <= n + 4 and compared against the recursion
    tables.  Mismatches are reported, never corrected: two of the printed
    degree-3/4 formulas are known misprints and their FAIL status is the
    documented outcome.  The formulas that cannot be read verbatim as written
    are evaluated under the only type-correct reading, stated in the note.

    The sums over indices other than {j - 1, j} in the printed eta forms are
    taken as the full elementary symmetric sum minus the excluded terms (see
    ``_eta3_printed`` and ``_eta4_printed``), so each base index costs O(t).

    Raises ``ValueError`` on a float-mode recurrence: every check compares
    with ``!=``, so rounding alone would fail identities that hold exactly.
    """
    if rec.mode != RATIONAL:
        raise ValueError("partial_solutions compares exact identities; "
                         "pass a rational-mode recurrence")
    _check_order(rec, n)
    top = n + 4
    eta = eta_table(rec, top)
    tau = tau_table(rec, top)
    x1, x2, z1, z2 = _aux_recursions(rec, top)
    mode = rec.mode

    def run(name, pairs, note=""):
        mism = None
        count = 0
        for idx, expected, got in pairs:
            count += 1
            if expected != got:
                mism = (idx, expected, got)
                break
        return IdentityCheck(name, mism is None, count, mism, note)

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
    def tau3(t):
        s = zero(mode)
        for j in range(1, t + 2):
            s = s + rec.a2[j] * (rec.b[j - 1] + rec.b[j])
        return z2.rows[t + 3][t] + z1.rows[t + 2][t] * z2.rows[t + 1][t] + s

    checks.append(
        run(
            "tau_offdiag3_printed",
            ((t, tau.rows[t + 3][t], tau3(t)) for t in range(top - 2)),
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
            ((t, eta.rows[t + 4][t], _eta4_printed(rec, x1, x2, t))
             for t in range(top - 3)),
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

    return PartialSolutionsReport(checks=checks)


# -- moments from the recurrence --------------------------------------------


def _padded(rec: RecurrenceCoefficients, count: int) -> RecurrenceCoefficients:
    """Extend with neutral coefficients (a^2 = 1, b = 0) beyond the prefix
    that the first ``count`` moments actually depend on.

    m_j is a function of a_1^2..a_{floor(j/2)}^2 and b_0..b_{floor((j-1)/2)}
    only, and any positive-a^2 extension defines a measure with the same
    leading moments, so the padding never affects the output.
    """
    jmax = count - 1
    need_a2 = jmax // 2
    need_b = max((jmax - 1) // 2, 0) if jmax >= 1 else -1
    if len(rec.a2) <= need_a2:
        raise ValueError(
            f"{count} moments need a_k^2 up to k = {need_a2}; "
            f"recurrence stops at k = {len(rec.a2) - 1}"
        )
    if jmax >= 1 and len(rec.b) <= need_b:
        raise ValueError(
            f"{count} moments need b_k up to k = {need_b}; "
            f"recurrence stops at k = {len(rec.b) - 1}"
        )
    rows_needed = max(count - 1, 1)
    one_ = one(rec.mode)
    a2 = list(rec.a2) + [one_] * (rows_needed - len(rec.a2) + 1)
    b = list(rec.b) + [zero(rec.mode)] * (rows_needed - len(rec.b) + 1)
    return RecurrenceCoefficients(tuple(a2), tuple(b), rec.mode, rec.label)


def moments_from_recurrence(rec: RecurrenceCoefficients, count: int, label: str = ""):
    """Moments m_0..m_{count-1} of the measure with the given recurrence.

    m_j = tau[j][0]: integrating x^j = sum_k tau[j][k] * ptilde_k against the
    measure (normalized to m_0 = 1) leaves only the k = 0 term, because every
    monic polynomial of degree k >= 1 integrates to zero.  The first column of
    ``tau`` is a sum of nonnegative terms when b = 0, so float mode loses no
    accuracy to cancellation there.
    """
    from .moments import MomentSequence

    if count < 1:
        raise ValueError("count must be at least 1")
    tau = tau_table(_padded(rec, count), count - 1)
    return MomentSequence(tuple(row[0] for row in tau.rows), rec.mode, label or rec.label)
