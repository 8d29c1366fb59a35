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
coefficient denominators.  The fill hands the numerators on, and each consumer
reduces to ``Fraction(N, D^m)`` only the entries it reads: the printed tables
every entry, the moments column 0, the near-diagonal report the band it
compares, a linearization one row, the ribbon test and the Radon-Nikodym
expansion weighted sums of rows, and ``Pi`` and ``L`` scale the numerators
when first read.  Float mode runs the same fill with D = 1.0.

The four closed-form fills and the near-diagonal report check exact
identities with ``==``, so they are rational only: a closed-form entry with k
coefficient factors is summed as an integer over D^k and reduced once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cholesky import TriangularTable
from .scalars import FLOAT, RATIONAL, Surd, as_scalars, check_mode, one, scalar_sqrt, to_float, zero


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
    need = "recurrence file must be an object with 'a2' and 'b' lists"
    if not isinstance(data, dict):
        raise ValueError(need)
    a2, b = (as_scalars(data.get(k), mode, need) for k in ("a2", "b"))
    if not a2 or a2[0] != 0:
        # accept files that omit the a_0 = 0 slot
        a2 = (zero(mode),) + a2
    return RecurrenceCoefficients(a2, b, mode, label=str(data.get("label", label)))


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


def _require_exact(mode: str, what: str) -> None:
    """Refuse float mode where ``what`` compares exact identities: rounding
    alone would fail identities that hold exactly."""
    if mode != RATIONAL:
        raise ValueError(f"{what} compares exact identities; pass a rational-mode recurrence")


_ZERO, _ONE = Fraction(0), Fraction(1)


def _common_scale(mode: str, *seqs) -> tuple:
    """(D, seqs scaled by D): in rational mode D is the lcm of the
    denominators and each sequence becomes the integers D*v; float mode keeps
    the sequences as they are, with D = 1.0.  A sequence given as None stays
    None."""
    if mode != RATIONAL:
        return one(mode), seqs
    d = math.lcm(*(v.denominator for seq in seqs if seq for v in seq))
    return d, tuple(None if seq is None else [v.numerator * (d // v.denominator) for v in seq]
                    for seq in seqs)


def _over(v: int, scale: int) -> Fraction:
    """``Fraction(v, scale)``, sharing one zero."""
    return Fraction(v, scale) if v else _ZERO


@dataclass(frozen=True)
class _Numerators:
    """Rows of a banded fill over the common denominator ``d``.

    In rational mode row m holds the integers D^m times its entries; float
    mode holds the entries themselves, with D = 1.0.  Each reader reduces to
    ``Fraction(N, D^m)`` only the entries it returns.  :meth:`row`,
    :meth:`column` and :meth:`table` serve both modes, float mode returning
    the entries as they are; :meth:`band`, :meth:`scaled` and :meth:`pairing`
    are rational only.  :meth:`table` reads every row and releases each one
    as it goes, so it is the last read of a fill.
    """

    rows: list
    d: int | float

    def row(self, m: int) -> list:
        if isinstance(self.d, float):
            return self.rows[m]
        scale = self.d**m
        return [_over(v, scale) for v in self.rows[m]]

    def column(self, j: int) -> list:
        if isinstance(self.d, float):
            return [row[j] for row in self.rows[j:]]
        scale, out = self.d**j, []
        for row in self.rows[j:]:
            out.append(_over(row[j], scale))
            scale *= self.d
        return out

    def band(self, width: int, columns=()) -> list:
        """Rows with entry (m, j) read where m - j <= width or j is one of
        ``columns``; every other entry is None."""
        out, scale = [], 1
        for m, row in enumerate(self.rows):
            lo = max(m - width, 0)
            got = [None] * lo + [_over(v, scale) for v in row[lo:]]
            for j in columns:
                if j < lo:
                    got[j] = _over(row[j], scale)
            out.append(got)
            scale *= self.d
        return out

    def scaled(self, scales, by_row: bool) -> list:
        """Rows with entry (i, j) multiplied by ``scales[i]`` (``by_row``) or
        ``scales[j]``.

        A scale is a Fraction or a one-radical :class:`Surd` c * sqrt(r).  Entry
        (i, j) is N / D^i times it, so its coefficient is one
        ``Fraction(N * c.numerator, D^i * c.denominator)`` and the entry is
        ``Surd(coef, {r})``: the normalized value that generic surd arithmetic
        would reach.  Zero numerators give ``Fraction(0)``.
        """
        parts = [(s.coef, s.radicals) if isinstance(s, Surd) else (s, None) for s in scales]
        out, power = [], 1
        for i, row in enumerate(self.rows):
            new = []
            for j, v in enumerate(row):
                if not v:
                    new.append(_ZERO)
                    continue
                c, radicals = parts[i if by_row else j]
                coef = Fraction(v * c.numerator, power * c.denominator)
                new.append(Surd(coef, radicals) if radicals else coef)
            out.append(new)
            power *= self.d
        return out

    def pairing(self, weights: list, e: int, i: int, j: int | None = None) -> Fraction:
        """sum_k entry(i, k) * entry(j, k) * weights[k] / e, or without ``j``
        sum_k entry(i, k) * weights[k] / e: one ``Fraction`` reduced from the
        integer numerators and the integer ``weights``.  Rational only."""
        terms = self.rows[i] if j is None else map(operator.mul, self.rows[i], self.rows[j])
        return Fraction(sum(map(operator.mul, terms, weights)), self.d ** (i + (j or 0)) * e)

    def table(self) -> list:
        out = []
        for m in range(len(self.rows)):
            out.append(self.row(m))
            self.rows[m] = None  # a printed table is never held twice
        return out


def _banded_fill(mode: str, steps: int, *, target=(None, None), source=(None, None),
                 start: int = 0) -> _Numerators:
    """Rows 0..steps of the banded recursion that every monic table shares.

    ``target`` and ``source`` are (a2, b) coefficient pairs, and a part given
    as None is absent: its term is skipped, never read as zero.  Row 0 is the
    unit vector at ``start``; row m+1 multiplies row m by (x - TB_m) and
    subtracts TA_m times row m-1, with row m read in the monomial basis when
    ``source`` is absent and in the source's monic basis otherwise:

        g[m+1][j] = g[m][j-1] + SB_j*g[m][j] + SA_{j+1}*g[m][j+1]
                    - TB_m*g[m][j] - TA_m*g[m-1][j]

    Source terms come first, then target terms.  So eta is (rec, -), tau is
    (-, rec), and (rec, rec) from row ``start`` = n expands ptilde_n times
    ptilde_steps in the monic basis.  Zero entries of g are skipped, so a
    coefficient is read only where a nonzero entry forces its index: source
    indices below start + steps, target indices below steps.

    The loop runs on integer numerators over a common denominator.  D is the
    lcm of the denominators of the coefficients read, B = b*D and A = a^2*D
    are integers, and row m holds N_m = D^m times its entries, so the target
    a^2 term reads D*A_m*N_{m-1}[j].  No step normalizes a fraction: the
    rows come back as :class:`_Numerators`, whose readers reduce an entry to
    ``Fraction(N, D^m)`` only when it is read.  Float mode runs the same loop
    with D = 1.0, where every product by D is exact.
    """
    reach = (start + steps, start + steps, steps, steps)
    d, (SA, SB, TA, TB) = _common_scale(mode, *(None if seq is None else seq[:top]
                                                for seq, top in zip((*source, *target), reach)))
    z, unit = (0.0, 1.0) if isinstance(d, float) else (0, 1)
    rows = [[z] * start + [unit]]
    before = [z] * (start + 3)  # padded row -1
    for m in range(steps):
        above = [z] + rows[m] + [z, z]  # above[j + 1] = row_m[j]
        tb = None if TB is None else TB[m]
        ta = None if TA is None else d * TA[m]
        row = []
        for j in range(start + m + 2):
            v = d * above[j]
            if SB is not None:
                t = above[j + 1]
                if t:
                    v = v + SB[j] * t
            if SA is not None:
                t = above[j + 2]
                if t:
                    v = v + SA[j + 1] * t
            if TB is not None:
                t = above[j + 1]
                if t:
                    v = v - tb * t
            if TA is not None:
                t = before[j + 1]
                if t:
                    v = v - ta * t
            row.append(v)
        rows.append(row)
        before = above
    return _Numerators(rows, d)


def eta_table(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Monomial coefficients of the monic polynomials; row k is ptilde_k.

    Rows extend by ``eta[n+1][j] = eta[n][j-1] - b_n*eta[n][j] - a_n^2*eta[n-1][j]``
    from eta[0][0] = 1, so every diagonal entry is 1.
    """
    _check_order(rec, n)
    return TriangularTable("Eta", rec.mode,
                           _banded_fill(rec.mode, n, target=(rec.a2, rec.b)).table())


def tau_table(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Expansion of x^n in the monic polynomials; inverse table of ``eta``.

    Rows extend by ``tau[n+1][j] = tau[n][j-1] + b_j*tau[n][j] + a_{j+1}^2*tau[n][j+1]``.
    """
    _check_order(rec, n)
    return TriangularTable("Tau", rec.mode,
                           _banded_fill(rec.mode, n, source=(rec.a2, rec.b)).table())


# -- auxiliary tables: recursion fills and closed forms ---------------------


def _aux_fills(rec: RecurrenceCoefficients, n: int) -> tuple:
    """xi1, xi2, zeta1, zeta2 by recursion, as fills: the pure-a^2 and pure-b
    parts of the eta and tau recursions."""
    _check_order(rec, n)
    sides = ({"target": (rec.a2, None)}, {"target": (None, rec.b)},
             {"source": (rec.a2, None)}, {"source": (None, rec.b)})
    return tuple(_banded_fill(rec.mode, n, **side) for side in sides)


def _aux_recursions(rec: RecurrenceCoefficients, n: int) -> tuple:
    """xi1, xi2, zeta1, zeta2 by recursion, as printed tables."""
    return tuple(TriangularTable("XiZeta", rec.mode, fill.table()) for fill in _aux_fills(rec, n))


def _signed(v, k: int):
    return -v if k % 2 == 1 else v


def _even_gap_fill(n: int, value) -> TriangularTable:
    """Zero at odd row - col, one on the diagonal, ``value(row, col, k)`` at
    row - col = 2k > 0."""
    rows = []
    for row in range(n + 1):
        out = []
        for col in range(row + 1):
            k, odd = divmod(row - col, 2)
            out.append(_ZERO if odd else _ONE if k == 0 else value(row, col, k))
        rows.append(out)
    return TriangularTable(role="XiZeta", mode=RATIONAL, rows=rows)


def _xi1_closed(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Gap-constrained products of a^2: entry (row, row - 2k) is (-1)^k times
    the sum over 1 <= j_1 < ... < j_k <= row-1 with j_{m+1} - j_m >= 2 of
    prod a_{j_m}^2; zero for odd row - col.

    With r factors left after the current one, the current index runs
    lo..row-2r-1 and the next starts at index + 2.  So N(r, lo), the sum with
    the current index >= lo, is the suffix sum
    N(r, lo) = N(r, lo + 1) + A_lo*N(r - 1, lo + 2), and entry k of the row is
    N(k - 1, 1): one level per r serves every k of a row.  The sums run on the
    integers A_j = D*a_j^2, D the lcm of their denominators; a k-factor sum is
    an integer over D^k, reduced once.
    """
    d, (A,) = _common_scale(RATIONAL, rec.a2[:n])
    scale = [d**k for k in range(n // 2 + 1)]
    sums = []  # sums[row][k - 1]: D^k times the k-factor sum of the row
    for row in range(n + 1):
        level, out = [1] * (row + 2), []  # r = -1: the empty product
        for r in range(row // 2):
            hi = row - 2 * r - 1
            nxt = [0] * (hi + 2)
            for lo in range(hi, 0, -1):
                nxt[lo] = nxt[lo + 1] + A[lo] * level[lo + 2]
            level = nxt
            out.append(level[1])
        sums.append(out)
    return _even_gap_fill(n, lambda row, col, k: _signed(_over(sums[row][k - 1], scale[k]), k))


def _xi2_closed(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Signed elementary symmetric sums: entry (row, col) is
    (-1)^j e_j(b_0..b_{row-1}), j = row - col.

    One running vector serves every row: row r reads e_j(b_0..b_{r-1}), then
    one pass of the e_j recurrence folds in b_r for the next row.  The vector
    holds E_j = D^j e_j over the integers B = D*b, D the lcm of their
    denominators, so the pass is E_t += E_{t-1}*B; each entry is reduced once.
    """
    d, (B,) = _common_scale(RATIONAL, rec.b[:n])
    scale = [d**j for j in range(n + 1)]
    e = [1] + [0] * n
    rows = []
    for row in range(n + 1):
        rows.append([_signed(_over(e[row - col], scale[row - col]), row - col)
                     for col in range(row + 1)])
        if row < n:
            x = B[row]
            for t in range(row + 1, 0, -1):
                e[t] = e[t] + e[t - 1] * x
    return TriangularTable(role="XiZeta", mode=RATIONAL, rows=rows)


def _zeta1_closed(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Nested a^2 sums: entry (col + 2k, col) is sum_{j_1=1}^{col+1} a_{j_1}^2
    sum_{j_2=1}^{j_1+1} a_{j_2}^2 ... over k factors; zero for odd row - col.

    With r factors left after the current one, a level sums j = 1..hi and
    hands hi = j + 1 down; that depends on (r, hi) only, so one level per r
    serves the whole table, as the prefix sums
    N(r, hi) = N(r, hi - 1) + A_hi*N(r - 1, hi + 1).  They run on the integers
    A_j = D*a_j^2, D the lcm of their denominators, so a k-factor sum is an
    integer over D^k, reduced once.
    """
    d, (A,) = _common_scale(RATIONAL, rec.a2[:n])
    scale = [d**k for k in range(n // 2 + 1)]
    levels, below = [], [1] * (n + 1)  # r = -1: the empty product
    for r in range(n // 2):
        level = [0]
        for hi in range(1, n - 2 * r):
            level.append(level[hi - 1] + A[hi] * below[hi + 1])
        levels.append(level)
        below = level
    return _even_gap_fill(n, lambda row, col, k: _over(levels[k - 1][col + 1], scale[k]))


def _zeta2_closed(rec: RecurrenceCoefficients, n: int) -> TriangularTable:
    """Monotone multi-indexed b products: entry (col + j, col) is the complete
    homogeneous symmetric sum h_j(b_0..b_col).

    One running vector serves every column: column c folds b_c into
    h_1..h_{n-c}, the entries that it and the later columns read, and b_n is
    never read.  The vector holds H_j = D^j h_j over the integers B = D*b, D
    the lcm of their denominators, so the fold is H_t += H_{t-1}*B; each entry
    is reduced once.
    """
    d, (B,) = _common_scale(RATIONAL, rec.b[:n])
    scale = [d**j for j in range(n + 1)]
    rows = [[None] * (row + 1) for row in range(n + 1)]
    h = [1] + [0] * n
    for col in range(n + 1):
        top = n - col
        if top:
            x = B[col]
            for t in range(1, top + 1):
                h[t] = h[t] + h[t - 1] * x
        for j in range(top + 1):
            rows[col + j][col] = _over(h[j], scale[j])
    return TriangularTable(role="XiZeta", mode=RATIONAL, rows=rows)


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

    def first_mismatch(self):
        """First (table, row, col, recursion, closed) disagreement, or None."""
        for name, rec_t, closed_t in self.pairs():
            for i in range(rec_t.order + 1):
                for j in range(i + 1):
                    a, b = rec_t.rows[i][j], closed_t.rows[i][j]
                    if a != b:
                        return (name, i, j, a, b)
        return None

    def agree(self) -> bool:
        return self.first_mismatch() is None


def aux_tables(rec: RecurrenceCoefficients, n: int) -> AuxTables:
    """Build the four auxiliary tables twice: by recursion and by closed form.

    The closed fills read only a^2 and b, never the recursion fills they are
    compared against.  Raises ``ValueError`` on a float-mode recurrence, as
    :func:`partial_solutions` does: the fills are compared with ``!=``.
    """
    _require_exact(rec.mode, "aux_tables")
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


def _identity_check(name: str, pairs, note: str = "") -> IdentityCheck:
    """Compare (index, table value, closed value) triples with ``!=`` up to
    the first mismatch; ``checked`` counts the triples compared."""
    checked, mismatch = 0, None
    for idx, table, closed in pairs:
        checked += 1
        if table != closed:
            mismatch = (idx, table, closed)
            break
    return IdentityCheck(name, mismatch is None, checked, mismatch, note)


@dataclass
class PartialSolutionsReport:
    checks: list

    def passed(self, name: str) -> bool:
        return next(c for c in self.checks if c.name == name).passed

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _prefix_sums(rec: RecurrenceCoefficients, top: int) -> list:
    """(e1, e2, A, P, Q) for K = 0..top, one O(1) step each.

    e1 and e2 are the elementary symmetric sums of b_0..b_K; with x = b_{k-1}
    and y = b_k, A, P and Q sum a_k^2, a_k^2*(x + y) and
    a_k^2*(x^2 + x*y + y^2) over k = 1..K.
    """
    e1 = e2 = A = P = Q = _ZERO
    out = []
    for K in range(top + 1):
        y = rec.b[K]
        e2 = e2 + e1 * y
        e1 = e1 + y
        if K:
            x, w = rec.b[K - 1], rec.a2[K]
            A = A + w
            P = P + w * (x + y)
            Q = Q + w * (x * x + x * y + y * y)
        out.append((e1, e2, A, P, Q))
    return out


def _eta3_printed(sums: list, x2: list, count: int):
    """Yield printed eta_{t+3,t} for t < count: the xi2 term at column 3 exactly
    as printed, plus sum_{j=1}^{t+2} a_j^2 times the sum of b_k over
    k = 0..t+2 with k not in {j - 1, j}.  That inner sum is
    e1 - b_{j-1} - b_j, so the outer sum is e1*A - P, read from ``sums``, the
    :func:`_prefix_sums` at K = t + 2."""
    for t in range(count):
        e1, _, A, P, _ = sums[t + 2]
        yield x2[t + 3][3] + (e1 * A - P)


def _eta4_printed(sums: list, x1: list, x2: list, count: int):
    """Yield printed eta_{t+4,t} for t < count: xi1 + xi2, plus
    sum_{k=1}^{t+3} a_k^2 times the sum of b_i*b_j over 0 <= i < j <= t+3 with
    neither index in {k - 1, k}.  With x = b_{k-1} and y = b_k that inner sum
    is e2 - (x + y)*(e1 - x - y) - x*y, so the outer sum is e2*A - e1*P + Q,
    read from ``sums``, the :func:`_prefix_sums` at K = t + 3."""
    for t in range(count):
        e1, e2, A, P, Q = sums[t + 3]
        yield x1[t + 4][t] + x2[t + 4][t] + (e2 * A - e1 * P + Q)


def partial_solutions(rec: RecurrenceCoefficients, n: int) -> PartialSolutionsReport:
    """Evaluate the printed near-diagonal closed forms for eta and tau.

    Each closed form for eta_{t+l,t} / tau_{t+l,t}, l <= 4, is evaluated for
    every base index t with t + l <= n + 4 and compared against the recursion
    tables.  Mismatches are reported, never corrected: two of the printed
    degree-3/4 formulas are known misprints and their FAIL status is the
    documented outcome.  The formulas that cannot be read verbatim as written
    are evaluated under the only type-correct reading, stated in the note.

    The sums over indices other than {j - 1, j} in the printed eta forms are
    taken as the full elementary symmetric sum minus the excluded terms, and
    the a^2-weighted sums of the printed forms read one list of prefix sums
    (see ``_prefix_sums``), so each base index costs O(1).  The values are
    made lazily: a failing check stops at its first mismatch.  The six recursion
    fills are read through :meth:`_Numerators.band`: only the entries with
    row - col <= 4 are reduced to fractions, plus the two columns a check
    names (xi2 column 3, and eta column 0 when every b_k is zero).

    Raises ``ValueError`` on a float-mode recurrence: every check compares
    with ``!=``, so rounding alone would fail identities that hold exactly.
    """
    _require_exact(rec.mode, "partial_solutions")
    _check_order(rec, n)
    top = n + 4
    symmetric = all(v == 0 for v in rec.b)
    x1, x2, z1, z2 = (fill.band(4, columns) for fill, columns in
                      zip(_aux_fills(rec, top), ((), (3,), (), ())))
    eta = _banded_fill(RATIONAL, top, target=(rec.a2, rec.b)).band(4, (0,) if symmetric else ())
    tau = _banded_fill(RATIONAL, top, source=(rec.a2, rec.b)).band(4)
    sums = _prefix_sums(rec, top - 1)  # the printed forms read K <= top - 1

    # (name, table, l, closed values for t = 0, 1, ..., note): each row checks
    # table[t + l][t] against its closed form
    forms = (
        # l = 1: eta_{t+1,t} = xi2_{t+1,t} = -tau_{t+1,t}
        ("eta_offdiag1", eta, 1, (x2[t + 1][t] for t in range(top)), ""),
        ("tau_offdiag1", tau, 1, (-x2[t + 1][t] for t in range(top)), ""),
        # l = 2: eta = xi1 + xi2, tau = zeta1 + zeta2
        ("eta_offdiag2", eta, 2, (x1[t + 2][t] + x2[t + 2][t] for t in range(top - 1)), ""),
        ("tau_offdiag2", tau, 2, (z1[t + 2][t] + z2[t + 2][t] for t in range(top - 1)), ""),
        # l = 3 printed forms; tau's a^2 sum over j = 1..t+1 is P of _prefix_sums
        ("tau_offdiag3_printed", tau, 3,
         (z2[t + 3][t] + z1[t + 2][t] * z2[t + 1][t] + sums[t + 1][3] for t in range(top - 2)), ""),
        ("eta_offdiag3_printed", eta, 3, _eta3_printed(sums, x2, top - 2),
         "xi2 term evaluated at column 3 exactly as printed"),
        # l = 4 printed forms
        ("eta_offdiag4_printed", eta, 4, _eta4_printed(sums, x1, x2, top - 3),
         "the a^2 factor inside the outer sum is read as a_k^2"),
        ("tau_offdiag4_printed", tau, 4,
         (-eta[t + 4][t] - eta[t + 4][t + 1] * tau[t + 1][t] - eta[t + 4][t + 2] * tau[t + 2][t]
          - eta[t + 4][t + 3] * tau[t + 3][t] for t in range(top - 3)), ""),
    )
    checks = [_identity_check(name, ((t, table[t + l][t], v) for t, v in enumerate(values)), note)
              for name, table, l, values, note in forms]

    if symmetric:
        # pure-a^2 case: first column alternates signed odd-index products and
        # the whole near-diagonal band reduces to the xi1/zeta1 tables
        def col0(t):
            if t % 2 == 1:
                return _ZERO
            k = t // 2
            out = _ONE
            for j in range(1, k + 1):
                out = out * rec.a2[2 * j - 1]
            return -out if k % 2 == 1 else out

        checks.append(_identity_check("eta_column0_symmetric",
                                      ((t, eta[t][0], col0(t)) for t in range(1, top + 1))))
        checks.extend(_identity_check(name, (((t, l), table[t + l][t], closed[t + l][t])
                                             for l in range(5) for t in range(top + 1 - l)))
                      for name, table, closed in (("eta_band_symmetric", eta, x1),
                                                  ("tau_band_symmetric", tau, z1)))

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
    accuracy to cancellation there.  Only that column of the fill is reduced
    to fractions.
    """
    from .moments import MomentSequence

    if count < 1:
        raise ValueError("count must be at least 1")
    padded = _padded(rec, count)
    column = _banded_fill(rec.mode, count - 1, source=(padded.a2, padded.b)).column(0)
    return MomentSequence(tuple(column), rec.mode, label or rec.label)
