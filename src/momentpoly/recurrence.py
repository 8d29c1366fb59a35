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
integer numerators: row m is held as integers over its own denominator E_m,
and after each step the row and E_m are divided by their common gcd, so E_m is
the lcm of the row's reduced denominators.  Every fill and the Chebyshev
pass make each row by one step (``_row_step``), scaled by the denominators
of the two target coefficients it reads and by one integer scale of the
source side, if any.  The fill hands the numerators on,
and each consumer reduces to a ``Fraction`` only the entries it reads: the
printed tables every entry, the moments column 0, a linearization one row,
the ribbon test and the Radon-Nikodym expansion weighted sums of rows, and a
rational Hankel matrix's ``Pi`` and ``L`` scale the eta numerators and the
Chebyshev rows when first read, each row divided by its root
(``_Numerators.scaled``).  The near-diagonal report reduces no entry it
compares: it cross-multiplies their integer pairs (N, E_m) with its closed
forms, and reduces only the first mismatch of each check.  Every reader
builds its ``Fraction`` (and each surd of ``Pi`` and ``L``) from coprime
integer parts, a whole row with one gcd per entry (``_entries``), with no
``fractions`` operator (see ``scalars._coprime``).  Where a reader
reads only part of a fill, the fill computes only a column window that holds
that part and is closed under the recursion: the band row - col <= 4 for
the near-diagonal report (O(n) entries per table) and the shrinking edge
col <= count - 1 - row for the moments.  Float mode runs the same fill on
the floats, with no row denominators.  The Chebyshev pass (``_chebyshev``) runs
the other way, from moments to the recurrence and the monic norms that a
rational Hankel matrix factors with.  Its rows s_k[l] = <ptilde_k, x^l>
follow the same recurrence, so it steps them as a fill does, with the x
term read one column over, and it makes d_k, a_k^2 and b_k from coprime
integer parts too.  It hands its
rows back as a fill: row k is s_k = <ptilde_k, x^l>, d_k times column k of
tau, so dividing it by sqrt(d_k) gives column k of the rational ``L``, with
no tau fill.  A float
Hankel matrix goes back by the other route, ``_recurrence_from_inverse``:
Cholesky, inversion, and ratios of the entries of Pi = L^-1.

The four closed-form fills read one index sum with four gaps
(``_index_sums``).  They and the near-diagonal report check exact
identities, so they are rational only.  A closed-form entry with k
coefficient factors is an integer over D^k; ``aux_tables`` compares it with
the recursion entry N / E_m by cross-multiplying integers, and reduces a
table to ``Fraction``s only when it is read.  The report's closed forms are
unreduced integer pairs too, its prefix sums integers over powers of D.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice, repeat

from .cholesky import TriangularTable, check_pivot
from .scalars import (FLOAT, RATIONAL, _ZERO, Surd, _difference, _over, _quotient,
                      as_scalars, check_mode, one, scalar_sqrt, zero)


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
        # a rational value's sign is its numerator's, read without Fraction.__le__
        signs = self.a2[1:] if self.mode == FLOAT else (v.numerator for v in self.a2[1:])
        if any(v <= 0 for v in signs):
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
            tuple(map(float, self.a2)),
            tuple(map(float, self.b)),
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


def _check_order(rec: RecurrenceCoefficients, n: int) -> None:
    """Reject a negative order, and coefficients too short for rows 0..n."""
    if n < 0:
        raise ValueError(f"table order must be non-negative, got {n}")
    for name, seq in (("a_k^2", rec.a2), ("b_k", rec.b)):
        if n > len(seq):
            raise ValueError(
                f"recurrence {rec.label!r} provides {name} up to k = {len(seq) - 1}, "
                f"need k = {n - 1}"
            )


def _require_exact(mode: str, what: str) -> None:
    """Refuse float mode where ``what`` compares exact identities: rounding
    alone would fail identities that hold exactly."""
    if mode != RATIONAL:
        raise ValueError(f"{what} compares exact identities; pass a rational-mode recurrence")


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


def _reduce_row(row: list, e: int) -> tuple:
    """(row, e) divided by their common gcd: the integer row over its
    denominator ``e > 0`` in lowest terms, so that ``e`` becomes the lcm of
    the reduced denominators of the entries v / e."""
    g = math.gcd(e, *row)
    if g == 1:
        return row, e
    return [v // g for v in row], e // g


def _step_scales(e: int, e_before: int, b, a2, ds: int = 1) -> tuple:
    """(E, c0, cb, ca): one step of the monic recurrence on integer rows.

    Row k is N_k over ``e`` and row k-1 over ``e_before``; a source side, if
    any, is integers over ``ds``.  With b_k = p/q and a_k^2 = r/t, row k+1
    goes over E = lcm(e*lcm(ds, q), e_before*t), or e*lcm(ds, q) when ``a2``
    is None (no term reads row k-1), and is c0*(x N_k) - cb*N_k - ca*N_{k-1}
    plus c0/ds times the source terms, with c0 = E/e, cb = p*(E/(e*q)) and
    ca = r*(E/(e_before*t)); cb or ca is None where its coefficient is.  The
    rational :func:`_row_step`, of the Chebyshev pass and of every fill,
    takes these; with ds = 1 or q = 1 the lcm is a product, so a one-sided
    step takes no extra lcm.
    """
    q = 1 if b is None else b.denominator
    s = math.lcm(ds, q) if ds > 1 < q else ds * q
    if a2 is None:
        e_next, ca = e * s, None
    else:
        t = a2.denominator
        e_next = math.lcm(e * s, e_before * t)
        ca = a2.numerator * (e_next // (e_before * t))
    c0 = e_next // e
    return e_next, c0, None if b is None else b.numerator * (c0 // q), ca


def _entries(row, p: int, q: int, radicals=None) -> list:
    """The entries v * p / q of an integer row, for coprime ints p and q > 0,
    each nonzero one times sqrt(r) where ``radicals`` (an iterable beside the
    row) holds the radical set {r} rather than None.

    The reducer of every fill reader that reads a whole row: one gcd and one
    slot fill (as in ``_coprime``) per nonzero entry, with no helper call,
    since v * p / q is v * p / g over q / g in lowest terms, g = gcd(v, q).
    The numerator is a quotient, not a product: CPython sizes a product's
    int for the digits of both factors, so ``v // g * p`` would keep a spare
    digit in every entry, even for p = 1.  An entry with a radical set is
    filled into a ``Surd`` the same way, and a zero entry is the one shared
    ``Fraction(0)``.
    """
    new, gcd, out = object.__new__, math.gcd, []
    for v, rad in zip(row, radicals or repeat(None)):
        if not v:
            out.append(_ZERO)
            continue
        g = gcd(v, q)
        f = new(Fraction)
        f._numerator, f._denominator = v * p // g, q // g
        if rad:
            f, coef = new(Surd), f
            f.coef, f.radicals = coef, rad
        out.append(f)
    return out


@dataclass(frozen=True)
class _Numerators:
    """Rows of a banded fill, each over its own denominator.

    In rational mode row m holds integers N over ``dens[m]`` = E_m > 0; float
    mode holds the entries themselves, with ``dens`` None.  A fill's rows
    keep gcd(E_m, *N) = 1, so E_m is the lcm of the reduced denominators of
    the row.  The Chebyshev pass hands back slices N_k[k..n] of its rows, and
    there the invariant holds for the whole row only: row 0 sits over the lcm
    of all of m_0..m_2n.  No reader relies on it, since :func:`_entries` and
    ``_over`` reduce each entry.  Each reader reduces only the entries it
    returns, and builds every ``Fraction`` from coprime parts.
    :meth:`row`, :meth:`column` and :meth:`table` serve both modes, float
    mode returning the entries as they are; :meth:`pair`, :meth:`scaled` and
    :meth:`pairing` are rational only.  No reader changes the fill.
    """

    rows: list
    dens: list | None

    def row(self, m: int) -> list:
        if self.dens is None:
            return self.rows[m]
        return _entries(self.rows[m], 1, self.dens[m])

    def column(self, j: int) -> list:
        if self.dens is None:
            return [row[j] for row in self.rows[j:]]
        return [_over(row[j], e) for row, e in zip(self.rows[j:], self.dens[j:])]

    def pair(self, m: int, j: int) -> tuple:
        """Entry (m, j) as the integer pair (N, E_m), with no gcd."""
        return self.rows[m][j], self.dens[m]

    def scaled(self, roots) -> list:
        """Rows with row i divided by ``roots[i]``: the reader of ``Pi``,
        ``L``, the orthonormal connection table and the Radon-Nikodym
        coefficients.

        A root is what ``exact_sqrt`` gives: a Fraction c, or
        ``Surd(1, {r})`` = sqrt(r).  Entry (i, j) is N / E_i, so row i is
        divided by its root as N * (1 / c) / E_i, or as
        N * (1 / r) / E_i * sqrt(r) since 1 / sqrt(r) = (1 / r) * sqrt(r):
        c or r with its parts swapped, brought to lowest terms p / q over
        E_i by one gcd per row.  :func:`_entries` reduces each entry with one
        gcd into the normalized value that generic surd arithmetic would
        reach, so a zero numerator gives ``Fraction(0)``.
        """
        out = []
        for row, e, root in zip(self.rows, self.dens, roots):
            rad = root.radicals if isinstance(root, Surd) else None
            c = root.radicand() if rad else root
            g = math.gcd(c.denominator, e)
            out.append(_entries(row, c.denominator // g, c.numerator * (e // g), repeat(rad)))
        return out

    def pairing(self, weights: list, e: int, i: int, j: int) -> Fraction:
        """sum_k entry(i, k) * entry(j, k) * weights[k] / e: one ``Fraction``
        reduced from the integer numerators and the integer ``weights``.
        Rational only."""
        terms = map(operator.mul, self.rows[i], self.rows[j])
        return _over(sum(map(operator.mul, terms, weights)), e * self.dens[i] * self.dens[j])

    def table(self) -> list:
        return [self.row(m) for m in range(len(self.rows))]


def _row_step(xs: list, cur: list, before: list, cols, size: int, e, e_before, b, a2,
              ds=1, sb=None, sa=None) -> tuple:
    """(row k+1, its denominator): one step of the monic recurrence
    ptilde_{k+1} = (x - b_k) ptilde_k - a_k^2 ptilde_{k-1} on rows, the one
    step of every fill and of the Chebyshev pass.

    ``cur`` and ``before`` are rows k and k-1 with one zero in front, so
    ``cur[j + 1]`` is entry j of row k.  Entry j of row k+1, for j in
    ``cols`` out of ``size`` (the others stay zero), sums

        c0 xs[j] + (c0/ds) (sb[j] cur[j+1] + sa[j+1] cur[j+2])
                 - cb cur[j+1] - ca before[j+1]

    in that order, with no term whose factor is None or reads a zero entry.
    The x term reads ``xs``.  A fill passes ``cur``, so that term reads
    column j-1 of row k: a fill expands x ptilde_k in its columns.  The
    Chebyshev pass passes row k from column 1 on, since its s_{k+1}[l] reads
    s_k[l+1] = <ptilde_k, x^(l+1)>.  ``sb`` and ``sa``, the source side of a
    fill, are integers over one scale ``ds``.

    In rational mode rows k and k-1 are integers over the ints ``e`` and
    ``e_before``.  :func:`_step_scales` gives E, c0, cb and ca from
    b = b_k and a2 = a_k^2; where c0/ds > 1 it scales the source integers the
    step reads, not the row; a zero cb or ca changes nothing and is skipped;
    and the row over E ends in lowest terms (:func:`_reduce_row`).  Float mode
    has no denominator: ``e`` is 1.0 and is returned as it is, c0 = ds,
    cb = b and ca = a2, and a zero factor is not skipped, since a float zero
    term can flip a zero's sign.
    """
    c0, exact = ds, not isinstance(e, float)
    if exact:
        e, c0, b, a2 = _step_scales(e, e_before, b, a2, ds)
        if c0 > ds:  # c0/ds > 1 scales the source integers this step reads
            f = c0 // ds
            if sb is not None:
                sb = [f * v for v in sb[:size]]
            if sa is not None:
                sa = [f * v for v in sa[:size + 1]]
        b, a2 = b or None, a2 or None
    row = [0 if exact else 0.0] * size
    for j in cols:
        v = c0 * xs[j]
        if sb is not None:
            t = cur[j + 1]
            if t:
                v = v + sb[j] * t
        if sa is not None:
            t = cur[j + 2]
            if t:
                v = v + sa[j + 1] * t
        if b is not None:
            t = cur[j + 1]
            if t:
                v = v - b * t
        if a2 is not None:
            t = before[j + 1]
            if t:
                v = v - a2 * t
        row[j] = v
    return _reduce_row(row, e) if exact else (row, e)


def _banded_fill(mode: str, steps: int, *, target=(None, None), source=(None, None),
                 start: int = 0, band: int | None = None, left: int = -1,
                 edge: int | None = None) -> _Numerators:
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

    A column window computes only the entries a reader will read; the others
    are held as zeros and must not be read.  Entry (r, j) reads row r-1 at
    columns j-1..j+1 and row r-2 at column j, so a window gives exact entries
    when it is closed under the recursion: with (r, j) it holds those
    columns.  Three windows are closed:

    - ``band``, the columns j >= r - band of row r, on every side, since
      j-1 >= (r-1) - band and j >= (r-2) - band;
    - ``left``, added to a band: the columns j <= left, closed only for a
      target-only fill (eta, xi1, xi2), which reads columns j-1 and j; a
      source term reads column j+1 of row r-1, outside the window;
    - ``edge``, the columns j <= edge - r of row r, on every side, since
      j+1 <= edge - (r-1); the row stops at that column.

    With no window the fill computes the whole triangle, as it always did.

    Each row is one :func:`_row_step`, the step of the Chebyshev pass.  In
    rational mode row m holds integers N_m over its own denominator E_m (see
    :class:`_Numerators`), in lowest terms, so rows and denominators do not
    depend on how a step was scaled.  The source pair alone goes over one
    integer scale ds, the lcm of its denominators (ds = 1 with no source).
    With TB_m = p/q and TA_m = r/t, row m+1 is over
    E = lcm(E_m*lcm(ds, q), E_{m-1}*t), or E_m*lcm(ds, q) when no target a^2
    term reads row m-1 (:func:`_step_scales`), and with c = E/E_m

        N_{m+1}[j] = c N_m[j-1] + (c/ds) (B_j N_m[j] + A_{j+1} N_m[j+1])
                     - p (E/(E_m q)) N_m[j] - r (E/(E_{m-1} t)) N_{m-1}[j]

    for the integers B_j = ds*SB_j and A_j = ds*SA_j.  A target-only fill has
    ds = 1, and a source-only one E = E_m*ds and c/ds = 1, so neither takes
    an lcm beyond the Chebyshev pass's.  Readers reduce an entry only when it
    is read.  Float mode runs the same step with ds = 1.0 and no row
    denominators, where every product by ds is exact.
    """
    reach = (start + steps, start + steps, steps, steps)
    SA, SB, TA, TB = (None if seq is None else seq[:top] for seq, top in zip((*source, *target), reach))
    exact = mode == RATIONAL
    ds, (SA, SB) = _common_scale(mode, SA, SB)
    z, unit = (0, 1) if exact else (0.0, 1.0)
    rows, dens = [[z] * start + [unit]], [unit]
    before = [z] * (start + 3)  # padded row -1, over dens[-1] = dens[0] = 1 at m = 0
    for m in range(steps):
        cur = [z, *rows[m], z, z]  # cur[j + 1] = row_m[j]
        size = start + m + 2 if edge is None else min(start + m + 1, edge - m - 1) + 1
        lo = 0 if band is None else max(m + 1 - band, 0)
        cols = range(lo, size)
        if lo and left >= 0:  # a chained range costs every entry a step, so only here
            cols = chain(range(min(left + 1, lo)), cols)
        row, e = _row_step(cur, cur, before, cols, size, dens[m], dens[m - 1],
                           None if TB is None else TB[m], None if TA is None else TA[m],
                           ds, SB, SA)
        rows.append(row)
        dens.append(e)
        before = cur
    return _Numerators(rows, dens if exact else None)


def _chebyshev(m: MomentSequence, top: int):
    """(recurrence, norms d_0..d_n, rows) from m_0..m_top, n = top // 2.

    The Chebyshev algorithm (Gautschi, *Orthogonal Polynomials*, 2004,
    section 2.1.7) runs the monic recurrence on s_k[l] = <ptilde_k, x^l>,
    starting from s_0[l] = m_l; then d_k = s_k[k], a_k^2 = d_k / d_{k-1} and
    b_k = s_k[k+1] / d_k - s_{k-1}[k] / d_{k-1}.  Row s_k is known for
    l <= top - k, so an odd ``top = 2n + 1`` also gives b_n.  Each d_k goes
    through :func:`check_pivot` against m_{2k}, in either mode, before any
    division by it.  O(top^2) steps.

    Each row is one :func:`_row_step`, the step of every fill, with b_k and
    a_k^2 as the target pair, no source side, and row k from column 1 on as
    the list its x term reads:

        s_{k+1}[l] = s_k[l+1] - b_k s_k[l] - a_k^2 s_{k-1}[l],  k < l < top - k.

    A zero b_k or a_k^2 (a_0^2 = 0) is passed as None, so that term is
    skipped in float mode too.  In rational mode row s_k is held as integer
    numerators N_k over its own row denominator E_k, in lowest terms, as a
    fill holds its rows; unreduced, the rows of q-hermite grow without
    bound.  N_0 is m times E_0, the lcm of the moment denominators, as
    :func:`_common_scale` gives.  Only d_k, a_k^2 and b_k are made as
    ``Fraction``s, each filled from coprime integer parts with no
    ``fractions`` operator: d_k = N_k[k] / E_k and
    s_k[k+1] / d_k = N_k[k+1] / N_k[k] by one gcd each (``_over``; N_k[k] > 0
    once the pivot passed), a_k^2 = d_k / d_{k-1} by the two cross gcds of
    a product (``_quotient``), and b_k as one integer difference over the
    product of the denominators (``_difference``).  Float mode runs on the
    floats with E = 1.0 and the float operators.

    ``rows`` is a :class:`_Numerators` that holds, as its row k, the slice
    N_k[k..n] that the pass computes anyway, over E_k (``dens`` None in
    float mode), so its ``row(k)`` is s_k[k..n].  Since
    s_k[l] = <x^l, ptilde_k> and p_k = ptilde_k / sqrt(d_k),
    s_k[l] / sqrt(d_k) = <x^l, p_k> = L[l][k]: a rational Hankel matrix
    reads its ``L`` off these rows by :meth:`_Numerators.scaled`, as it
    reads ``Pi`` off the eta fill, with no tau fill.
    """
    exact = m.mode == RATIONAL
    z = zero(m.mode)
    n = top // 2
    e, (row,) = _common_scale(m.mode, m.moments[: top + 1])
    ratio, divide, minus = ((_over, _quotient, _difference) if exact else
                            (operator.truediv, operator.truediv, operator.sub))
    cur = None  # row -1, which a_0^2 = 0 never reads
    a2, b, norms, columns, dens, lead = [z], [], [], [], [], z
    for k in range(n + 1):
        d = ratio(row[k], e)
        check_pivot(k, d, m.m(2 * k), m.mode)
        norms.append(d)
        columns.append(row[k:n + 1])
        dens.append(e)
        if k:
            a2.append(divide(d, norms[k - 1]))
        if 2 * k == top:
            break
        quotient = ratio(row[k + 1], row[k])  # s_k[k+1] / d_k, and N_k[k] > 0
        b.append(minus(quotient, lead))
        lead = quotient
        before, cur = cur, [0, *row]
        row, e = _row_step(row[1:], cur, before, range(k + 1, top - k), top - k, e, dens[k - 1],
                           b[k] or None, a2[k] or None)
    rec = RecurrenceCoefficients(tuple(a2), tuple(b), m.mode, label=m.label)
    return rec, norms, _Numerators(columns, dens if exact else None)


def _recurrence_from_inverse(pi: TriangularTable, label: str) -> RecurrenceCoefficients:
    """Recurrence coefficients from ratios of leading entries of Pi = L^-1.

    a_n = pi[n-1][n-1] / pi[n][n] and
    b_n = pi[n][n-1]/pi[n][n] - pi[n+1][n]/pi[n+1][n+1]; both ratios are
    rational in exact mode because each Pi row carries a single radical.
    This is the float route from moments to a recurrence, after Cholesky and
    inversion; :func:`_chebyshev` is the rational one.
    """
    rows, n, mode = pi.rows, pi.order, pi.mode
    a2 = [zero(mode)]
    for k in range(1, n + 1):
        ratio = rows[k - 1][k - 1] / rows[k][k]
        a2.append(ratio * ratio)
    b = []
    for k in range(n):
        lead = rows[k][k - 1] / rows[k][k] if k >= 1 else zero(mode)
        b.append(lead - rows[k + 1][k] / rows[k + 1][k + 1])
    return RecurrenceCoefficients(tuple(a2), tuple(b), mode, label=label)


def _monic_values(a2, b, x, n: int, mode: str) -> list:
    """ptilde_0(x)..ptilde_n(x) by ``(x - b_k)*ptilde_k - a_k^2*ptilde_{k-1}``
    from ptilde_{-1} = 0 and ptilde_0 = 1; ``a2`` and ``b`` are iterables
    from k = 0, and only their first n entries are read."""
    prev, cur = zero(mode), one(mode)
    out = [cur]
    for a2_k, b_k in islice(zip(a2, b), n):
        prev, cur = cur, (x - b_k) * cur - a2_k * prev
        out.append(cur)
    return out


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


def _aux_sides(rec: RecurrenceCoefficients) -> tuple:
    """The fill sides of xi1, xi2, zeta1 and zeta2: the pure-a^2 and pure-b
    parts of the eta and tau recursions."""
    return ({"target": (rec.a2, None)}, {"target": (None, rec.b)},
            {"source": (rec.a2, None)}, {"source": (None, rec.b)})


@dataclass(frozen=True)
class _GapScaled:
    """A closed-form fill on integers: entry (i, j) is ``rows[i][j]`` over
    ``scales[i - j]``, the power of D that matches the entry's factor count."""

    rows: list
    scales: list

    def row(self, i: int) -> list:
        return [_over(v, s) for v, s in zip(self.rows[i], self.scales[i::-1])]


def _signed(v, k: int):
    return -v if k % 2 == 1 else v


def _index_sums(seq, n: int, gap: int, depth: int) -> tuple:
    """(D, levels) with ``levels[k][h + 2]`` = D^k * S_k(h) for h >= -2.

    S_k(h) sums C_{j_1} * ... * C_{j_k} over index sequences with j_1 >= 0,
    j_k <= h and j_{m+1} - j_m >= ``gap``, so S_0 = 1, and S_k(h) = 0 for
    k >= 1 and h < 0.  Either j_k < h or j_k = h, so
    S_k(h) = S_k(h - 1) + C_h * S_{k-1}(h - gap): one prefix sweep per level,
    for k = 1..``depth``.  The four closed forms are this sum with gap 2
    (xi1, C = a^2), 1 (xi2, C = b), 0 (zeta2, C = b) and -1 (zeta1,
    C = a^2).  C is ``seq[:n]`` on the integers D*C of :func:`_common_scale`,
    so a k-factor sum is an integer over D^k.  Level k runs to h = n - 1, or
    for a negative gap, which reads level k - 1 one index further on, to
    h = n - k; level 0 runs to h = n + 1.
    """
    d, (C,) = _common_scale(RATIONAL, seq[:n])
    levels = [[1] * (n + 4)]
    for k in range(1, depth + 1):
        below, level = levels[-1], [0, 0]
        for h in range(n if gap >= 0 else n - k + 1):
            level.append(level[-1] + C[h] * below[h + 2 - gap])
        levels.append(level)
    return d, levels


def _gap_fill(n: int, d: int, step: int, value) -> _GapScaled:
    """Zero where ``step`` does not divide row - col, and the integer
    ``value(row, col, k)`` over D^k at row - col = step*k."""
    rows = []
    for row in range(n + 1):
        out = [0] * (row + 1)
        for k in range(row // step + 1):
            col = row - step * k
            out[col] = value(row, col, k)
        rows.append(out)
    return _GapScaled(rows, [d ** (g // step) for g in range(n + 1)])


def _xi1_closed(rec: RecurrenceCoefficients, n: int) -> _GapScaled:
    """Gap-constrained products of a^2: entry (row, row - 2k) is (-1)^k times
    the sum over 1 <= j_1 < ... < j_k <= row-1 with j_{m+1} - j_m >= 2 of
    prod a_{j_m}^2, the index sum S_k(row - 1) with gap 2 (the a_0^2 = 0 slot
    adds nothing); zero for odd row - col."""
    d, levels = _index_sums(rec.a2, n, 2, n // 2)
    return _gap_fill(n, d, 2, lambda row, col, k: _signed(levels[k][row + 1], k))


def _xi2_closed(rec: RecurrenceCoefficients, n: int) -> _GapScaled:
    """Signed elementary symmetric sums: entry (row, col) is
    (-1)^j e_j(b_0..b_{row-1}), j = row - col, the index sum S_j(row - 1)
    with gap 1."""
    d, levels = _index_sums(rec.b, n, 1, n)
    return _gap_fill(n, d, 1, lambda row, col, j: _signed(levels[j][row + 1], j))


def _zeta1_closed(rec: RecurrenceCoefficients, n: int) -> _GapScaled:
    """Nested a^2 sums: entry (col + 2k, col) is sum_{j_1=1}^{col+1} a_{j_1}^2
    sum_{j_2=1}^{j_1+1} a_{j_2}^2 ... over k factors; zero for odd row - col.
    Read from j_k to j_1, each index is at least the one before minus 1: the
    index sum S_k(col + 1) with gap -1."""
    d, levels = _index_sums(rec.a2, n, -1, n // 2)
    return _gap_fill(n, d, 2, lambda row, col, k: levels[k][col + 3])


def _zeta2_closed(rec: RecurrenceCoefficients, n: int) -> _GapScaled:
    """Monotone multi-indexed b products: entry (col + j, col) is the complete
    homogeneous symmetric sum h_j(b_0..b_col), the index sum S_j(col) with
    gap 0."""
    d, levels = _index_sums(rec.b, n, 0, n)
    return _gap_fill(n, d, 1, lambda row, col, j: levels[j][col + 2])


def _aux_table(index: int) -> cached_property:
    """The printed table of fill ``index`` of :class:`AuxTables`, reduced to
    ``Fraction``s on first read and cached."""
    def read(self) -> TriangularTable:
        fill = self._fills[index]
        return TriangularTable("XiZeta", RATIONAL, [fill.row(m) for m in range(len(fill.rows))])
    return cached_property(read)


class AuxTables:
    """Recursion fills of the four auxiliary tables plus their closed-form fills.

    The four recursion fills are held as :class:`_Numerators` (entry (i, j) is
    N / E_i) and the four closed fills as :class:`_GapScaled` integers (C over
    S_{i-j}, a power of D).  :meth:`first_mismatch` and :meth:`agree` compare
    N * S_{i-j} with C * E_i on integers and read no table.  Each of the eight
    tables, ``xi1`` .. ``zeta2`` and ``xi1_closed`` .. ``zeta2_closed``, is a
    ``TriangularTable`` of ``Fraction``s built on first read and cached.
    """

    NAMES = ("xi1", "xi2", "zeta1", "zeta2")

    def __init__(self, recursions: tuple, closed: tuple):
        self._fills = (*recursions, *closed)

    xi1, xi2, zeta1, zeta2 = _aux_table(0), _aux_table(1), _aux_table(2), _aux_table(3)
    xi1_closed, xi2_closed = _aux_table(4), _aux_table(5)
    zeta1_closed, zeta2_closed = _aux_table(6), _aux_table(7)

    def pairs(self):
        return (
            ("xi1", self.xi1, self.xi1_closed),
            ("xi2", self.xi2, self.xi2_closed),
            ("zeta1", self.zeta1, self.zeta1_closed),
            ("zeta2", self.zeta2, self.zeta2_closed),
        )

    def first_mismatch(self):
        """First (table, row, col, recursion, closed) disagreement, or None.

        Only the returned pair is reduced to ``Fraction``s."""
        for name, fill, closed in zip(self.NAMES, self._fills[:4], self._fills[4:]):
            for i, (row, e, crow) in enumerate(zip(fill.rows, fill.dens, closed.rows)):
                for j, (v, c, s) in enumerate(zip(row, crow, closed.scales[i::-1])):
                    if v * s != c * e:
                        return (name, i, j, _over(v, e), _over(c, s))
        return None

    def agree(self) -> bool:
        return self.first_mismatch() is None


def aux_tables(rec: RecurrenceCoefficients, n: int) -> AuxTables:
    """Build the four auxiliary tables twice: by recursion and by closed form.

    The closed fills read only a^2 and b, never the recursion fills they are
    compared against.  Both are kept as integers; the comparison
    cross-multiplies them, and a table becomes ``Fraction``s only when read
    (see :class:`AuxTables`).  Raises ``ValueError`` on a float-mode
    recurrence, as :func:`partial_solutions` does: the fills are compared
    exactly.
    """
    _require_exact(rec.mode, "aux_tables")
    _check_order(rec, n)
    return AuxTables(tuple(_banded_fill(RATIONAL, n, **side) for side in _aux_sides(rec)),
                     tuple(fill(rec, n) for fill in (_xi1_closed, _xi2_closed,
                                                     _zeta1_closed, _zeta2_closed)))


# -- near-diagonal closed forms, evaluated verbatim and reported ------------


@dataclass
class IdentityCheck:
    name: str
    passed: bool
    checked: int
    first_mismatch: tuple | None = None
    note: str = ""


def _identity_check(name: str, triples, note: str = "") -> IdentityCheck:
    """Compare (index, table value, closed value) triples up to the first
    mismatch; ``checked`` counts the triples compared.

    Each value is an integer pair (num, den > 0), unreduced, and two values
    agree when ``tn * cd == cn * td``.  Only the mismatch is reduced, to a
    pair of ``Fraction``s."""
    checked = 0
    for idx, (tn, td), (cn, cd) in triples:
        checked += 1
        if tn * cd != cn * td:
            return IdentityCheck(name, False, checked, (idx, _over(tn, td), _over(cn, cd)), note)
    return IdentityCheck(name, True, checked, None, note)


def _plus(*terms) -> tuple:
    """The sum of integer pairs (num, den > 0) by cross terms, unreduced."""
    num, den = 0, 1
    for n, d in terms:
        num, den = num * d + n * den, den * d
    return num, den


def _times(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0], x[1] * y[1]


def _negative(x: tuple) -> tuple:
    return -x[0], x[1]


@dataclass
class PartialSolutionsReport:
    checks: list

    def passed(self, name: str) -> bool:
        return next(c for c in self.checks if c.name == name).passed

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _prefix_sums(rec: RecurrenceCoefficients, top: int) -> tuple:
    """(powers, sums): sums[K] = (e1, e2, A, P, Q) for K = 0..top, one O(1)
    step each, and powers = (1, D, D^2, D^3).

    e1 and e2 are the elementary symmetric sums of b_0..b_K; with x = b_{k-1}
    and y = b_k, A, P and Q sum a_k^2, a_k^2*(x + y) and
    a_k^2*(x^2 + x*y + y^2) over k = 1..K.  They are integers over D, D^2, D,
    D^2 and D^3, D the lcm of the denominators of a_1^2..a_top^2 and
    b_0..b_top, so the walk makes no ``Fraction``.
    """
    d, (W, B) = _common_scale(RATIONAL, rec.a2[:top + 1], rec.b[:top + 1])
    e1 = e2 = A = P = Q = 0
    out = []
    for K in range(top + 1):
        y = B[K]
        e2 = e2 + e1 * y
        e1 = e1 + y
        if K:
            x, w = B[K - 1], W[K]
            A = A + w
            P = P + w * (x + y)
            Q = Q + w * (x * x + x * y + y * y)
        out.append((e1, e2, A, P, Q))
    return (1, d, d * d, d**3), out


def _eta3_printed(powers: tuple, sums: list, x2, count: int):
    """Yield printed eta_{t+3,t} for t < count, as an integer pair: the xi2
    term at column 3 exactly as printed, plus sum_{j=1}^{t+2} a_j^2 times the
    sum of b_k over k = 0..t+2 with k not in {j - 1, j}.  That inner sum is
    e1 - b_{j-1} - b_j, so the outer sum is e1*A - P over D^2, read from
    ``sums``, the :func:`_prefix_sums` at K = t + 2.  ``x2(m, j)`` is the
    pair of xi2 entry (m, j)."""
    for t in range(count):
        e1, _, A, P, _ = sums[t + 2]
        yield _plus(x2(t + 3, 3), (e1 * A - P, powers[2]))


def _eta4_printed(powers: tuple, sums: list, x1, x2, count: int):
    """Yield printed eta_{t+4,t} for t < count, as an integer pair: xi1 +
    xi2, plus sum_{k=1}^{t+3} a_k^2 times the sum of b_i*b_j over
    0 <= i < j <= t+3 with neither index in {k - 1, k}.  With x = b_{k-1} and
    y = b_k that inner sum is e2 - (x + y)*(e1 - x - y) - x*y, so the outer
    sum is e2*A - e1*P + Q over D^3, read from ``sums``, the
    :func:`_prefix_sums` at K = t + 3."""
    for t in range(count):
        e1, e2, A, P, Q = sums[t + 3]
        yield _plus(x1(t + 4, t), x2(t + 4, t), (e2 * A - e1 * P + Q, powers[3]))


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
    the a^2-weighted sums of the printed forms read one list of integer prefix
    sums (see ``_prefix_sums``), so each base index costs O(1).  The values
    are made lazily: a failing check stops at its first mismatch.  The six
    order-(n+4) recursion fills compute only the band row - col <= 4, plus
    the leftmost columns through the one a check names (xi2 column 3, and eta
    column 0 when every b_k is zero): O(n) entries each (see the windows of
    :func:`_banded_fill`).  Every compared entry is read as its fill's pair
    (N, E_m) through :meth:`_Numerators.pair`, with no gcd, and every closed
    form is an unreduced integer pair made by cross terms; the checks
    cross-multiply them, and only the first mismatch of a check is reduced to
    ``Fraction``s (see :func:`_identity_check`).

    Raises ``ValueError`` on a float-mode recurrence: every check is exact,
    so rounding alone would fail identities that hold exactly.
    """
    _require_exact(rec.mode, "partial_solutions")
    _check_order(rec, n)
    top = n + 4
    _check_order(rec, top)
    symmetric = all(v == 0 for v in rec.b)
    sides = (*_aux_sides(rec), {"target": (rec.a2, rec.b)}, {"source": (rec.a2, rec.b)})
    columns = ((), (3,), (), (), (0,) if symmetric else (), ())
    x1, x2, z1, z2, eta, tau = (
        _banded_fill(RATIONAL, top, band=4, left=max(cols, default=-1), **side).pair
        for side, cols in zip(sides, columns))
    powers, sums = _prefix_sums(rec, top - 1)  # the printed forms read K <= top - 1

    # (name, table, l, closed values for t = 0, 1, ..., note): each row checks
    # table(t + l, t) against its closed form
    forms = (
        # l = 1: eta_{t+1,t} = xi2_{t+1,t} = -tau_{t+1,t}
        ("eta_offdiag1", eta, 1, (x2(t + 1, t) for t in range(top)), ""),
        ("tau_offdiag1", tau, 1, (_negative(x2(t + 1, t)) for t in range(top)), ""),
        # l = 2: eta = xi1 + xi2, tau = zeta1 + zeta2
        ("eta_offdiag2", eta, 2, (_plus(x1(t + 2, t), x2(t + 2, t)) for t in range(top - 1)), ""),
        ("tau_offdiag2", tau, 2, (_plus(z1(t + 2, t), z2(t + 2, t)) for t in range(top - 1)), ""),
        # l = 3 printed forms; tau's a^2 sum over j = 1..t+1 is P of _prefix_sums
        ("tau_offdiag3_printed", tau, 3,
         (_plus(z2(t + 3, t), _times(z1(t + 2, t), z2(t + 1, t)), (sums[t + 1][3], powers[2]))
          for t in range(top - 2)), ""),
        ("eta_offdiag3_printed", eta, 3, _eta3_printed(powers, sums, x2, top - 2),
         "xi2 term evaluated at column 3 exactly as printed"),
        # l = 4 printed forms
        ("eta_offdiag4_printed", eta, 4, _eta4_printed(powers, sums, x1, x2, top - 3),
         "the a^2 factor inside the outer sum is read as a_k^2"),
        ("tau_offdiag4_printed", tau, 4,
         (_negative(_plus(eta(t + 4, t), *(_times(eta(t + 4, t + k), tau(t + k, t))
                                           for k in (1, 2, 3))))
          for t in range(top - 3)), ""),
    )
    checks = [_identity_check(name, ((t, table(t + l, t), v) for t, v in enumerate(values)), note)
              for name, table, l, values, note in forms]

    if symmetric:
        # pure-a^2 case: first column alternates signed odd-index products and
        # the whole near-diagonal band reduces to the xi1/zeta1 tables
        def col0(t):
            if t % 2 == 1:
                return 0, 1
            odd = rec.a2[1:t:2]  # a_1^2, a_3^2, ..., a_{t-1}^2
            return (_signed(math.prod(v.numerator for v in odd), t // 2),
                    math.prod(v.denominator for v in odd))

        checks.append(_identity_check("eta_column0_symmetric",
                                      ((t, eta(t, 0), col0(t)) for t in range(1, top + 1))))
        checks.extend(_identity_check(name, (((t, l), table(t + l, t), closed(t + l, t))
                                             for l in range(5) for t in range(top + 1 - l)))
                      for name, table, closed in (("eta_band_symmetric", eta, x1),
                                                  ("tau_band_symmetric", tau, z1)))

    return PartialSolutionsReport(checks=checks)


# -- moments from the recurrence --------------------------------------------


def _moment_prefix(rec: RecurrenceCoefficients, count: int) -> tuple:
    """(a2, b): the prefix of the coefficients that the first ``count``
    moments depend on, a_1^2..a_{floor(j/2)}^2 and b_0..b_{floor((j-1)/2)}
    for j = count - 1; ``ValueError`` when the recurrence stops short of it."""
    prefix = []
    for name, seq, need in (("a_k^2", rec.a2, (count - 1) // 2), ("b_k", rec.b, (count - 2) // 2)):
        if len(seq) <= need:
            raise ValueError(
                f"{count} moments need {name} up to k = {need}; "
                f"recurrence stops at k = {len(seq) - 1}"
            )
        prefix.append(seq[:need + 1])
    return tuple(prefix)


def moments_from_recurrence(rec: RecurrenceCoefficients, count: int, label: str = ""):
    """Moments m_0..m_{count-1} of the measure with the given recurrence.

    m_j = tau[j][0]: integrating x^j = sum_k tau[j][k] * ptilde_k against the
    measure (normalized to m_0 = 1) leaves only the k = 0 term, because every
    monic polynomial of degree k >= 1 integrates to zero.  The first column of
    ``tau`` is a sum of nonnegative terms when b = 0, so float mode loses no
    accuracy to cancellation there.

    Row r of the fill computes only the columns j <= count - 1 - r, the
    ``edge`` window of :func:`_banded_fill` that column 0 of the last row
    needs, about half the triangle.  Entry (r, j) reads b_j and a_{j+1}^2 with
    j <= min(r - 1, count - 1 - r), so the fill reads only the coefficients
    the moments depend on (see :func:`_moment_prefix`), and only column 0 is
    reduced to fractions.
    """
    from .moments import MomentSequence

    if count < 1:
        raise ValueError("count must be at least 1")
    fill = _banded_fill(rec.mode, count - 1, source=_moment_prefix(rec, count), edge=count - 1)
    return MomentSequence(tuple(fill.column(0)), rec.mode, label or rec.label)
