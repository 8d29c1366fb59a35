"""Monic tables, auxiliary closed forms, near-diagonal reports, moment recovery."""

import itertools
import json
import math
import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentpoly import (
    FamilySpec,
    RecurrenceCoefficients,
    aux_tables,
    eta_table,
    make_moments,
    moments_from_recurrence,
    partial_solutions,
    recurrence_from_moments,
    tau_table,
    tri_multiply,
)
from momentpoly import cli as cli_module
from momentpoly import recurrence as recurrence_module
from momentpoly import scalars as scalars_module
from momentpoly.recurrence import AuxTables, _banded_fill
from momentpoly.scalars import FLOAT, RATIONAL, zero

import forward_oracle
from closed_forms_oracle import closed_xi1, closed_xi2, closed_zeta1, closed_zeta2
from conftest import CATALOG, positive_fractions, random_recurrence, signed_fractions

GAUSSIAN_REC = RecurrenceCoefficients(
    tuple(Fraction(k) for k in range(9)), tuple([Fraction(0)] * 9), RATIONAL, "gaussian"
)


def gap_subset_sum(a2, row, col):
    """Brute-force oracle: signed sum over index subsets with pairwise gaps >= 2."""
    gap = row - col
    if gap % 2 == 1:
        return Fraction(0)
    k = gap // 2
    total = Fraction(0)
    for sub in itertools.combinations(range(1, row), k):
        if all(sub[m + 1] - sub[m] >= 2 for m in range(len(sub) - 1)):
            prod = Fraction(1)
            for j in sub:
                prod *= a2[j]
            total += prod
    return -total if k % 2 == 1 else total


def multiset_sum(b, row, col):
    """Brute-force oracle: sum of products over size-(row-col) multisets of b_0..b_col."""
    j = row - col
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(range(col + 1), j):
        prod = Fraction(1)
        for idx in combo:
            prod *= b[idx]
        total += prod
    return total


def motzkin_moment(rec, j):
    """Brute-force oracle: weighted lattice-path sum for the j-th moment."""

    def walk(steps_left, level):
        if steps_left == 0:
            return Fraction(1) if level == 0 else Fraction(0)
        if level > steps_left:
            return Fraction(0)
        total = walk(steps_left - 1, level + 1)  # up, weight 1
        total += rec.b[level] * walk(steps_left - 1, level)  # stay
        if level > 0:
            total += rec.a2[level] * walk(steps_left - 1, level - 1)  # down
        return total

    return walk(j, 0)


def _check_symmetric_shortcut(rec, eta, moments) -> None:
    """Cross-check the even-moment recursion printed for the all-b-zero case."""
    tol = 0.0 if rec.mode == RATIONAL else 1e-9
    for j in range(1, len(moments), 2):
        if not (moments[j] == 0 if tol == 0.0 else abs(moments[j]) <= tol):
            raise ArithmeticError(f"odd moment m_{j} nonzero for symmetric recurrence")
    for k in range(1, (len(moments) - 1) // 2 + 1):
        if k == 1:
            expect = rec.a2[1]
        elif k == 2:
            expect = rec.a2[1] * (rec.a2[1] + rec.a2[2])
        else:
            acc = zero(rec.mode)
            for j in range(1, 2 * k - 1):
                acc = acc + rec.a2[j]
            expect = acc * moments[2 * k - 2]
            for j in range(2, k):
                expect = expect - eta.rows[2 * k - 1][2 * k - 1 - 2 * j] * moments[2 * k - 2 * j]
        got = moments[2 * k]
        ok = expect == got if tol == 0.0 else abs(expect - got) <= tol * max(1.0, abs(got))
        if not ok:
            raise ArithmeticError(
                f"symmetric even-moment shortcut disagrees at m_{2 * k}: "
                f"{expect} vs {got}"
            )


def _padded(rec, count):
    """``rec`` extended with a^2 = 1 and b = 0 through row ``count - 1``, which
    leaves its first ``count`` moments unchanged."""
    size = max(count - 1, 1) + 1
    return RecurrenceCoefficients(rec.a2 + (Fraction(1),) * (size - len(rec.a2)),
                                  rec.b + (Fraction(0),) * (size - len(rec.b)), rec.mode, rec.label)


def _drawn_recurrence(drawn, symmetric):
    count, a2, b = drawn
    if symmetric:
        b = [Fraction(0)] * len(b)
    return count, RecurrenceCoefficients((Fraction(0), *a2), tuple(b), RATIONAL)


def _recurrence_draws(max_count):
    """(count, a2, b) long enough for the first ``count`` moments."""
    return st.integers(1, max_count).flatmap(lambda c: st.tuples(
        st.just(c),
        st.lists(positive_fractions, min_size=c // 2, max_size=c // 2),
        st.lists(signed_fractions, min_size=(c + 1) // 2, max_size=(c + 1) // 2),
    ))


#: pairwise coprime small denominators next to large primes, so the common
#: denominator of the integer fill ranges from 1 to about 2^70
_denominators = st.sampled_from([1, 2, 3, 5, 7, 11, 13, 97, 65537, 2**31 - 1])


def _fill_draws(max_n, min_n=0):
    """(n, a2, b): a_1^2..a_{n+1}^2 and b_0..b_n, with b all zero or signed."""
    def coefficients(n, lo):
        return st.lists(st.builds(Fraction, st.integers(lo, 10**4), _denominators),
                        min_size=n + 1, max_size=n + 1)
    return st.integers(min_n, max_n).flatmap(lambda n: st.tuples(
        st.just(n), coefficients(n, 1),
        st.one_of(st.just([Fraction(0)] * (n + 1)), coefficients(n, -10**4))))


def _catalog_draw(family: str, params: dict, n: int) -> tuple:
    """(n, a2, b) of a catalog measure, in the form of :func:`_fill_draws`."""
    rec = recurrence_from_moments(make_moments(FamilySpec(family, 2 * n + 3, params)))
    return n, list(rec.a2[1:n + 2]), list(rec.b[:n + 1])


class TestIntegerFill:
    """The integer fill against the Fraction-stepping oracle."""

    @pytest.mark.parametrize("expand", [False, True])
    @pytest.mark.parametrize("b, a2", [(True, True), (False, True), (True, False)])
    @settings(max_examples=25, deadline=None)
    @given(_fill_draws(45))
    # high orders of two catalog measures, where the numerators grow fastest
    @example(_catalog_draw("uniform", {}, 38))
    @example(_catalog_draw("q-hermite", {"q": Fraction(1, 2)}, 38))
    def test_fill_equals_fraction_oracle(self, expand, b, a2, drawn):
        n, a2s, bs = drawn
        rec = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)
        for r in (rec, rec.to_floats()):
            # the oracle's flags name one side, (a2, b), with absent parts
            side = (r.a2 if a2 else None, r.b if b else None)
            fill = _banded_fill(r.mode, n, **{"source" if expand else "target": side})
            if r.mode == RATIONAL:
                # each row in lowest terms over its own positive denominator
                for row, e in zip(fill.rows, fill.dens):
                    assert e > 0 and math.gcd(e, *row) == 1
            expect = forward_oracle.banded_fill(r, n, "XiZeta", expand=expand, b=b, a2=a2).rows
            # a column reader reduces only the entries it returns
            for j in range(n + 1):
                assert repr(fill.column(j)) == repr([row[j] for row in expect[j:]]), j
            got = fill.table()
            assert got == expect
            # repr pins the type and, in float mode, every bit
            assert repr(got) == repr(expect)

    @pytest.mark.parametrize("symmetric", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(_fill_draws(30), st.integers(0, 5), st.integers(-1, 5), st.integers(1, 4), st.data())
    def test_fill_rows_in_lowest_terms(self, symmetric, drawn, width, left, start, data):
        # every fill steps by _step_scales, a source side over its own scale
        # ds; every row still ends over the lcm of its reduced denominators:
        # target only with and without the report's windows, source only,
        # and a target over a source of another recurrence from row
        # ``start`` > 0, as a linearization fill starts
        n, a2s, bs = drawn
        if symmetric:
            bs = [Fraction(0)] * (n + 1)
        rec = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)
        # the source reads indices below start + n
        _, a2o, bo = data.draw(_fill_draws(n + start, min_n=n + start))
        other = RecurrenceCoefficients((Fraction(0), *a2o), tuple(bo), RATIONAL)
        sides = [{"target": side, **window}
                 for side in ((rec.a2, rec.b), (rec.a2, None), (None, rec.b))
                 for window in ({}, {"band": width}, {"band": width, "left": left})]
        sides += [{"source": side, "start": at}
                  for side in ((other.a2, other.b), (other.a2, None), (None, other.b))
                  for at in (0, start)]
        sides += [{"target": (rec.a2, rec.b), "source": (other.a2, other.b), "start": at}
                  for at in (0, start)]
        for side in sides:
            fill = _banded_fill(RATIONAL, n, **side)
            for row, e in zip(fill.rows, fill.dens):
                assert e > 0 and math.gcd(e, *row) == 1
                assert e == math.lcm(*(Fraction(v, e).denominator for v in row))

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_fill_read_twice_gives_the_same_table(self, mode):
        # no reader changes the fill: a second read of every reader gives
        # the same values as the first
        rec = random_recurrence(random.Random(12), 9)
        rec = rec if mode == RATIONAL else rec.to_floats()
        fill = _banded_fill(mode, 8, target=(rec.a2, rec.b))
        first = fill.table()
        assert repr(fill.table()) == repr(first)
        assert repr([fill.row(m) for m in range(9)]) == repr(first)
        assert repr(fill.column(0)) == repr([row[0] for row in first])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-2**300, 2**300), st.integers(1, 2**300))
    def test_coprime_equals_fraction(self, n, d):
        # _coprime fills the slots of fractions.Fraction directly
        g = math.gcd(n, d)
        n, d = n // g, d // g
        got, want = scalars_module._coprime(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert (got.numerator, got.denominator) == (n, d)
        assert got + 1 == want + 1 and got * got == want * want

    @settings(max_examples=40, deadline=None)
    @given(_fill_draws(16))
    def test_printed_eta_forms_equal_loop_oracle(self, drawn):
        n, a2s, bs = drawn
        rec = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)
        x1, x2 = (forward_oracle.banded_fill(rec, n, "XiZeta", expand=False, b=b, a2=a2)
                  for b, a2 in ((False, True), (True, False)))
        # the library's prefix sums are integers over powers of D, and its
        # printed forms read and yield integer pairs (num, den > 0)
        powers, sums = recurrence_module._prefix_sums(rec, n - 1)
        p1, p2 = (lambda m, j, t=t: (t.rows[m][j].numerator, t.rows[m][j].denominator)
                  for t in (x1, x2))
        got = [Fraction(*v) for v in recurrence_module._eta3_printed(powers, sums, p2, n - 2)]
        assert repr(got) == repr([forward_oracle._eta3_printed(rec, x2, t) for t in range(n - 2)])
        got = [Fraction(*v) for v in recurrence_module._eta4_printed(powers, sums, p1, p2, n - 3)]
        assert repr(got) == repr([forward_oracle._eta4_printed(rec, x1, x2, t)
                                  for t in range(n - 3)])


def _fill_sides(rec):
    """The (target, source) pairs of eta, tau, xi1, xi2, zeta1 and zeta2."""
    return ({"target": (rec.a2, rec.b)}, {"source": (rec.a2, rec.b)},
            {"target": (rec.a2, None)}, {"target": (None, rec.b)},
            {"source": (rec.a2, None)}, {"source": (None, rec.b)})


# the flags (expand, b, a2) of forward_oracle.banded_fill for each report fill
_ORACLE_FLAGS = {"eta": (False, True, True), "tau": (True, True, True),
                 "xi1": (False, False, True), "xi2": (False, True, False),
                 "zeta1": (True, False, True), "zeta2": (True, True, False)}


class TestBandReader:
    """The pair reader on the windows the report reads against the fill's
    full table, and the near-diagonal report that reads through it against
    the full-table one."""

    @pytest.mark.parametrize("symmetric", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(_fill_draws(20), st.integers(0, 5), st.lists(st.integers(0, 20), max_size=2))
    def test_band_equals_table_entries(self, symmetric, drawn, width, columns):
        n, a2s, bs = drawn
        if symmetric:
            bs = [Fraction(0)] * (n + 1)
        rec = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)
        for side in _fill_sides(rec):
            # the band, plus the left columns of a target-only fill
            left = -1 if "source" in side else max(columns, default=-1)
            fill = _banded_fill(RATIONAL, n, band=width, left=left, **side)
            table = _banded_fill(RATIONAL, n, **side).table()
            for m in range(n + 1):
                for j in range(m + 1):
                    if m - j <= width or j <= left:
                        num, den = fill.pair(m, j)
                        assert den > 0 and Fraction(num, den) == table[m][j], (side, m, j)

    @pytest.mark.parametrize("symmetric", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(_fill_draws(16, min_n=3))
    def test_report_equals_full_table_oracle(self, symmetric, drawn):
        n, a2s, bs = drawn
        if symmetric:
            bs = [Fraction(0)] * (n + 1)
        rec = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)

        def summary(report):
            return [(c.name, c.passed, c.checked, repr(c.first_mismatch), c.note)
                    for c in report.checks]

        # rows 0..n of the draw serve the report's fills of order (n - 3) + 4
        got = summary(partial_solutions(rec, n - 3))
        assert got == summary(forward_oracle.partial_solutions(rec, n - 3))
        pure_a2 = all(v == 0 for v in bs)
        assert any(name == "eta_column0_symmetric" for name, *_ in got) == pure_a2

    @pytest.mark.parametrize("fill", sorted(_ORACLE_FLAGS))
    @pytest.mark.parametrize("symmetric", [False, True])
    @settings(max_examples=10, deadline=None)
    @given(_fill_draws(12, min_n=3), st.data())
    def test_damaged_entry_reports_fraction_values(self, symmetric, fill, drawn, data):
        # one entry (m, j) of one report fill, its numerator plus 1, and the
        # oracle's table entry plus 1 / E_m: every check, and the values of
        # its first mismatch, as Fraction arithmetic on the damaged tables
        n, a2s, bs = drawn
        if symmetric:
            bs = [Fraction(0)] * (n + 1)
        rec = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)
        top = n + 1  # the report at order n - 3 fills rows 0..n + 1
        m = data.draw(st.integers(1, top), label="row")
        j = data.draw(st.sampled_from(sorted({max(m - l, 0) for l in range(5)}
                                             | {c for c in (0, 3) if c <= m})), label="col")
        flags, dens = _ORACLE_FLAGS[fill], []
        real_fill, real_oracle = recurrence_module._banded_fill, forward_oracle.banded_fill

        def damaged_fill(mode, steps, **kw):
            out = real_fill(mode, steps, **kw)
            a2, b = kw.get("target", kw.get("source"))
            if ("source" in kw, b is not None, a2 is not None) == flags:
                out.rows[m][j] += 1
                dens.append(out.dens[m])
            return out

        def damaged_oracle(rec, n, role, *, expand, b, a2):
            out = real_oracle(rec, n, role, expand=expand, b=b, a2=a2)
            if (expand, b, a2) == flags:
                out.rows[m][j] += Fraction(1, dens[0])
            return out

        def summary(report):
            return [(c.name, c.passed, c.checked, repr(c.first_mismatch), c.note)
                    for c in report.checks]

        clean = {c.name: c for c in partial_solutions(rec, n - 3).checks}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recurrence_module, "_banded_fill", damaged_fill)
            mp.setattr(forward_oracle, "banded_fill", damaged_oracle)
            got = partial_solutions(rec, n - 3)
            assert dens, "the report made no such fill"
            assert summary(got) == summary(forward_oracle.partial_solutions(rec, n - 3))
        # a check that passes clean and compares the damaged entry as its
        # table value fails at that entry's index
        l, report = m - j, {c.name: c for c in got.checks}
        compared = {}
        if fill in ("eta", "tau") and 1 <= l <= 4:
            compared[f"{fill}_offdiag{l}" + ("_printed" if l > 2 else "")] = j
        if fill in ("eta", "tau") and l <= 4:
            compared[f"{fill}_band_symmetric"] = (j, l)
        if fill == "eta" and j == 0:
            compared["eta_column0_symmetric"] = m
        for name, index in compared.items():
            if name in clean and clean[name].passed:
                assert report[name].first_mismatch[0] == index, name


class TestColumnWindows:
    """Each windowed fill against the full fill, inside its window."""

    @pytest.mark.parametrize("symmetric", [False, True])
    @settings(max_examples=25, deadline=None)
    @given(_fill_draws(20), st.integers(0, 5), st.integers(-1, 5), st.integers(0, 21))
    def test_window_equals_full_fill(self, symmetric, drawn, width, left, beyond):
        n, a2s, bs = drawn
        if symmetric:
            bs = [Fraction(0)] * (n + 1)
        exact = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)
        edge = n + beyond  # the moments fill has edge = n; past 2n it is the triangle
        for rec in (exact, exact.to_floats()):
            for side in _fill_sides(rec):
                full = _banded_fill(rec.mode, n, **side)
                expect = [full.row(m) for m in range(n + 1)]
                windows = [({"band": width}, lambda m, j: m - j <= width),
                           ({"edge": edge}, lambda m, j: j <= edge - m)]
                if "source" not in side:  # the left columns serve target-only fills
                    windows.append(({"band": width, "left": left},
                                    lambda m, j: m - j <= width or j <= left))
                for window, inside in windows:
                    fill = _banded_fill(rec.mode, n, **side, **window)
                    if rec.mode == RATIONAL:
                        for row, e in zip(fill.rows, fill.dens):
                            assert e > 0 and math.gcd(e, *row) == 1
                    for m in range(n + 1):
                        got = fill.row(m)
                        for j in range(m + 1):
                            if inside(m, j):
                                assert repr(got[j]) == repr(expect[m][j]), (side, window, m, j)

    @settings(max_examples=25, deadline=None)
    @given(_fill_draws(30), st.booleans())
    def test_moments_edge_equals_full_tau_column(self, drawn, symmetric):
        # the edge fill reads only the coefficient prefix the moments need
        n, a2s, bs = drawn
        if symmetric:
            bs = [Fraction(0)] * (n + 1)
        rec = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)
        for r in (rec, rec.to_floats()):
            column = [row[0] for row in tau_table(r, n).rows]
            assert repr(moments_from_recurrence(r, n + 1).moments) == repr(tuple(column))


class TestMonicTables:
    def test_diagonals_are_one(self):
        rng = random.Random(2)
        rec = random_recurrence(rng, 8)
        eta = eta_table(rec, 8)
        tau = tau_table(rec, 8)
        for n in range(9):
            assert eta.rows[n][n] == 1
            assert tau.rows[n][n] == 1

    def test_gaussian_cubic_row(self):
        assert eta_table(GAUSSIAN_REC, 3).rows[3] == [0, -3, 0, 1]

    def test_gaussian_monomial_expansion(self):
        # x^3 expands with coefficient 3 on the degree-1 monic polynomial
        assert tau_table(GAUSSIAN_REC, 3).rows[3] == [0, 3, 0, 1]

    def test_constant_b_first_subdiagonal(self):
        rng = random.Random(4)
        a2 = tuple([Fraction(0)] + [Fraction(rng.randint(1, 5)) for _ in range(9)])
        rec = RecurrenceCoefficients(a2, tuple([Fraction(1)] * 10), RATIONAL)
        eta = eta_table(rec, 9)
        tau = tau_table(rec, 9)
        for n in range(9):
            assert eta.rows[n + 1][n] == -(n + 1)
            assert tau.rows[n + 1][n] == n + 1

    def test_subdiagonal_is_partial_b_sum(self):
        rng = random.Random(6)
        rec = random_recurrence(rng, 9)
        tau = tau_table(rec, 9)
        acc = Fraction(0)
        for n in range(9):
            acc += rec.b[n]
            assert tau.rows[n + 1][n] == acc

    def test_tables_are_mutual_inverses(self):
        rng = random.Random(8)
        for _ in range(5):
            rec = random_recurrence(rng, 10)
            eta = eta_table(rec, 10)
            tau = tau_table(rec, 10)
            for prod in (tri_multiply(eta, tau), tri_multiply(tau, eta)):
                for i in range(11):
                    for j in range(i + 1):
                        assert prod.rows[i][j] == (1 if i == j else 0)


class TestAuxiliaryTables:
    def test_pure_a2_gap_example(self):
        # with a^2 = (1, 2, 3): entry four rows below the diagonal start is
        # the single admissible gap pair a_1^2 * a_3^2 = 3
        rec = RecurrenceCoefficients(
            (Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
            (Fraction(0),) * 4,
            RATIONAL,
        )
        aux = aux_tables(rec, 4)
        assert aux.xi1.rows[4][0] == 3

    def test_signed_b_sums_subdiagonal(self):
        rec = RecurrenceCoefficients(
            (Fraction(0), Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(2), Fraction(3), Fraction(0)),
            RATIONAL,
        )
        aux = aux_tables(rec, 4)
        assert aux.xi2.rows[4][3] == -6

    def test_equal_b_binomial_counts(self):
        c = Fraction(2, 3)
        rec = RecurrenceCoefficients(
            tuple([Fraction(0)] + [Fraction(1)] * 9), tuple([c] * 10), RATIONAL
        )
        aux = aux_tables(rec, 9)
        for n in range(6):
            for j in range(9 - n):
                assert aux.zeta2.rows[n + j][n] == comb(n + j, j) * c**j

    def test_recursion_equals_closed_forms_random(self):
        rng = random.Random(10)
        for _ in range(8):
            rec = random_recurrence(rng, 10)
            assert aux_tables(rec, 10).agree()

    def test_closed_forms_match_brute_force(self):
        rng = random.Random(12)
        rec = random_recurrence(rng, 8)
        aux = aux_tables(rec, 8)
        for row in range(9):
            for col in range(row + 1):
                assert aux.xi1_closed.rows[row][col] == gap_subset_sum(rec.a2, row, col)
                assert aux.zeta2_closed.rows[row][col] == multiset_sum(rec.b, row, col)

    def test_odd_gap_entries_vanish(self):
        rng = random.Random(14)
        rec = random_recurrence(rng, 10)
        aux = aux_tables(rec, 10)
        for row in range(11):
            for col in range(row + 1):
                if (row - col) % 2 == 1:
                    assert aux.xi1.rows[row][col] == 0
                    assert aux.zeta1.rows[row][col] == 0


    @settings(max_examples=40, deadline=None)
    @given(_fill_draws(16), st.booleans())
    def test_closed_fills_equal_per_entry_oracle(self, drawn, symmetric):
        # pairwise coprime denominators up to 2^31 - 1 make D^k large
        n, a2, b = drawn
        if symmetric:
            b = [Fraction(0)] * (n + 1)
        rec = RecurrenceCoefficients((Fraction(0), *a2), tuple(b), RATIONAL)
        for fill, oracle in ((recurrence_module._xi1_closed, closed_xi1),
                             (recurrence_module._xi2_closed, closed_xi2),
                             (recurrence_module._zeta1_closed, closed_zeta1),
                             (recurrence_module._zeta2_closed, closed_zeta2)):
            closed, name = fill(rec, n), fill.__name__
            assert len(closed.rows) == n + 1, name
            for row in range(n + 1):
                expect = [oracle(rec, row, col) for col in range(row + 1)]
                assert repr(closed.row(row)) == repr(expect), (name, row)

    def test_closed_fills_equal_per_entry_oracle_at_30(self):
        # past the orders the property test draws
        rec = random_recurrence(random.Random(17), 30)
        for fill, oracle in ((recurrence_module._xi1_closed, closed_xi1),
                             (recurrence_module._xi2_closed, closed_xi2),
                             (recurrence_module._zeta1_closed, closed_zeta1),
                             (recurrence_module._zeta2_closed, closed_zeta2)):
            closed = fill(rec, 30)
            for row in range(31):
                expect = [oracle(rec, row, col) for col in range(row + 1)]
                assert closed.row(row) == expect, (fill.__name__, row)

    @pytest.mark.parametrize("build", [aux_tables, partial_solutions, eta_table, tau_table])
    def test_negative_order_rejected(self, build):
        rec = random_recurrence(random.Random(15), 6)
        with pytest.raises(ValueError, match="non-negative"):
            build(rec, -1)

    def test_short_a2_rejected(self):
        rec = RecurrenceCoefficients(
            (Fraction(0), Fraction(1), Fraction(2)), (Fraction(0),) * 8, RATIONAL
        )
        with pytest.raises(ValueError, match="a_k\\^2 up to k = 2"):
            aux_tables(rec, 4)


def _index_sequences(n: int, k: int, gap: int):
    """Every (j_1, ..., j_k) with 0 <= j_m < n and j_{m+1} - j_m >= gap."""
    if k == 0:
        yield ()
        return
    for head in _index_sequences(n, k - 1, gap):
        for j in range(max(head[-1] + gap, 0) if head else 0, n):
            yield (*head, j)


class TestIndexSums:
    """The one sweep behind the four closed fills, against enumeration."""

    @pytest.mark.parametrize("gap", [2, 1, 0, -1])
    @pytest.mark.parametrize("n", range(8))
    def test_levels_equal_enumerated_sums(self, gap, n):
        rng = random.Random(100 * n + gap)
        # signed, with C_0 != 0: the sweep reads slot 0 as any other
        seq = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
               for _ in range(n + 2)]
        depth = n  # the readers of gaps 2 and -1 stop at n // 2
        d, levels = recurrence_module._index_sums(seq, n, gap, depth)
        assert d == math.lcm(*(v.denominator for v in seq[:n]))
        assert len(levels) == depth + 1
        assert levels[0] == [1] * (n + 4)  # S_0 = 1 at h = -2 .. n + 1
        for k in range(1, depth + 1):
            top = n - 1 if gap >= 0 else n - k
            sums = [Fraction(0)] * (top + 3)  # S_k(h) at index h + 2
            for js in _index_sequences(n, k, gap):
                term = prod(seq[j] for j in js)
                for h in range(js[-1], top + 1):
                    sums[h + 2] += term
            assert levels[k] == [s * d**k for s in sums], (k, levels[k])


class TestAuxBuildCounts:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = recurrence_module.aux_tables

        def counting(rec, n):
            calls.append(n)
            return real(rec, n)

        monkeypatch.setattr(recurrence_module, "aux_tables", counting)
        monkeypatch.setattr(cli_module, "aux_tables", counting)
        return calls

    def test_partial_solutions_builds_no_closed_fills(self, calls):
        rec = random_recurrence(random.Random(17), 12)
        assert partial_solutions(rec, 6).checks
        assert calls == []

    def test_cli_builds_closed_fills_once_per_draw(self, calls, capsys):
        argv = ["recurrence", "--verify-closed-forms", "8", "--draws", "2"]
        assert cli_module.main(argv) == 0
        assert len(json.loads(capsys.readouterr().out)["draws"]) == 2
        assert calls == [8, 8]


def _table_scan(aux):
    """First mismatch of the eight materialized tables, entry by entry."""
    for name, rec_t, closed_t in aux.pairs():
        for i, (row, closed_row) in enumerate(zip(rec_t.rows, closed_t.rows)):
            for j, (a, b) in enumerate(zip(row, closed_row)):
                if a != b:
                    return (name, i, j, a, b)
    return None


class TestAuxComparison:
    """``first_mismatch`` on integers against a scan over the printed tables."""

    TABLES = ("xi1", "xi2", "zeta1", "zeta2",
              "xi1_closed", "xi2_closed", "zeta1_closed", "zeta2_closed")

    @pytest.mark.parametrize("seed", range(6))
    def test_first_mismatch_equals_table_scan(self, seed):
        rec = random_recurrence(random.Random(40 + seed), 12, symmetric=seed % 3 == 0)
        aux = aux_tables(rec, 11)
        assert aux.first_mismatch() is None and aux.agree()
        assert _table_scan(aux) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_corrupted_closed_numerator_reported_in_place(self, seed):
        rng = random.Random(50 + seed)
        rec = random_recurrence(rng, 12, symmetric=seed % 2 == 0)
        aux = aux_tables(rec, 11)
        k, i = rng.randrange(4), rng.randrange(12)
        j = rng.randrange(i + 1)
        aux._fills[4 + k].rows[i][j] += rng.choice((-1, 1))
        got = aux.first_mismatch()
        assert got[:3] == (AuxTables.NAMES[k], i, j)
        assert not aux.agree()
        # the tables are reduced from the same (corrupted) numerators
        assert repr(got) == repr(_table_scan(aux))
        assert all(type(v) is Fraction for v in got[3:])

    def test_comparison_builds_no_table(self, monkeypatch):
        built = []
        real = recurrence_module.TriangularTable

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(recurrence_module, "TriangularTable", counting)
        aux = aux_tables(random_recurrence(random.Random(60), 12), 11)
        assert aux.agree() and aux.first_mismatch() is None
        assert built == [] and not set(vars(aux)) & set(self.TABLES)
        # a table is built on first read, then cached
        assert aux.zeta2 is aux.zeta2 and len(built) == 1
        assert set(vars(aux)) & set(self.TABLES) == {"zeta2"}


_SHORT_A2 = RecurrenceCoefficients((Fraction(0), Fraction(1), Fraction(2)),
                                   (Fraction(0),) * 8, RATIONAL, "s")
_SHORT_B = RecurrenceCoefficients((Fraction(0),) + (Fraction(1),) * 8,
                                  (Fraction(1), Fraction(2)), RATIONAL, "t")


class TestBoundaryErrors:
    """The ValueError texts of recurrences too short, and of negative orders."""

    @pytest.mark.parametrize("build, rec, n, message", [
        (partial_solutions, _SHORT_A2, -1, "table order must be non-negative, got -1"),
        (aux_tables, _SHORT_B, -1, "table order must be non-negative, got -1"),
        # partial_solutions checks order n, then the fills' order n + 4
        (partial_solutions, _SHORT_A2, 0, "recurrence 's' provides a_k^2 up to k = 2, need k = 3"),
        (partial_solutions, _SHORT_A2, 5, "recurrence 's' provides a_k^2 up to k = 2, need k = 4"),
        (partial_solutions, _SHORT_B, 1, "recurrence 't' provides b_k up to k = 1, need k = 4"),
        (partial_solutions, _SHORT_B, 3, "recurrence 't' provides b_k up to k = 1, need k = 2"),
        (aux_tables, _SHORT_A2, 4, "recurrence 's' provides a_k^2 up to k = 2, need k = 3"),
        (aux_tables, _SHORT_B, 5, "recurrence 't' provides b_k up to k = 1, need k = 4"),
        (moments_from_recurrence, _SHORT_A2, 0, "count must be at least 1"),
        (moments_from_recurrence, _SHORT_A2, 7,
         "7 moments need a_k^2 up to k = 3; recurrence stops at k = 2"),
        (moments_from_recurrence, _SHORT_B, 6,
         "6 moments need b_k up to k = 2; recurrence stops at k = 1"),
        (moments_from_recurrence, _SHORT_B, 20,
         "20 moments need a_k^2 up to k = 9; recurrence stops at k = 8"),
    ])
    def test_message(self, build, rec, n, message):
        with pytest.raises(ValueError) as info:
            build(rec, n)
        assert str(info.value) == message

    @pytest.mark.parametrize("make, message", [
        (lambda: RecurrenceCoefficients((), (), RATIONAL), "a2 must start with the a_0 = 0 slot"),
        (lambda: RecurrenceCoefficients((Fraction(1), Fraction(2)), (Fraction(0),) * 2, RATIONAL),
         "a2 must start with the a_0 = 0 slot"),
        (lambda: RecurrenceCoefficients((Fraction(0), Fraction(1), Fraction(0)),
                                        (Fraction(0),) * 3, RATIONAL),
         "a_k\\^2 must be positive"),
        (lambda: RecurrenceCoefficients((0.0, -0.5), (0.0, 0.0), FLOAT), "a_k\\^2 must be positive"),
        # rational mode tests the sign of the numerator, of a Fraction or an int
        (lambda: RecurrenceCoefficients((Fraction(0), Fraction(1), Fraction(-1, 3)),
                                        (Fraction(0),) * 3, RATIONAL),
         "a_k\\^2 must be positive"),
        (lambda: RecurrenceCoefficients((0, 2, -2), (0, 0, 0), RATIONAL), "a_k\\^2 must be positive"),
        (lambda: recurrence_module.recurrence_from_dict([["0", "1"], ["0", "0"]]),
         "recurrence file must be an object with 'a2' and 'b' lists"),
    ], ids=["empty", "no-a0-slot", "zero-a2", "negative-float-a2", "negative-fraction-a2",
            "negative-int-a2", "list"])
    def test_malformed_coefficients_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("entry", [10**400, "1e400"], ids=["int", "str"])
    def test_float_overflow_refused(self, entry):
        with pytest.raises(ValueError, match="^cannot interpret .* as a finite float scalar$"):
            recurrence_module.recurrence_from_dict({"a2": [0, entry], "b": [0, 0]}, FLOAT)

    def test_float_recurrence_converts_to_itself(self):
        rec = _SHORT_A2.to_floats()
        assert rec.mode == FLOAT and rec.to_floats() is rec

    @pytest.mark.parametrize("rec, count", [(_SHORT_A2, 6), (_SHORT_B, 5)])
    def test_moments_need_only_their_prefix(self, rec, count):
        # the longest count each recurrence serves, read with no padding
        m = moments_from_recurrence(rec, count)
        padded = _padded(rec, count)  # the lattice-path oracle reads past the prefix
        assert list(m.moments) == [motzkin_moment(padded, j) for j in range(count)]


class TestNearDiagonalReport:
    def test_float_recurrence_refused(self):
        # exact identities compared with != would fail on rounding alone
        rec = random_recurrence(random.Random(31), 12).to_floats()
        with pytest.raises(ValueError, match="exact identities"):
            partial_solutions(rec, 6)

    def test_float_aux_tables_refused(self):
        # rounding alone made the recursion and closed fills of most float
        # draws disagree under !=
        rec = random_recurrence(random.Random(31), 12).to_floats()
        with pytest.raises(ValueError, match="exact identities"):
            aux_tables(rec, 6)

    def test_exact_identities_pass_and_misprints_fail(self):
        rng = random.Random(16)
        rec = random_recurrence(rng, 12)
        report = partial_solutions(rec, 6)
        assert report.passed("eta_offdiag1")
        assert report.passed("tau_offdiag1")
        assert report.passed("eta_offdiag2")
        assert report.passed("tau_offdiag2")
        assert report.passed("tau_offdiag3_printed")
        assert report.passed("tau_offdiag4_printed")
        # documented misprints: the printed degree-3/4 eta formulas disagree
        # with the recursion tables for generic nonsymmetric coefficients
        assert not report.passed("eta_offdiag3_printed")
        assert not report.passed("eta_offdiag4_printed")
        failing = next(c for c in report.checks if c.name == "eta_offdiag3_printed")
        assert failing.first_mismatch is not None

    def test_symmetric_case_closes_every_form(self):
        rng = random.Random(18)
        rec = random_recurrence(rng, 12, symmetric=True)
        report = partial_solutions(rec, 6)
        for check in report.checks:
            if check.name == "eta_offdiag3_printed":
                # the printed column-3 index is wrong even here: it injects a
                # spurious 1 at base index 0
                assert not check.passed
                assert check.first_mismatch[0] == 0
            else:
                assert check.passed, check
        assert report.passed("eta_column0_symmetric")
        assert report.passed("eta_band_symmetric")
        assert report.passed("tau_band_symmetric")

    def test_symmetric_band_reduces_to_pure_a2_tables(self):
        rng = random.Random(20)
        rec = random_recurrence(rng, 11, symmetric=True)
        eta = eta_table(rec, 11)
        tau = tau_table(rec, 11)
        aux = aux_tables(rec, 11)
        for t in range(7):
            for l in range(5):
                assert eta.rows[t + l][t] == aux.xi1.rows[t + l][t]
                assert tau.rows[t + l][t] == aux.zeta1.rows[t + l][t]


class TestMomentsFromRecurrence:
    def test_first_moment_is_b0(self):
        rng = random.Random(22)
        rec = random_recurrence(rng, 4)
        assert moments_from_recurrence(rec, 2).m(1) == rec.b[0]

    def test_symmetric_fourth_moment(self):
        m = moments_from_recurrence(GAUSSIAN_REC, 5)
        assert m.m(4) == GAUSSIAN_REC.a2[1] * (GAUSSIAN_REC.a2[1] + GAUSSIAN_REC.a2[2])
        assert m.m(4) == 3

    def test_uniform_fourth_moment(self):
        rec = RecurrenceCoefficients(
            (Fraction(0), Fraction(1, 3), Fraction(4, 15)),
            (Fraction(0), Fraction(0), Fraction(0)),
            RATIONAL,
        )
        assert moments_from_recurrence(rec, 5).m(4) == Fraction(1, 5)

    def test_against_lattice_path_oracle(self):
        rng = random.Random(24)
        for _ in range(5):
            rec = random_recurrence(rng, 6)
            m = moments_from_recurrence(rec, 9)
            for j in range(9):
                assert m.m(j) == motzkin_moment(rec, j)

    def test_catalog_round_trip(self, catalog_moments):
        for fam in CATALOG:
            m = catalog_moments[fam]
            rec = recurrence_from_moments(m)
            back = moments_from_recurrence(rec, len(m))
            assert back.moments == m.moments

    def test_random_round_trip_both_parities(self):
        rng = random.Random(26)
        for count in (19, 20):
            rec = random_recurrence(rng, count)
            m = moments_from_recurrence(rec, count)
            extracted = recurrence_from_moments(m)
            regenerated = moments_from_recurrence(extracted, count)
            assert regenerated.moments == m.moments

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(positive_fractions, min_size=n + 1, max_size=n + 1),
        st.lists(signed_fractions, min_size=n + 1, max_size=n + 1))), st.booleans())
    def test_round_trip_property(self, drawn, symmetric):
        # 2n + 2 moments pin a_1..a_n and b_0..b_n; a_{n+1} is drawn but not pinned
        n, a2, b = drawn
        if symmetric:
            b = [Fraction(0)] * (n + 1)
        rec = RecurrenceCoefficients((Fraction(0), *a2), tuple(b), RATIONAL)
        back = recurrence_from_moments(moments_from_recurrence(rec, 2 * n + 2))
        assert back.a2 == rec.a2[: n + 1]
        assert back.b == rec.b[: n + 1]

    def test_minimal_prefix_suffices(self):
        # m_0..m_8 depend on a_1..a_4 and b_0..b_3 only
        rng = random.Random(28)
        rec = random_recurrence(rng, 4)
        short = RecurrenceCoefficients(rec.a2[:5], rec.b[:4], RATIONAL)
        long_rng = random.Random(30)
        tail = random_recurrence(long_rng, 12)
        long = RecurrenceCoefficients(
            rec.a2[:5] + tail.a2[5:], rec.b[:4] + tail.b[4:], RATIONAL
        )
        assert (
            moments_from_recurrence(short, 9).moments
            == moments_from_recurrence(long, 9).moments
        )

    def test_insufficient_coefficients_rejected(self):
        rec = RecurrenceCoefficients((Fraction(0), Fraction(1)), (Fraction(0),), RATIONAL)
        with pytest.raises(ValueError):
            moments_from_recurrence(rec, 6)

    @settings(max_examples=40, deadline=None)
    @given(_recurrence_draws(10), st.booleans())
    def test_equals_lattice_path_oracle_property(self, drawn, symmetric):
        count, rec = _drawn_recurrence(drawn, symmetric)
        m = moments_from_recurrence(rec, count)
        assert list(m.moments) == [motzkin_moment(rec, j) for j in range(count)]

    @settings(max_examples=40, deadline=None)
    @given(_recurrence_draws(30))
    def test_symmetric_shortcut_oracle_holds(self, drawn):
        count, rec = _drawn_recurrence(drawn, symmetric=True)
        padded = _padded(rec, count)
        moments = moments_from_recurrence(rec, count).moments
        _check_symmetric_shortcut(padded, eta_table(padded, count - 1), moments)

    def test_float_hermite_to_count_121(self):
        rec = RecurrenceCoefficients(
            tuple(float(k) for k in range(61)), (0.0,) * 61, FLOAT
        )
        m = moments_from_recurrence(rec, 121)
        for k in range(61):
            # m_2k = (2k - 1)!!, and every odd moment vanishes
            assert m.m(2 * k) == pytest.approx(prod(range(1, 2 * k, 2)), rel=1e-13)
            if k < 60:
                assert m.m(2 * k + 1) == 0

    def test_float_q_hermite_to_count_121(self):
        exact = make_moments(FamilySpec("q-hermite", 121, {"q": Fraction(1, 2)}))
        approx = make_moments(FamilySpec("q-hermite", 121, {"q": 0.5}), FLOAT)
        assert approx.mode == FLOAT
        for e, f in zip(exact.moments, approx.moments):
            assert f == pytest.approx(float(e), rel=1e-13, abs=0.0)

    def test_q_hermite_family_uses_recurrence(self):
        m = make_moments(FamilySpec("q-hermite", 7, {"q": Fraction(1, 2)}))
        # fourth moment is [1]([1] + [2]) = 1 * (1 + 3/2)
        assert m.m(4) == Fraction(5, 2)
