"""Monic tables, auxiliary closed forms, near-diagonal reports, moment recovery."""

import itertools
import json
import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
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
from momentpoly.recurrence import _aux_recursions, _banded_fill, _padded
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


def _fill_draws(max_n):
    """(n, a2, b): a_1^2..a_{n+1}^2 and b_0..b_n, with b all zero or signed."""
    def coefficients(n, lo):
        return st.lists(st.builds(Fraction, st.integers(lo, 10**4), _denominators),
                        min_size=n + 1, max_size=n + 1)
    return st.integers(0, max_n).flatmap(lambda n: st.tuples(
        st.just(n), coefficients(n, 1),
        st.one_of(st.just([Fraction(0)] * (n + 1)), coefficients(n, -10**4))))


class TestIntegerFill:
    """The integer fill against the Fraction-stepping oracle."""

    @pytest.mark.parametrize("expand", [False, True])
    @pytest.mark.parametrize("b, a2", [(True, True), (False, True), (True, False)])
    @settings(max_examples=25, deadline=None)
    @given(_fill_draws(45))
    def test_fill_equals_fraction_oracle(self, expand, b, a2, drawn):
        n, a2s, bs = drawn
        rec = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)
        for r in (rec, rec.to_floats()):
            got = _banded_fill(r, n, "XiZeta", expand=expand, b=b, a2=a2).rows
            expect = forward_oracle.banded_fill(r, n, "XiZeta", expand=expand, b=b, a2=a2).rows
            assert got == expect
            # repr pins the type and, in float mode, every bit
            assert repr(got) == repr(expect)

    @settings(max_examples=40, deadline=None)
    @given(_fill_draws(16))
    def test_printed_eta_forms_equal_loop_oracle(self, drawn):
        n, a2s, bs = drawn
        rec = RecurrenceCoefficients((Fraction(0), *a2s), tuple(bs), RATIONAL)
        x1, x2, _, _ = _aux_recursions(rec, n)
        for t in range(n - 2):
            got = recurrence_module._eta3_printed(rec, x2, t)
            assert got == forward_oracle._eta3_printed(rec, x2, t), t
        for t in range(n - 3):
            got = recurrence_module._eta4_printed(rec, x1, x2, t)
            assert got == forward_oracle._eta4_printed(rec, x1, x2, t), t


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
    @given(
        st.integers(0, 10).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(positive_fractions, min_size=n + 1, max_size=n + 1),
            st.lists(signed_fractions, min_size=n + 1, max_size=n + 1),
        )),
        st.booleans(),
        st.sampled_from([RATIONAL, FLOAT]),
    )
    def test_closed_fills_equal_per_entry_oracle(self, drawn, symmetric, mode):
        n, a2, b = drawn
        if symmetric:
            b = [Fraction(0)] * (n + 1)
        rec = RecurrenceCoefficients((Fraction(0), *a2), tuple(b), RATIONAL)
        if mode == FLOAT:
            rec = rec.to_floats()
        aux = aux_tables(rec, n)
        for name, oracle in (("xi1_closed", closed_xi1), ("xi2_closed", closed_xi2),
                             ("zeta1_closed", closed_zeta1),
                             ("zeta2_closed", closed_zeta2)):
            rows = getattr(aux, name).rows
            assert len(rows) == n + 1, name
            for row in range(n + 1):
                expect = [oracle(rec, row, col) for col in range(row + 1)]
                assert repr(rows[row]) == repr(expect), (name, row)

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


class TestNearDiagonalReport:
    def test_float_recurrence_refused(self):
        # exact identities compared with != would fail on rounding alone
        rec = random_recurrence(random.Random(31), 12).to_floats()
        with pytest.raises(ValueError, match="exact identities"):
            partial_solutions(rec, 6)

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
