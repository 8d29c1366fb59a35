"""q-brackets, q-Hermite polynomials, and the bivariate kernel identity."""

import math
from fractions import Fraction

import pytest

from momentpoly import (
    QBracketCache,
    QParams,
    al_salam_chihara_recurrence,
    build_system,
    eta_table,
    moment_inner_product,
    moments_from_recurrence,
    pm_grid_report,
    pm_product,
    pm_series,
    q_bracket,
    q_factorial,
    q_hermite,
    q_hermite_recurrence,
    q_pochhammer,
    rn_expansion,
)
from momentpoly.qkernel import q_hermite_values
from momentpoly.scalars import FLOAT, RATIONAL, exact_sqrt, one, scalar_sqrt


class TestBrackets:
    def test_half_bracket(self):
        assert q_bracket(3, Fraction(1, 2)) == Fraction(7, 4)

    def test_unit_q_counts(self):
        for n in range(6):
            assert q_bracket(n, 1) == n
            assert q_bracket(n, Fraction(1)) == n
            assert q_bracket(n, 1.0) == float(n) and isinstance(q_bracket(n, 1.0), float)

    def test_factorial_base_case(self):
        assert q_factorial(0, Fraction(1, 3)) == 1
        assert q_factorial(3, Fraction(1, 2)) == Fraction(1) * Fraction(3, 2) * Fraction(7, 4)

    def test_pochhammer_empty_product(self):
        assert q_pochhammer(Fraction(2, 3), 0, Fraction(1, 2)) == 1

    def test_pochhammer_values(self):
        q = Fraction(1, 2)
        a = Fraction(1, 4)
        assert q_pochhammer(a, 2, q) == (1 - a) * (1 - a * q)

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_a_float_parameter_switches_to_float_mode(self, n):
        # one float among exact parameters gives the bits of the all-float call
        def bits(values):
            return [v.hex() for v in values]

        assert (q_pochhammer(0.25, n, Fraction(1, 2)).hex()
                == q_pochhammer(0.25, n, 0.5).hex())
        for orthonormal in (False, True):
            assert bits(q_hermite_values(n, 0.7, Fraction(1, 3), orthonormal)) == bits(
                q_hermite_values(n, 0.7, float(Fraction(1, 3)), orthonormal))
        mixed = al_salam_chihara_recurrence(1.0, Fraction(3, 10), Fraction(1, 2), n + 1)
        floats = al_salam_chihara_recurrence(1.0, 0.3, 0.5, n + 1)
        assert mixed.mode == FLOAT
        assert bits(mixed.a2 + mixed.b) == bits(floats.a2 + floats.b)

    def test_cache_consistency(self):
        cache = QBracketCache(Fraction(1, 3))
        for n in range(8):
            assert cache.bracket(n) == q_bracket(n, Fraction(1, 3))
            assert cache.factorial(n) == q_factorial(n, Fraction(1, 3))
        assert cache.pochhammer(Fraction(1, 2), 3) == q_pochhammer(
            Fraction(1, 2), 3, Fraction(1, 3)
        )


class TestQHermite:
    def test_degree_two_is_q_independent(self):
        for q in (Fraction(-1, 2), Fraction(0), Fraction(3, 4)):
            x = Fraction(5, 7)
            assert q_hermite(2, x, q) == x * x - 1

    def test_q_zero_at_origin_alternates(self):
        for k in range(6):
            assert q_hermite(2 * k, Fraction(0), Fraction(0)) == (-1) ** k
            assert q_hermite(2 * k + 1, Fraction(0), Fraction(0)) == 0

    def test_classical_limit_matches_probabilists_rows(self):
        # at q = 1 the bracket recurrence is the probabilists' one
        from momentpoly import RecurrenceCoefficients
        from momentpoly.scalars import RATIONAL

        rec = RecurrenceCoefficients(
            tuple(Fraction(k) for k in range(9)), (Fraction(0),) * 9, RATIONAL
        )
        rows = eta_table(rec, 6).rows
        x = Fraction(2, 3)
        for n in range(7):
            direct = sum(rows[n][i] * x**i for i in range(n + 1))
            assert q_hermite(n, x, 1) == direct

    def test_continuity_toward_classical(self):
        x = 0.8
        for n in range(9):
            near = q_hermite(n, x, 1.0 - 1e-8)
            classical = q_hermite(n, x, 1)
            assert near == pytest.approx(classical, rel=1e-5, abs=1e-5)

    def test_orthonormal_scaling(self):
        q = Fraction(1, 2)
        vals = q_hermite_values(4, Fraction(1, 3), q, orthonormal=True)
        raw = q_hermite_values(4, Fraction(1, 3), q)
        for n in range(5):
            assert vals[n] == raw[n] / exact_sqrt(q_factorial(n, q))

    @pytest.mark.parametrize("n, x, q", [
        (0, Fraction(1, 3), Fraction(1, 2)),
        (9, Fraction(1, 3), Fraction(1, 2)),
        (8, Fraction(-2, 5), Fraction(-3, 4)),
        (7, Fraction(3, 2), 1),
        (6, Fraction(1, 2), 0.4),
        (60, 0.7, 0.5),
        (40, -1.3, Fraction(1, 3)),
        (30, 1.1, 1.0),
    ])
    def test_orthonormal_values_equal_per_degree_brackets(self, n, x, q):
        # the running [j]_q! must reproduce q_bracket's values exactly
        mode = FLOAT if isinstance(x, float) or isinstance(q, float) else RATIONAL
        qv = float(q) if mode == FLOAT else q
        fact, expect = one(mode), []
        for j, v in enumerate(q_hermite_values(n, x, q)):
            if j:
                fact = fact * q_bracket(j, qv)
            expect.append(v / scalar_sqrt(fact, mode))
        assert q_hermite_values(n, x, q, orthonormal=True) == expect

    def test_orthonormality_under_moment_functional(self):
        q = Fraction(2, 5)
        rec = q_hermite_recurrence(q, 14)
        m = moments_from_recurrence(rec, 13)
        rows = eta_table(rec, 6).rows
        for i in range(7):
            for j in range(i + 1):
                inner = moment_inner_product(m, rows[i], rows[j])
                expect = q_factorial(i, q) if i == j else 0
                assert inner == expect


class TestKernelIdentity:
    def test_zero_correlation_collapses_both_sides(self):
        p = QParams(q=0.5, rho=0.0)
        assert pm_product(0.7, -0.3, p) == pytest.approx(1.0, abs=1e-14)
        assert pm_series(0.7, -0.3, p).value == pytest.approx(1.0, abs=1e-14)

    def test_free_case_geometric_series(self):
        p = QParams(q=0.0, rho=0.3)
        expect = 1.0 / (1.0 - 0.09)
        assert pm_product(0.0, 0.0, p) == pytest.approx(expect, rel=1e-12)
        assert pm_series(0.0, 0.0, p).value == pytest.approx(expect, rel=1e-12)

    def test_product_equals_series_at_reference_point(self):
        p = QParams(q=0.5, rho=0.3)
        prod = pm_product(1.0, 1.0, p)
        ser = pm_series(1.0, 1.0, p)
        assert abs(prod - ser.value) < 1e-10

    def test_grid_agreement_with_negative_q(self):
        p = QParams(q=-0.5, rho=0.9)
        report = pm_grid_report(p)
        assert max(pt.error for pt in report) < 1e-8

    def test_support_bound_enforced(self):
        p = QParams(q=0.5, rho=0.3)
        assert p.support_bound == pytest.approx(2.0 / math.sqrt(0.5))
        with pytest.raises(ValueError):
            pm_product(5.0, 0.0, p)
        with pytest.raises(ValueError):
            pm_series(0.0, -5.0, p)

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            QParams(q=1.0, rho=0.5)
        with pytest.raises(ValueError):
            QParams(q=0.5, rho=-1.0)

    @pytest.mark.parametrize("q, rho, message", [
        (Fraction(1), Fraction(1, 2), r"\|q\| < 1 required, got 1"),
        (-1.5, 0.5, r"\|q\| < 1 required, got -1.5"),
        (Fraction(1, 2), Fraction(-1), r"\|rho\| < 1 required, got -1"),
        (0.5, 1.0, r"\|rho\| < 1 required, got 1.0"),
    ])
    def test_al_salam_chihara_domains(self, q, rho, message):
        with pytest.raises(ValueError, match=message):
            al_salam_chihara_recurrence(0, rho, q, 6)

    def test_nonpositive_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            pm_product(0.0, 0.0, QParams(q=0.5, rho=0.3), tol=0)

    def test_series_magnitude_measures_cancellation(self):
        # H_j(-x) = (-1)^j H_j(x): the terms at (x, -x) are those at (x, x)
        # with alternating signs, all positive at (x, x)
        p = QParams(q=0.5, rho=0.9)
        same, opposite = pm_series(1.5, 1.5, p), pm_series(1.5, -1.5, p)
        assert same.magnitude == same.value
        assert opposite.magnitude == same.magnitude
        assert abs(opposite.value) < 1e-2 * opposite.magnitude

    def test_relative_error_scales_by_larger_side(self):
        report = pm_grid_report(QParams(q=0.9, rho=0.9))
        worst = max(report, key=lambda pt: pt.error)
        assert worst.error > 1.0
        assert max(pt.relative_error for pt in report) < 1e-10

    def test_term_counts_grow_with_correlation(self):
        x = y = 1.0
        low = pm_series(x, y, QParams(q=0.5, rho=0.1), tol=1e-12).terms
        high = pm_series(x, y, QParams(q=0.5, rho=0.9), tol=1e-12).terms
        assert high > low


def pm_series_per_term(x, y, p, tol=1e-12):
    """pm_series as first written: [j]_q and [j-1]_q recomputed per term."""
    q, rho = float(p.q), float(p.rho)
    hx_prev, hx = 0.0, 1.0
    hy_prev, hy = 0.0, 1.0
    total = magnitude = 1.0
    rho_pow = 1.0
    fact = 1.0
    small_run = 0
    for j in range(1, 10**4):
        bracket = q_bracket(j, q)
        hx_prev, hx = hx, x * hx - q_bracket(j - 1, q) * hx_prev
        hy_prev, hy = hy, y * hy - q_bracket(j - 1, q) * hy_prev
        rho_pow *= rho
        fact *= bracket
        term = rho_pow / fact * hx * hy
        total += term
        magnitude += abs(term)
        small_run = small_run + 1 if abs(term) < tol else 0
        if small_run >= 4 and j >= 4:
            return total, j + 1, magnitude
    raise AssertionError("reference series did not converge")


@pytest.mark.parametrize("q, rho, x, y", [
    (0.5, 0.3, 1.0, 1.0),
    (0.9, 0.9, 6.0, -6.0),
    (-0.5, 0.9, 1.2, 0.4),
    (0.0, -0.4, 1.9, -1.1),
    (0.8, 0.8, -3.5, 2.25),
    (0.3, 0.6, 0.0, 0.0),
])
def test_series_matches_per_term_brackets(q, rho, x, y):
    ser = pm_series(x, y, QParams(q=q, rho=rho))
    assert (ser.value, ser.terms, ser.magnitude) == pm_series_per_term(
        x, y, QParams(q=q, rho=rho))


class TestConditionalMeasure:
    def test_norms_match_pochhammer_product(self):
        q, rho, y = Fraction(1, 2), Fraction(3, 10), Fraction(1)
        rec = al_salam_chihara_recurrence(y, rho, q, 8)
        prod = Fraction(1)
        for n in range(1, 7):
            prod *= rec.a2[n]
            assert prod == q_factorial(n, q) * q_pochhammer(rho * rho, n, q)

    def test_expectations_reproduce_scaled_values(self):
        # the expectation of H_n under the conditional measure is rho^n H_n(y)
        q, rho, y = Fraction(1, 2), Fraction(3, 10), Fraction(1)
        rec = al_salam_chihara_recurrence(y, rho, q, 16)
        m = moments_from_recurrence(rec, 15)
        hq = eta_table(q_hermite_recurrence(q, 16), 7).rows
        for n in range(8):
            got = sum(hq[n][i] * m.m(i) for i in range(n + 1))
            assert got == rho**n * q_hermite(n, y, q)

    def test_expansion_coefficients_closed_form(self):
        q, rho, y = Fraction(1, 2), Fraction(3, 10), Fraction(1)
        alpha = moments_from_recurrence(al_salam_chihara_recurrence(y, rho, q, 24), 23)
        from momentpoly import FamilySpec, make_moments

        delta = make_moments(FamilySpec("q-hermite", 25, {"q": q}))
        delta_sys = build_system(delta, 12)
        exp = rn_expansion(alpha, delta_sys, 10)
        for j in range(11):
            expect = rho**j * q_hermite(j, y, q) / exact_sqrt(q_factorial(j, q))
            assert exp.omegas[j] == expect
