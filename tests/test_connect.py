"""Connection tables, closed forms, ribbon structure, Radon-Nikodym expansions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpoly import (
    FamilySpec,
    InsufficientMoments,
    RecurrenceCoefficients,
    build_system,
    builtin_ribbon_pair,
    closed_form_gamma,
    connection_table,
    make_moments,
    moments_from_recurrence,
    ribbon_check,
    rn_expansion,
)
from momentpoly.scalars import FLOAT, RATIONAL

from conftest import CATALOG, positive_fractions, random_recurrence, signed_fractions
from polysys_oracle import as_text, ribbon_loop


@pytest.fixture(scope="module")
def systems(catalog_moments):
    return {fam: build_system(catalog_moments[fam], 10) for fam in CATALOG}


def random_system(rng, order, symmetric=False):
    rec = random_recurrence(rng, 2 * order + 2, symmetric=symmetric)
    return build_system(moments_from_recurrence(rec, 2 * order + 1), order)


#: the order of a drawn system, and rational systems of that order: a_1^2..a_6^2,
#: b_0..b_5 with b either all zero or signed
_ORDER = 6
_drawn_systems = st.tuples(
    st.lists(positive_fractions, min_size=_ORDER, max_size=_ORDER),
    st.one_of(st.just([Fraction(0)] * _ORDER),
              st.lists(signed_fractions, min_size=_ORDER, max_size=_ORDER)),
).map(lambda ab: build_system(moments_from_recurrence(
    RecurrenceCoefficients((Fraction(0), *ab[0]), tuple(ab[1]), RATIONAL),
    2 * _ORDER + 1), _ORDER))


def compose(first, second):
    """Row i of the product of two connection tables, lower-triangular."""
    n = first.order
    return [[sum((first.entry(i, k) * second.entry(k, j) for k in range(j, i + 1)),
                 Fraction(0)) for j in range(i + 1)] for i in range(n + 1)]


class TestConnectionTable:
    def test_same_measure_gives_identity(self, systems):
        g = connection_table(systems["gaussian"], systems["gaussian"], 6)
        for i in range(7):
            for j in range(i + 1):
                assert g.entry(i, j) == (1 if i == j else 0)

    def test_symmetric_pairs_have_zero_first_subdiagonal(self, systems):
        g = connection_table(systems["gaussian"], systems["uniform"], 8, basis="monic")
        for n in range(1, 9):
            assert g.entry(n, n - 1) == 0

    def test_chebyshev_in_legendre_basis(self, systems):
        g = connection_table(systems["chebyshev1"], systems["uniform"], 2, basis="monic")
        assert g.entry(2, 0) == Fraction(-1, 6)
        assert g.entry(2, 2) == 1

    def test_monic_diagonal_is_unit(self, systems):
        g = connection_table(systems["semicircle"], systems["chebyshev1"], 8, basis="monic")
        for n in range(9):
            assert g.entry(n, n) == 1

    def test_orthonormal_diagonal_positive(self, systems):
        g = connection_table(systems["semicircle"], systems["uniform"], 8)
        for n in range(9):
            assert g.entry(n, n) > 0

    def test_inverse_pair(self, systems):
        ab = connection_table(systems["gaussian"], systems["semicircle"], 8)
        ba = connection_table(systems["semicircle"], systems["gaussian"], 8)
        for i in range(9):
            for j in range(i + 1):
                s = Fraction(0)
                for k in range(j, i + 1):
                    s = s + ab.entry(i, k) * ba.entry(k, j)
                assert s == (1 if i == j else 0)

    def test_transitivity_including_nonsymmetric(self, systems):
        rng = random.Random(40)
        third = random_system(rng, 8)
        for basis in ("orthonormal", "monic"):
            ab = connection_table(systems["uniform"], third, 8, basis=basis)
            bc = connection_table(third, systems["gaussian"], 8, basis=basis)
            ac = connection_table(systems["uniform"], systems["gaussian"], 8, basis=basis)
            for i in range(9):
                for j in range(i + 1):
                    s = Fraction(0)
                    for k in range(j, i + 1):
                        s = s + ab.entry(i, k) * bc.entry(k, j)
                    assert s == ac.entry(i, j)

    @settings(max_examples=15, deadline=None)
    @given(_drawn_systems, _drawn_systems, st.sampled_from(["orthonormal", "monic"]))
    def test_inverse_property(self, a, b, basis):
        ab = connection_table(a, b, _ORDER, basis=basis)
        ba = connection_table(b, a, _ORDER, basis=basis)
        assert compose(ab, ba) == [[int(i == j) for j in range(i + 1)]
                                   for i in range(_ORDER + 1)]

    @settings(max_examples=15, deadline=None)
    @given(_drawn_systems, _drawn_systems, _drawn_systems,
           st.sampled_from(["orthonormal", "monic"]))
    def test_transitivity_property(self, a, b, c, basis):
        ab = connection_table(a, b, _ORDER, basis=basis)
        bc = connection_table(b, c, _ORDER, basis=basis)
        assert compose(ab, bc) == connection_table(a, c, _ORDER, basis=basis).rows

    def test_order_mismatch_rejected(self, systems):
        with pytest.raises(ValueError):
            connection_table(systems["gaussian"], systems["uniform"], 11)


class TestClosedForms:
    def test_identical_recurrences_vanish(self, systems):
        rec = systems["uniform"].rec
        assert closed_form_gamma(rec, rec, 5, 4) == 0

    def test_subdiagonal_b_differences(self):
        rng = random.Random(42)
        target = random_system(rng, 9)
        source = random_system(rng, 9)
        table = connection_table(target, source, 9, basis="monic")
        for n in range(1, 10):
            assert table.entry(n, n - 1) == closed_form_gamma(
                target.rec, source.rec, n, n - 1
            )

    def test_second_subdiagonal_quadratic_corrections(self):
        rng = random.Random(44)
        target = random_system(rng, 9)
        source = random_system(rng, 9)
        table = connection_table(target, source, 9, basis="monic")
        for n in range(2, 10):
            assert table.entry(n, n - 2) == closed_form_gamma(
                target.rec, source.rec, n, n - 2
            )

    def test_symmetric_pair_reduces_to_a2_differences(self, systems):
        target, source = systems["chebyshev1"], systems["semicircle"]
        table = connection_table(target, source, 9, basis="monic")
        for n in range(2, 10):
            expect = Fraction(0)
            for k in range(1, n):
                expect += source.rec.a2[k] - target.rec.a2[k]
            assert table.entry(n, n - 2) == expect
            assert closed_form_gamma(target.rec, source.rec, n, n - 2) == expect

    def test_unit_diagonal_case(self, systems):
        assert closed_form_gamma(systems["uniform"].rec, systems["gaussian"].rec, 4, 4) == 1

    def test_unsupported_band_rejected(self, systems):
        with pytest.raises(ValueError):
            closed_form_gamma(systems["uniform"].rec, systems["gaussian"].rec, 5, 1)


class TestRibbon:
    def test_same_measure_zero_width(self, systems):
        sys_ = systems["uniform"]
        rep = ribbon_check(sys_, sys_.moments, 0, 8)
        assert rep.is_ribbon
        assert rep.max_off_ribbon == 0.0

    def test_builtin_quadratic_pair(self):
        alpha, delta = builtin_ribbon_pair(17)
        rep = ribbon_check(build_system(alpha, 8), delta, 2, 8)
        assert rep.is_ribbon
        assert rep.max_off_ribbon == 0.0

    def test_negative_control_at_narrower_band(self):
        alpha, delta = builtin_ribbon_pair(17)
        rep = ribbon_check(build_system(alpha, 8), delta, 1, 8)
        assert not rep.is_ribbon
        assert rep.max_off_ribbon > 0
        i, j, _ = rep.witness
        assert abs(i - j) == 2

    def test_float_mode_pair(self):
        alpha, delta = builtin_ribbon_pair(17, FLOAT)
        rep = ribbon_check(build_system(alpha, 8), delta, 2, 8, tol=1e-10)
        assert rep.is_ribbon

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_equals_hankel_loop(self, mode):
        alpha, delta = builtin_ribbon_pair(17, mode)
        gauss = make_moments(FamilySpec("gaussian", 17), mode)
        alpha_sys = build_system(alpha, 8)
        for other in (delta, gauss):
            for r in range(4):
                got = ribbon_check(alpha_sys, other, r, 8)
                assert as_text(got) == as_text(ribbon_loop(alpha_sys, other, r, 8))

    def test_negative_order_rejected(self, systems):
        sys_ = systems["uniform"]
        with pytest.raises(ValueError, match="nonnegative"):
            ribbon_check(sys_, sys_.moments, 0, -1)

    def test_short_delta_rejected(self, systems):
        # order 8 reads m_0..m_16 of delta; this one stops at m_15
        delta = make_moments(FamilySpec("gaussian", 16))
        with pytest.raises(InsufficientMoments):
            ribbon_check(systems["uniform"], delta, 1, 8)


class TestRadonNikodym:
    def test_leading_coefficient_is_one(self, systems):
        alpha = make_moments(FamilySpec("semicircle", 11))
        exp = rn_expansion(alpha, systems["uniform"], 10)
        assert exp.omegas[0] == 1

    def test_symmetric_pair_kills_degree_one(self, systems):
        alpha = make_moments(FamilySpec("semicircle", 11))
        exp = rn_expansion(alpha, systems["uniform"], 10)
        assert exp.omegas[1] == 0

    def test_coefficients_equal_connection_column(self, systems):
        rng = random.Random(46)
        alpha_sys = random_system(rng, 10)
        exp = rn_expansion(alpha_sys.moments, systems["chebyshev1"], 10)
        gam = connection_table(systems["chebyshev1"], alpha_sys, 10)
        for j in range(11):
            assert exp.omegas[j] == gam.entry(j, 0)

    def test_parseval_sums_monotone(self, systems):
        alpha = make_moments(FamilySpec("semicircle", 11))
        exp = rn_expansion(alpha, systems["uniform"], 10)
        sums = exp.parseval_partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_semicircle_uniform_density_ratio_integral(self):
        # independent quadrature oracle for the squared ratio of densities
        from scipy.integrate import quad

        ratio = lambda x: (4.0 / math.pi) * math.sqrt(max(1 - x * x, 0.0))
        integral, err = quad(lambda x: ratio(x) ** 2 * 0.5, -1, 1)
        assert err < 1e-10
        assert integral == pytest.approx(32 / (3 * math.pi**2), abs=1e-12)
        alpha = make_moments(FamilySpec("semicircle", 21))
        delta_sys = build_system(make_moments(FamilySpec("uniform", 41)), 20)
        exp = rn_expansion(alpha, delta_sys, 20, square_integral=integral)
        assert exp.bessel_residual == pytest.approx(0.0, abs=1e-5)
        assert exp.parseval_partial_sums[-1] <= integral + 1e-12

    def test_insufficient_alpha_moments(self, systems):
        alpha = make_moments(FamilySpec("semicircle", 5))
        with pytest.raises(Exception):
            rn_expansion(alpha, systems["uniform"], 10)
