"""The rational build on coprime integer parts against the ``fractions``
operators and the generic ``Surd`` arithmetic it replaces.

Each helper that fills the slots of a ``Fraction`` (or a ``Surd``) from
integer parts is checked against the operator it stands for, zero and
negative numerators included, and a whole rational build against
``build_oracle``, which makes every value with those operators.  Equal
``repr`` and ``str`` pin the type, the value and the written form.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from momentpoly import (
    FamilySpec,
    MomentSequence,
    NotPositiveDefinite,
    RecurrenceCoefficients,
    build_system,
    hankel_matrix,
    make_moments,
    moments_from_recurrence,
)
from momentpoly import recurrence as recurrence_module
from momentpoly import scalars as scalars_module
from momentpoly.scalars import RATIONAL, Surd, exact_sqrt

import build_oracle
from conftest import CATALOG, random_recurrence
from polysys_oracle import as_text

#: signed Fractions with zero and big parts
fractions = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**40))
positive = st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40))
#: radicands that are not perfect squares, and the absent radical
radical_sets = st.sampled_from([None] + [frozenset((r,)) for r in
                                         (Fraction(2), Fraction(3, 5), Fraction(1, 8), Fraction(10**20 + 1, 7))])


def assert_same(got, want):
    assert type(got) is type(want)
    assert repr(got) == repr(want) and str(got) == str(want)
    if isinstance(got, Fraction):
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want)


class TestSlotHelpers:
    @settings(max_examples=200, deadline=None)
    @given(fractions, fractions)
    @example(Fraction(0), Fraction(-3, 4))
    @example(Fraction(-6, 35), Fraction(0))
    def test_product_equals_mul(self, x, y):
        assert_same(scalars_module._product(x, y), x * y)

    @settings(max_examples=200, deadline=None)
    @given(fractions, positive)
    @example(Fraction(0), Fraction(5, 3))
    def test_quotient_equals_truediv(self, x, y):
        assert_same(scalars_module._quotient(x, y), x / y)

    @settings(max_examples=200, deadline=None)
    @given(fractions, fractions)
    @example(Fraction(2, 3), Fraction(2, 3))
    @example(Fraction(-1, 6), Fraction(1, 10))
    def test_difference_equals_sub(self, x, y):
        assert_same(scalars_module._difference(x, y), x - y)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
    @example(0, 7)
    def test_over_equals_fraction(self, v, e):
        assert_same(scalars_module._over(v, e), Fraction(v, e))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(-10**30, 10**30) | st.just(0), max_size=8),
           st.integers(-10**12, 10**12).filter(bool), st.integers(1, 10**12), st.data())
    def test_entries_equal_operators(self, row, p, q, data):
        # v * p / q times sqrt(r) for each integer v of a row, as Fraction
        # and Surd operators give it
        g = math.gcd(p, q)
        p, q = p // g, q // g
        radicals = data.draw(st.lists(radical_sets, min_size=len(row), max_size=len(row)))
        want = [Fraction(v * p, q) * (Surd(Fraction(1), rad) if rad else 1)
                for v, rad in zip(row, radicals)]
        for got in (recurrence_module._entries(row, p, q, radicals),
                    recurrence_module._entries(row, p, q, None if not any(radicals) else radicals)):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_same(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.builds(Fraction, st.integers(0, 10**40), st.integers(1, 10**40)),
                     st.builds(lambda a, b: Fraction(a * a, b * b),
                               st.integers(0, 10**20), st.integers(1, 10**20)),
                     st.integers(0, 10**9)))
    def test_exact_sqrt_equals_operator_form(self, x):
        assert_same(exact_sqrt(x), build_oracle.root(Fraction(x)))

    @pytest.mark.parametrize("x", [-1, Fraction(-3, 7), -10**40], ids=["int", "fraction", "big-int"])
    def test_exact_sqrt_of_negative_keeps_its_message(self, x):
        with pytest.raises(ValueError) as got:
            exact_sqrt(x)
        with pytest.raises(ValueError) as want:
            build_oracle.root(Fraction(x))
        assert str(got.value) == str(want.value) == f"exact_sqrt of negative value {Fraction(x)}"


#: pairwise coprime denominators, up to the 31-bit Mersenne prime
_coprime_denominators = st.sampled_from([1, 2, 3, 5, 7, 11, 13, 97, 65537, 2**31 - 1])


@st.composite
def exact_builds(draw):
    """(m, n): m_0..m_2n of a drawn recurrence with b = 0 or signed b != 0,
    of q-hermite with q < 0, or of the semicircle, whose d_k are perfect
    squares; n in 0..12."""
    n = draw(st.integers(0, 12))
    kind = draw(st.sampled_from(["b = 0", "signed b", "q-hermite", "semicircle"]))
    if kind == "semicircle":
        return make_moments(FamilySpec("semicircle", 2 * n + 1)), n
    if kind == "q-hermite":
        q = draw(st.fractions(Fraction(-11, 12), Fraction(-1, 12), max_denominator=12))
        return make_moments(FamilySpec("q-hermite", 2 * n + 1, {"q": q})), n

    def coefficients(lo):
        return st.lists(st.builds(Fraction, st.integers(lo, 10**4), _coprime_denominators),
                        min_size=n + 1, max_size=n + 1)

    a2 = draw(coefficients(1))
    b = [Fraction(0)] * (n + 1) if kind == "b = 0" else draw(coefficients(-10**4))
    rec = RecurrenceCoefficients((Fraction(0), *a2), tuple(b), RATIONAL)
    return moments_from_recurrence(rec, 2 * n + 1), n


def _semicircle(n):
    return make_moments(FamilySpec("semicircle", 2 * n + 1)), n


def _q_hermite(q, n):
    return make_moments(FamilySpec("q-hermite", 2 * n + 1, {"q": q})), n


class TestBuildAgainstOperators:
    @settings(max_examples=60, deadline=None)
    @given(exact_builds())
    @example(_semicircle(12))
    @example(_q_hermite(Fraction(-2, 3), 12))
    @example(_q_hermite(Fraction(1, 2), 12))
    def test_build_equals_operator_oracle(self, drawn):
        m, n = drawn
        want = build_oracle.build(m, n)
        sys_ = build_system(m, n)
        got = {"rec": (sys_.rec.a2, sys_.rec.b), "deltas": sys_.deltas, "roots": sys_.roots,
               "L": sys_.L.rows, "Pi": sys_.Pi.rows}
        for key, value in want.items():
            assert repr(got[key]) == repr(value), key
            assert as_text(got[key]) == as_text(value), key
        if m.label == "semicircle":  # perfect-square norms: every root is rational
            assert all(type(r) is Fraction for r in sys_.roots)

    @settings(max_examples=60, deadline=None)
    @given(exact_builds(), st.data())
    def test_not_positive_definite_at_the_same_order_and_pivot(self, drawn, data):
        # m_2j enters d_j with coefficient 1, so lowering it by d_j + excess
        # makes the order-j pivot -excess, and zero for no excess
        m, n = drawn
        assume(n >= 1)
        j = data.draw(st.integers(1, n))
        excess = data.draw(st.just(Fraction(0)) | positive)
        moments = list(m.moments)
        moments[2 * j] -= build_oracle.chebyshev(m, 2 * n)[1][j] + excess
        bad = MomentSequence(tuple(moments), RATIONAL)
        want = build_oracle.build(bad, n)
        assert want == ("fails", j, str(NotPositiveDefinite(j, -excess)))
        for run in (lambda: build_system(bad, n), lambda: hankel_matrix(bad, n).deltas,
                    lambda: hankel_matrix(bad, n).inverse):
            with pytest.raises(NotPositiveDefinite) as got:
                run()
            assert ("fails", got.value.order, str(got.value)) == want
            assert repr(got.value.pivot) == repr(-excess)


def _assert_same_table(got, want):
    assert repr(got) == repr(want)
    assert as_text(got) == as_text(want)


class TestLambdaOffThePass:
    """Rational L, read off the columns of the Chebyshev pass, against tau
    times sqrt(d_k) by the operators (``build_oracle.build``), whose tau is
    a ``Fraction`` fill of the recurrence."""

    @pytest.mark.parametrize("n", [20, 26, 32, 38])
    @pytest.mark.parametrize("family, params",
                             [(family, {}) for family in CATALOG] + [("q-hermite", {"q": Fraction(1, 2)})])
    def test_catalog_equals_tau_times_root(self, family, params, n):
        m = make_moments(FamilySpec(family, 2 * n + 1, params))
        _assert_same_table(build_system(m, n).L.rows, build_oracle.build(m, n)["L"])

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_skew_recurrence_equals_tau_times_root(self, seed):
        rng = random.Random(seed)
        n = rng.randint(12, 20)
        rec = random_recurrence(rng, n)
        assert any(rec.b)
        m = moments_from_recurrence(rec, 2 * n + 1)
        hank = hankel_matrix(m, n)
        _assert_same_table(hank.factor.rows, build_oracle.build(m, n)["L"])
