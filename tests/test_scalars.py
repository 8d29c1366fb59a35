"""Exact surd arithmetic underneath the rational backend."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpoly.scalars import (
    FLOAT,
    RATIONAL,
    Surd,
    as_scalar,
    exact_sqrt,
    format_scalar,
    scalar_sqrt,
    sum_scalars,
)


def test_perfect_squares_collapse_to_fractions():
    assert exact_sqrt(Fraction(4)) == Fraction(2)
    assert exact_sqrt(Fraction(9, 16)) == Fraction(3, 4)
    assert exact_sqrt(Fraction(0)) == 0
    assert isinstance(exact_sqrt(Fraction(2)), Surd)


def test_sqrt_of_negative_rejected():
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1))


def test_square_of_sqrt_is_exact():
    r = exact_sqrt(Fraction(2, 7))
    assert r * r == Fraction(2, 7)
    assert r**2 == Fraction(2, 7)
    assert r**4 == Fraction(4, 49)


def test_product_of_commensurable_surds_is_rational():
    a = exact_sqrt(Fraction(12))
    b = exact_sqrt(Fraction(3))
    assert a * b == Fraction(6)
    # equal values with different radical bookkeeping compare equal
    assert exact_sqrt(Fraction(2)) * exact_sqrt(Fraction(8)) == Fraction(4)


def test_addition_requires_common_radicand():
    a = exact_sqrt(Fraction(2))
    assert a + a == 2 * a
    assert a + 0 == a
    assert a - a == 0
    with pytest.raises(ValueError):
        a + exact_sqrt(Fraction(3))
    with pytest.raises(ValueError):
        a + Fraction(1)


def test_mixed_arithmetic_with_fractions():
    a = exact_sqrt(Fraction(5))
    assert Fraction(3) * a == a * 3
    assert (Fraction(1) / a) * a == 1
    assert a / a == 1
    assert float(Fraction(2) / a) == pytest.approx(2 / math.sqrt(5))
    assert -a + a == 0


def test_ordering_via_squares():
    r2, r3 = exact_sqrt(Fraction(2)), exact_sqrt(Fraction(3))
    assert r2 < r3
    assert -r3 < -r2 < 0 < r2
    assert r2 > 1
    assert r2 < Fraction(3, 2)
    assert r2 > 1.2


_factors = st.lists(st.tuples(st.builds(Fraction, st.integers(1, 30), st.integers(1, 6)),
                               st.booleans()), min_size=1, max_size=5)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@settings(max_examples=60, deadline=None)
@given(_factors, _factors, st.integers(-3, 3), st.booleans())
def test_products_of_square_roots_agree_with_their_radicand_sets(xs, ys, k, negate):
    def build(factors):
        # the value, a product and quotient of square roots, and its square
        value, square = Fraction(-1 if negate else 1), Fraction(1)
        for r, divide in factors:
            value = value / exact_sqrt(r) if divide else value * exact_sqrt(r)
            square = square / r if divide else square * r
        return value, square

    (v, v2), (w, w2) = build(xs), build(ys)
    for x, x2 in ((v, v2), (w, w2), (v * w, v2 * w2), (v / w, v2 / w2)):
        if isinstance(x, Surd):
            product = Fraction(1)
            for r in x.radicals:
                product *= r
            assert x.radicand() == product
            assert x.coef * x.coef * product == x2
        assert x**2 == x2
        assert x ** (2 * k) == x2**k
        assert x ** (2 * k + 1) == x2**k * x
    for a, a2 in ((v, v2), (-v, v2)):
        if _sign(a) != _sign(w):
            less = _sign(a) < _sign(w)
        else:
            less = a2 < w2 if _sign(a) > 0 else a2 > w2
        same = _sign(a) == _sign(w) and a2 == w2
        assert (a < w, a == w, a > w) == (less, same, not less and not same)
        if same:
            assert hash(a) == hash(w)
    assert v * w == w * v and hash(v * w) == hash(w * v)


def test_float_conversion():
    v = Fraction(3, 4) * exact_sqrt(Fraction(2))
    assert float(v) == pytest.approx(0.75 * math.sqrt(2))


def test_scalar_sqrt_per_mode():
    assert scalar_sqrt(Fraction(2), RATIONAL) == exact_sqrt(Fraction(2))
    assert scalar_sqrt(2.0, FLOAT) == pytest.approx(math.sqrt(2))


def test_sum_scalars_is_a_left_fold():
    # 1e16 + 1.0 rounds back to 1e16, so a left fold loses the 1.0 that the
    # builtin sum keeps from Python 3.12 on (compensated summation)
    terms = [1e16, 1.0, -1e16]
    assert sum_scalars(terms, FLOAT) == (0.0 + 1e16 + 1.0) - 1e16 == 0.0
    assert sum_scalars([], FLOAT) == 0.0 and isinstance(sum_scalars([], FLOAT), float)
    total = sum_scalars([Fraction(1, 3), Fraction(1, 6), exact_sqrt(Fraction(2)) ** 2], RATIONAL)
    assert total == Fraction(5, 2) and type(total) is Fraction
    assert type(sum_scalars([], RATIONAL)) is Fraction
    # a difference of sums folds the negated terms: x + (-y) is x - y bit for bit
    a, b = 0.1 + 0.2, 0.3
    assert sum_scalars([a, -b], FLOAT).hex() == (a - b).hex()


def test_sum_scalars_has_one_definition():
    from momentpoly import cholesky, scalars

    assert cholesky.sum_scalars is scalars.sum_scalars


def test_serialization_forms():
    assert format_scalar(Fraction(3, 7)) == "3/7"
    assert format_scalar(Fraction(5)) == "5"
    assert format_scalar(Fraction(1, 2) * exact_sqrt(Fraction(2))) == "1/2*sqrt(2)"
    assert format_scalar(0.5) == 0.5


def test_file_value_parsing():
    assert as_scalar("3/7", RATIONAL) == Fraction(3, 7)
    assert as_scalar(2, RATIONAL) == Fraction(2)
    assert as_scalar("3/4", FLOAT) == 0.75
    assert as_scalar(0.25, RATIONAL) == Fraction(1, 4)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_float_has_no_rational_value(value):
    # Fraction(inf) raises OverflowError, which a caller that handles
    # ValueError at the boundary would miss
    with pytest.raises(ValueError, match="as a rational scalar"):
        as_scalar(value, RATIONAL)
    # float mode refuses only the infinities; NaN is still let through
    if math.isnan(value):
        assert math.isnan(as_scalar(value, FLOAT))
    else:
        with pytest.raises(ValueError, match="as a finite float scalar"):
            as_scalar(value, FLOAT)
