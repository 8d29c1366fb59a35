"""Exact surd arithmetic underneath the rational backend."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpoly import scalars
from momentpoly.scalars import (
    FLOAT,
    RATIONAL,
    Surd,
    as_scalar,
    as_scalars,
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
    assert r2 <= r2 <= r3 and r3 >= r2 >= 1
    assert not r3 <= r2 and not 1 >= r2
    assert abs(-r2) == r2 and isinstance(abs(-r2), Surd)


@pytest.mark.parametrize("sign", [1, -1])
def test_ordering_against_floats_by_value(sign):
    # sqrt(2) = 1.41421...: floats on either side of it and equal to it, for
    # each sign, with the float on either side of the operator
    s = sign * exact_sqrt(Fraction(2))
    below, above = sorted((sign * 1.4, sign * 1.5))
    at = float(s)
    assert s > below and s >= below and s < above and s <= above
    assert not (s < below or s <= below or s > above or s >= above)
    assert below < s < above and below <= s <= above
    assert not (below > s or below >= s or above < s or above <= s)
    assert s == at and at == s and s <= at and s >= at and at <= s and at >= s
    assert not (s < at or s > at or at < s or at > s)
    assert s != below and below != s and s != above and above != s


@pytest.mark.parametrize("other", [math.nan, math.inf, -math.inf, 1.5],
                         ids=["nan", "inf", "-inf", "finite"])
def test_ordering_against_special_floats_follows_floats(other):
    # every ordering and equality of sqrt(2) against a float gives what the
    # same comparison of float(sqrt(2)) gives: False for all four orderings
    # against NaN, on either side of the operator
    s = exact_sqrt(Fraction(2))
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        assert op(s, other) is op(float(s), other)
        assert op(other, s) is op(other, float(s))
    if math.isnan(other):
        assert not (s < other or s <= other or s > other or s >= other or s == other)
        assert s != other and other != s


def test_equality_with_floats_and_foreign_types():
    r2 = exact_sqrt(Fraction(2))
    assert r2 == math.sqrt(2) and r2 != 1.4
    assert r2 != "sqrt(2)" and r2 != object()


@pytest.mark.parametrize("op", [
    lambda s, o: s * o, lambda s, o: s + o, lambda s, o: s - o,
    lambda s, o: s / o, lambda s, o: s ** o,
], ids=["mul", "add", "sub", "truediv", "pow"])
def test_arithmetic_with_foreign_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op(exact_sqrt(Fraction(2)), object())


@pytest.mark.parametrize("op", [
    lambda s, o: s < o, lambda s, o: s <= o, lambda s, o: s > o, lambda s, o: s >= o,
], ids=["lt", "le", "gt", "ge"])
def test_ordering_against_a_string_raises_type_error(op):
    with pytest.raises(TypeError, match="cannot compare Surd"):
        op(exact_sqrt(Fraction(2)), "1")


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
    assert format_scalar(-12) == "-12"


@pytest.mark.parametrize("value", ["1/2", None, 1j])
def test_serialization_refuses_non_scalars(value):
    with pytest.raises(TypeError, match="cannot serialize scalar"):
        format_scalar(value)


def test_file_value_parsing():
    assert as_scalar("3/7", RATIONAL) == Fraction(3, 7)
    assert as_scalar(2, RATIONAL) == Fraction(2)
    assert as_scalar("3/4", FLOAT) == 0.75
    assert as_scalar(0.25, RATIONAL) == Fraction(1, 4)


@pytest.mark.parametrize("value", [[0], {}, None, 1j])
@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_non_number_entry_is_refused_in_both_modes(value, mode):
    # one type check for both modes: float() would raise TypeError on these
    with pytest.raises(ValueError, match="cannot interpret"):
        as_scalar(value, mode)


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


@pytest.mark.parametrize("value", [10**400, -10**400, "1e400", "-1e400", Fraction(10**400, 3)],
                         ids=["int", "negative-int", "str", "negative-str", "fraction"])
def test_float_overflow_is_refused_like_infinity(value):
    # float() raises OverflowError past the float range, which a caller that
    # handles ValueError at the boundary would miss
    with pytest.raises(ValueError, match="as a finite float scalar"):
        as_scalar(value, FLOAT)
    assert as_scalar(value, RATIONAL) == Fraction(value)


#: sqrt(2 * 10^800) = 1.41... * 10^400: float() of it overflows
_HUGE = exact_sqrt(Fraction(2 * 10**800))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("other", [0.0, -0.0, 1.0, -1.0, 1.7976931348623157e308,
                                   -1.7976931348623157e308, 5e-324])
def test_surd_past_the_float_range_orders_by_its_sign(sign, other):
    # as Fraction(10**400) > 1.0 is True: past the range, only the sign counts
    s = sign * _HUGE
    assert (s > other, s >= other, s < other, s <= other) == (sign > 0, sign > 0, sign < 0, sign < 0)
    assert (other < s, other > s) == (sign > 0, sign < 0)
    assert not s == other and s != other and not other == s and other != s


@pytest.mark.parametrize("sign", [1, -1])
def test_surd_past_the_float_range_lies_between_the_infinities(sign):
    # every real value is below inf and above -inf, as Fraction orders them
    s = sign * _HUGE
    assert s < math.inf and s <= math.inf and math.inf > s and not s > math.inf
    assert s > -math.inf and s >= -math.inf and -math.inf < s and not s < -math.inf
    assert s != math.inf and s != -math.inf and not s == math.inf and not s == -math.inf


def test_surd_past_the_float_range_against_nan():
    for s in (_HUGE, -_HUGE):
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq):
            assert op(s, math.nan) is False and op(math.nan, s) is False
        assert s != math.nan and math.nan != s


def test_surd_whose_float_overflows_inside_the_range_compares_exactly():
    # 10^-300 * sqrt(10^400 + 1) is about 10^-100, but math.sqrt of its
    # radicand overflows: the comparison falls back to exact arithmetic
    s = Fraction(1, 10**300) * exact_sqrt(Fraction(10**400 + 1))
    assert isinstance(s, Surd)
    assert 1e-101 < s < 1e-99 and s < 1.0 and s > -1.0 and s != 1e-100


#: strings that the strict p/q pattern takes, and strings that only
#: Fraction(str) reads or refuses: signs, blanks, decimals, exponents,
#: underscores, non-ASCII digits, a zero or a negative denominator, a part
#: past the int digit limit and an integer past the float range
_digit_runs = st.text("0123456789", min_size=1, max_size=5)
_pieces = st.sampled_from(["", "-", "+", "/", "//", " ", "\t", "\n", ".", "-3",
                           "_", "0", "00", "١", "２", "/0", "/00", "/-4"])
_drawn_text = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.from_regex(r"-?[0-9]{1,5}", fullmatch=True),
              _digit_runs),
    st.lists(st.one_of(_digit_runs, _pieces), min_size=1, max_size=6).map("".join),
    # exponents stay bounded: "1e99999" would make a 330000-bit integer
    st.builds("{}{}{}".format, st.from_regex(r"[-+]?[0-9]{1,3}(\.[0-9]{0,3})?", fullmatch=True),
              st.sampled_from(["e", "E"]), st.integers(-400, 400)),
    st.sampled_from(["-0", "0/7", "007/014", "-0/3", "1/0", "1/00", "3/-4", "12 / 5", "12 /5", "1 2", "- 3", " 3/4 ",
                     "+1/2", "0.5", "1e-3", "1e400", "1_000", "١٢", "1/２",
                     "1" * 5000, "-1/" + "7" * 5000, "1" + "0" * 400, "-1" + "0" * 400,
                     "1" + "0" * 400 + "/3", "nan", "inf", ""]),
)


def _as_fraction_read(text, mode):
    """What as_scalar gave when every string went through Fraction(str):
    the value, or the exception's type and message.  An entry that is no
    string is read by as_scalar, whose other cases these reads leave alone."""
    if not isinstance(text, str):
        try:
            return as_scalar(text, mode)
        except ValueError as exc:
            return type(exc), str(exc)
    try:
        value = Fraction(text)
        if mode == FLOAT:
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if math.isinf(value):
                raise ValueError(f"cannot interpret {text!r} as a finite float scalar")
        return value
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_drawn_text, st.sampled_from([RATIONAL, FLOAT]))
def test_string_entries_read_as_fraction_reads_them(text, mode):
    expected = _as_fraction_read(text, mode)
    try:
        got = as_scalar(text, mode)
    except (ValueError, ZeroDivisionError) as exc:
        got = type(exc), str(exc)
    assert type(got) is type(expected)
    if mode == FLOAT and isinstance(got, float):
        assert got.hex() == expected.hex()
    else:
        assert got == expected


class _Text(str):
    """A str subclass, which the list reader reads entry by entry."""


#: entries that the one-pass list reader takes: zeros, a negative zero,
#: leading zeros, 300-digit parts, a p/q past the float range (float mode
#: falls back on it) and a part past the int digit limit (both modes do)
_plain_text = st.one_of(
    st.from_regex(r"-?[0-9]{1,6}(/0*[1-9][0-9]{0,4})?", fullmatch=True),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**300, 10**300),
              st.integers(1, 10**300)),
    st.sampled_from(["0", "-0", "0/5", "-0/3", "007/014", "1" * 300, "-1/" + "3" * 300,
                     "1" + "0" * 400 + "/3", "-1" + "0" * 400, "1/" + "1" + "0" * 400,
                     "1" * 5000, "2/" + "3" * 5000]),
)
#: strings that it leaves to as_scalar: plain entries joined by a newline
#: would otherwise read as two or more entries
_other_text = st.one_of(_drawn_text, st.sampled_from(["1\n2", "-1/3\n007/2\n0", "1/2\n", "\n3"]))
#: entries of other types, which it leaves to as_scalar too
_other_entry = st.one_of(
    _other_text, st.integers(-10**400, 10**400), st.floats(), st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, None]), st.builds(_Text, _plain_text),
)
_entry_lists = st.one_of(
    st.lists(_plain_text, max_size=12),
    st.lists(_plain_text, max_size=12).map(tuple),
    st.lists(st.one_of(_plain_text, _other_text), max_size=8),
    st.lists(st.one_of(_plain_text, _other_entry), max_size=8),
    st.sampled_from(["1/2", "", None, 3, 0.5, {"moments": ["1"]}, {"1", "2"}]),
)


def _comparable(value):
    """A value with its type, a float by its hex (NaN included)."""
    return type(value), value.hex() if isinstance(value, float) else value


@settings(max_examples=300, deadline=None)
@given(_entry_lists, st.sampled_from([RATIONAL, FLOAT]))
def test_lists_read_as_their_entries_read(values, mode):
    # the first refusal in list order, or the tuple of the entries' reads;
    # a value is never a tuple, a refusal is (type, message)
    if isinstance(values, (list, tuple)):
        reads = [_as_fraction_read(v, mode) for v in values]
        refusals = [r for r in reads if isinstance(r, tuple)]
        expected = refusals[0] if refusals else tuple(map(_comparable, reads))
    else:
        expected = ValueError, "not a list"
    try:
        got = tuple(map(_comparable, as_scalars(values, mode, "not a list")))
    except (ValueError, ZeroDivisionError) as exc:
        got = type(exc), str(exc)
    assert got == expected


def test_plain_lists_are_read_without_as_scalar(monkeypatch):
    # the fallback reads the same values, so only a count of its calls tells
    # the two paths apart
    calls = []
    read = scalars.as_scalar
    monkeypatch.setattr(scalars, "as_scalar", lambda v, mode: calls.append(v) or read(v, mode))
    plain = ["1", "0", "-0", "1/3", "-007/014", "5", "2/" + "3" * 300]
    for mode in (RATIONAL, FLOAT):
        kind = Fraction if mode == RATIONAL else float
        got = as_scalars(plain, mode, "not a list")
        assert got == tuple(read(v, mode) for v in plain) and {type(v) for v in got} == {kind}
        assert calls == []
        mixed = plain[:3] + ["0.5"] + plain[3:]
        assert as_scalars(mixed, mode, "not a list")[3] == Fraction(1, 2)
        assert len(calls) == len(mixed)
        calls.clear()
