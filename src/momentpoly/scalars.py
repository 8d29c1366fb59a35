"""Numeric backends: exact rational arithmetic with square-root tracking, or floats.

Two modes run through the whole library:

* ``"rational"`` -- values are :class:`fractions.Fraction` or :class:`Surd`.
  A :class:`Surd` is an exact product ``coef * prod(sqrt(r) for r in radicals)``
  with rational ``coef`` and positive rational radicands.  The triangular-table
  algebra of this library only ever adds terms with commensurable radical
  parts, so this restricted surd arithmetic is closed under everything we
  compute and every identity can be checked with ``==``.
* ``"float"`` -- plain IEEE doubles with caller-supplied tolerances.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

_EMPTY: frozenset = frozenset()


def _coprime(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for coprime ints n and d > 0, made without the gcd
    and the type checks of ``Fraction.__new__``: it fills the two slots of
    ``fractions.Fraction``, as ``Fraction._from_coprime_ints`` (Python 3.12
    and later) does."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


_ZERO, _ONE = Fraction(0), Fraction(1)


def _over(v: int, e: int) -> Fraction:
    """``Fraction(v, e)`` for e > 0, sharing one zero: one gcd, then
    :func:`_coprime`."""
    if not v:
        return _ZERO
    g = math.gcd(v, e)
    return _coprime(v // g, e // g)


def _product(x: Fraction, y: Fraction) -> Fraction:
    """``x * y`` from the parts of two Fractions: the two cross gcds of
    ``Fraction`` multiplication, then :func:`_coprime`."""
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    g, h = math.gcd(xn, yd), math.gcd(yn, xd)
    return _coprime((xn // g) * (yn // h), (xd // h) * (yd // g))


def _quotient(x: Fraction, y: Fraction) -> Fraction:
    """``x / y`` for y > 0: :func:`_product` with y's parts swapped."""
    return _product(x, _coprime(y.denominator, y.numerator))


def _difference(x: Fraction, y: Fraction) -> Fraction:
    """``x - y``: one integer difference over the product of the
    denominators, then :func:`_over`."""
    return _over(x.numerator * y.denominator - y.numerator * x.denominator,
                 x.denominator * y.denominator)


def _perfect_square_root(f: Fraction) -> Fraction | None:
    """Rational square root of ``f`` if it is a perfect square, else None."""
    n, d = f.numerator, f.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return _coprime(rn, rd)  # the roots of coprime squares are coprime
    return None


def _radicand(radicals) -> Fraction:
    """Product of a radical set; the one element itself, or 1 for the empty set."""
    return functools.reduce(operator.mul, radicals) if radicals else Fraction(1)


class Surd:
    """Exact value ``coef * prod(sqrt(r) for r in radicals)``.

    Instances are normalized: ``coef`` is a nonzero Fraction and ``radicals``
    is a nonempty frozenset of positive non-square Fractions whose product is
    not a square either, so a Surd is always irrational.  Arithmetic collapses
    to a plain Fraction whenever the radical part cancels; addition rescales
    commensurable radical parts (sqrt(18) + sqrt(2) works) and raises
    ``ValueError`` for genuinely incommensurable ones, which the library never
    produces.
    """

    __slots__ = ("coef", "radicals")

    def __init__(self, coef: Fraction, radicals: frozenset):
        self.coef = coef
        self.radicals = radicals

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _make(coef: Fraction, radicals: frozenset):
        if coef == 0 or not radicals:
            return coef
        if len(radicals) > 1:
            # collapse rational-valued products such as sqrt(2)*sqrt(8)
            root = _perfect_square_root(_radicand(radicals))
            if root is not None:
                return coef * root
        return Surd(coef, radicals)

    @staticmethod
    def _parts(x):
        if isinstance(x, Surd):
            return x.coef, x.radicals
        if isinstance(x, int):
            return Fraction(x), _EMPTY
        if isinstance(x, Fraction):
            return x, _EMPTY
        return None

    def _squared(self) -> Fraction:
        return self.coef * self.coef * _radicand(self.radicals)

    def _inverse(self) -> "Surd":
        return Surd(1 / (self.coef * _radicand(self.radicals)), self.radicals)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c2, r2 = p
        coef = self.coef * c2
        if coef == 0:
            return Fraction(0)
        for r in self.radicals & r2:
            coef *= r
        return self._make(coef, self.radicals ^ r2)

    __rmul__ = __mul__

    def __add__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        c2, r2 = p
        if c2 == 0:
            return self
        if r2 != self.radicals:
            # sqrt(A) and sqrt(B) are commensurable over Q exactly when B/A is
            # a rational square; rewrite the other term on this term's radicals
            root = _perfect_square_root(_radicand(r2) / _radicand(self.radicals))
            if root is None:
                raise ValueError(
                    "exact addition of incommensurable surds is not representable"
                )
            c2 = c2 * root
        return self._make(self.coef + c2, self.radicals)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.coef, self.radicals)

    def __sub__(self, other):
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self.__add__(self._make(-p[0], p[1]))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __truediv__(self, other):
        if isinstance(other, Surd):
            return self.__mul__(other._inverse())
        p = self._parts(other)
        if p is None:
            return NotImplemented
        return self._make(self.coef / p[0], self.radicals)

    def __rtruediv__(self, other):
        return self._inverse().__mul__(other)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self._inverse() ** (-k)
        c = self.coef**k * _radicand(self.radicals) ** (k // 2)
        if k % 2 == 0:
            return c
        return self._make(c, self.radicals)

    def __abs__(self):
        return Surd(abs(self.coef), self.radicals)

    # -- comparisons -----------------------------------------------------
    #
    # A real number is determined by its sign and its square, so all exact
    # comparisons reduce to rational ones even when two equal values carry
    # different radical-set representations (e.g. sqrt(2)*sqrt(8) vs 4).

    def _compare(self, other):
        """Sign of self - other, computed exactly via sign and squared
        magnitude.  Against a finite float, the float difference itself, or
        the exact sign where ``float(self)`` overflows; against +-inf and
        NaN, ``-other``, as for any finite value, so that every ordering
        against NaN is False, as between floats."""
        if isinstance(other, float):
            if not math.isfinite(other):
                return -other
            try:
                return float(self) - other
            except OverflowError:  # self is past the float range
                return self._compare(Fraction(other))
        p = self._parts(other)
        if p is None:
            raise TypeError(f"cannot compare Surd with {type(other)!r}")
        c2, r2 = p
        sa = -1 if self.coef < 0 else 1
        sb = -1 if c2 < 0 else (1 if c2 > 0 else 0)
        if sa != sb:
            return -1 if sa < sb else 1
        qa = self._squared()
        qb = c2 * c2 * _radicand(r2)
        if qa == qb:
            return 0
        return sa if qa > qb else -sa

    def __eq__(self, other):
        if isinstance(other, (Surd, int, Fraction, float)):
            return self._compare(other) == 0
        return NotImplemented

    def __hash__(self):
        # consistent with value-based equality
        return hash((self.coef < 0, self._squared()))

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    # -- conversion ------------------------------------------------------

    def __float__(self):
        v = float(self.coef)
        for r in self.radicals:
            v *= math.sqrt(r)
        return v

    def __bool__(self):
        return True  # normalized surds are nonzero

    def radicand(self) -> Fraction:
        """Product of all radicands (the single-sqrt normal form)."""
        return _radicand(self.radicals)

    def __repr__(self):
        return f"Surd({self.coef!r}, sqrt({self.radicand()!r}))"

    def __str__(self):
        return f"{str(self.coef)}*sqrt({str(self.radicand())})"


def exact_sqrt(x):
    """Square root of a nonnegative rational: Fraction if perfect, otherwise
    ``Surd(1, {x})`` (the form that ``_Numerators.scaled`` reads)."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f.numerator < 0:
        raise ValueError(f"exact_sqrt of negative value {f}")
    r = _perfect_square_root(f)
    return Surd(_ONE, frozenset((f,))) if r is None else r


def scalar_sqrt(x, mode: str):
    if mode == RATIONAL:
        return exact_sqrt(x)
    return math.sqrt(x)


def zero(mode: str):
    return Fraction(0) if mode == RATIONAL else 0.0


def one(mode: str):
    return Fraction(1) if mode == RATIONAL else 1.0


def sum_scalars(values, mode: str):
    """Left fold of ``values`` under ``+``, starting at ``zero(mode)``.

    The library sums backend scalars with this fold, never the builtin
    ``sum``: from Python 3.12 that adds floats with compensated summation,
    so its float bits would depend on the Python version.  A difference of
    sums is one fold over the negated terms, since ``x + (-y)`` is ``x - y``
    bit for bit in IEEE arithmetic.
    """
    return functools.reduce(operator.add, values, zero(mode))


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


#: one entry of a list, ended by a newline: an ASCII integer or p/q with
#: q > 0, which ``Fraction(str)`` reads as the two ints that it captures
_PLAIN = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?\n")


def as_scalar(value, mode: str):
    """Convert a file-level number to a backend scalar.

    In either mode the entry must be a ``str`` (what ``Fraction(str)``
    reads: 'p/q', an integer or a decimal with an optional exponent),
    ``int``, ``float`` or ``Fraction``, and not a ``bool``; anything else
    raises ``ValueError``.  A string is read as a Fraction in both modes.
    Rational mode refuses every non-finite float; float mode refuses +-inf
    and every number past the float range, and still lets NaN through (NaN
    pivots pass :func:`check_pivot` too).
    """
    if isinstance(value, bool):
        raise ValueError(f"cannot interpret boolean {value!r} as a number")
    number = Fraction(value) if isinstance(value, str) else value
    if isinstance(number, (int, float, Fraction)):
        if mode == RATIONAL:
            if not isinstance(number, float) or math.isfinite(number):
                # a float literal is read as its exact binary value
                return number if isinstance(number, Fraction) else Fraction(number)
        else:
            try:
                out = float(number)
            except OverflowError:  # an int or Fraction past the range
                out = math.inf
            if not math.isinf(out):
                return out
    kind = "rational" if mode == RATIONAL else "finite float"
    raise ValueError(f"cannot interpret {value!r} as a {kind} scalar")


def as_scalars(values, mode: str, message: str) -> tuple:
    """:func:`as_scalar` of each entry of a list (or tuple) of numbers.

    Any other value raises ``ValueError(message)``: a string would otherwise
    be read one character at a time.  A list of plain ``str`` entries, each
    an integer or p/q, is read in one pass with the same values: one split
    of the joined entries, then int reads, and in float mode the int true
    division ``p / q``, which rounds once, as ``float(Fraction(p, q))`` does.
    Any other list, and one whose reads overflow the float range or pass
    the int digit limit, is read entry by entry.
    """
    if not isinstance(values, (list, tuple)):
        raise ValueError(message)
    if set(map(type, values)) == {str}:
        parts = _PLAIN.split("\n".join(values) + "\n")
        # split gives a gap, p and q per match, then a last gap: all gaps
        # empty means that matches tile the text, and one match per entry
        # that no entry holds a newline
        if len(parts) == 3 * len(values) + 1 and not any(parts[::3]):
            try:
                return tuple(map(_over if mode == RATIONAL else operator.truediv,
                                 map(int, parts[1::3]),
                                 map(int, [q or "1" for q in parts[2::3]])))
            except (OverflowError, ValueError):  # past the float range or
                pass  # the int digit limit: as_scalar makes the refusal
    return tuple(as_scalar(v, mode) for v in values)


def format_scalar(x) -> str | float:
    """JSON-ready form: floats as-is, rationals as 'p/q', surds as 'p/q*sqrt(r/s)'."""
    if type(x) is Fraction or type(x) is Surd:
        return str(x)
    if isinstance(x, float):
        return x
    if isinstance(x, (int, Fraction, Surd)):
        return str(x)
    raise TypeError(f"cannot serialize scalar of type {type(x)!r}")
