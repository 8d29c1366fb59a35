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
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

_EMPTY: frozenset = frozenset()


def _perfect_square_root(f: Fraction) -> Fraction | None:
    """Rational square root of ``f`` if it is a perfect square, else None."""
    n, d = f.numerator, f.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
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

    def _compare(self, other) -> int:
        """Sign of self - other, computed exactly via sign and squared magnitude."""
        if isinstance(other, float):
            diff = float(self) - other
            return (diff > 0) - (diff < 0)
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
        if isinstance(other, (Surd, int, Fraction)):
            return self._compare(other) == 0
        if isinstance(other, float):
            return float(self) == other
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
        return f"{format_fraction(self.coef)}*sqrt({format_fraction(self.radicand())})"


def exact_sqrt(x):
    """Square root of a nonnegative rational: Fraction if perfect, Surd otherwise."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    if f < 0:
        raise ValueError(f"exact_sqrt of negative value {f}")
    if f == 0:
        return Fraction(0)
    r = _perfect_square_root(f)
    if r is not None:
        return r
    return Surd(Fraction(1), frozenset((f,)))


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


def to_float(x) -> float:
    return float(x)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    return mode


def as_scalar(value, mode: str):
    """Convert a file-level number (int, float, or 'p/q' string) to a backend scalar.

    Rational mode refuses every non-finite float; float mode refuses +-inf
    and still lets NaN through (NaN pivots pass :func:`check_pivot` too).
    """
    if isinstance(value, bool):
        raise ValueError(f"cannot interpret boolean {value!r} as a number")
    if mode == RATIONAL:
        if isinstance(value, str):
            return Fraction(value)
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, float) and math.isfinite(value):
            # exact binary value of the literal; deterministic round trip
            return Fraction(value)
        raise ValueError(f"cannot interpret {value!r} as a rational scalar")
    out = float(Fraction(value)) if isinstance(value, str) else float(value)
    if math.isinf(out):
        raise ValueError(f"cannot interpret {value!r} as a finite float scalar")
    return out


def as_scalars(values, mode: str, message: str) -> tuple:
    """:func:`as_scalar` of each entry of a list (or tuple) of numbers.

    Any other value raises ``ValueError(message)``: a string would otherwise
    be read one character at a time.
    """
    if not isinstance(values, (list, tuple)):
        raise ValueError(message)
    return tuple(as_scalar(v, mode) for v in values)


def format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def format_scalar(x) -> str | float:
    """JSON-ready form: floats as-is, rationals as 'p/q', surds as 'p/q*sqrt(r/s)'."""
    if isinstance(x, float):
        return x
    if isinstance(x, int):
        return str(x)
    if isinstance(x, Fraction):
        return format_fraction(x)
    if isinstance(x, Surd):
        return str(x)
    raise TypeError(f"cannot serialize scalar of type {type(x)!r}")
