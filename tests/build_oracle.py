"""The rational Hankel build with the operators of ``fractions.Fraction`` and
generic ``Surd`` arithmetic, as an oracle.

The library makes every exact value of a rational build from coprime
integer parts: d_k, a_k^2 and b_k in the Chebyshev pass, the minors Delta_k,
the roots sqrt(d_k) and the entries of Pi and L.  These routines make the
same values the way the library once did: ``Fraction(N, E)``, ``/`` and
``-`` in the integer-row Chebyshev pass, ``accumulate(operator.mul)`` for
the minors, and ``v * (1 / root)`` and ``v * root`` for Pi and L, with the
monic tables stepped one ``Fraction`` operation per term
(``forward_oracle.banded_fill``).  The tests require ``repr`` and ``str`` of
both builds to agree.
"""

import itertools
import math
import operator
from fractions import Fraction

from momentpoly.cholesky import NotPositiveDefinite, check_pivot
from momentpoly.recurrence import RecurrenceCoefficients, _common_scale, _reduce_row
from momentpoly.scalars import RATIONAL, Surd

import forward_oracle


def chebyshev(m, top):
    """(recurrence, norms) of the integer-row Chebyshev pass over m_0..m_top,
    with d_k, a_k^2 and b_k made by ``Fraction`` operators.  Rational only."""
    n = top // 2
    e, (cur,) = _common_scale(RATIONAL, m.moments[: top + 1])
    prev, e_prev = [0] * (top + 1), e
    a2, b, norms, lead = [Fraction(0)], [], [], Fraction(0)
    for k in range(n + 1):
        d = Fraction(cur[k], e)
        check_pivot(k, d, m.m(2 * k), RATIONAL)
        norms.append(d)
        if k:
            a2.append(d / norms[k - 1])
        if 2 * k == top:
            break
        quotient = Fraction(cur[k + 1], cur[k])
        b.append(quotient - lead)
        lead = quotient
        q, t = b[k].denominator, a2[k].denominator
        e_next = math.lcm(e * q, e_prev * t)
        c0 = e_next // e
        cb = b[k].numerator * (c0 // q)
        ca = a2[k].numerator * (e_next // (e_prev * t))
        nxt = [0] * (top + 1)
        for l in range(k + 1, top - k):
            nxt[l] = c0 * cur[l + 1] - cb * cur[l] - ca * prev[l]
        nxt, e_next = _reduce_row(nxt, e_next)
        prev, cur, e_prev, e = cur, nxt, e, e_next
    return RecurrenceCoefficients(tuple(a2), tuple(b), RATIONAL, label=m.label), norms


def root(d):
    """sqrt(d) for a rational d >= 0: a Fraction if d is a perfect square,
    otherwise ``Surd(Fraction(1), {d})``."""
    if d < 0:
        raise ValueError(f"exact_sqrt of negative value {d}")
    rn, rd = math.isqrt(d.numerator), math.isqrt(d.denominator)
    if rn * rn == d.numerator and rd * rd == d.denominator:
        return Fraction(rn, rd)
    return Surd(Fraction(1), frozenset((d,)))


def build(m, n):
    """{"rec", "deltas", "roots", "L", "Pi"} of the order-n rational Hankel
    matrix of ``m``, or ("fails", order, message) at the first pivot that is
    not positive."""
    try:
        rec, norms = chebyshev(m, 2 * n)
    except NotPositiveDefinite as exc:
        return "fails", exc.order, str(exc)
    roots = [root(d) for d in norms]
    eta, tau = (forward_oracle.banded_fill(rec, n, role, expand=expand, b=True, a2=True).rows
                for role, expand in (("Eta", False), ("Tau", True)))
    return {
        "rec": (rec.a2, rec.b),
        "deltas": list(itertools.accumulate(norms, operator.mul)),
        "roots": roots,
        "L": [[v * roots[j] for j, v in enumerate(row)] for row in tau],
        "Pi": [[v * (1 / roots[i]) for v in row] for i, row in enumerate(eta)],
    }
