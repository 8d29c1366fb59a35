"""Moment sequences, the built-in measure catalog, and Hankel moment matrices,
which own the polynomial system in both modes: the factor L, its inverse Pi,
the minors and the three-term recurrence."""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .cholesky import TriangularTable, cholesky_decompose, invert_lower_triangular
from .qkernel import q_hermite_recurrence
from .recurrence import (RecurrenceCoefficients, _banded_fill, _chebyshev, _entries,
                         _recurrence_from_inverse, moments_from_recurrence)
from .scalars import (
    FLOAT,
    RATIONAL,
    _ONE,
    Surd,
    _product,
    as_scalar,
    as_scalars,
    check_mode,
    exact_sqrt,
    format_scalar,
)

FAMILIES = (
    "explicit",
    "gaussian",
    "uniform",
    "semicircle",
    "chebyshev1",
    "from-recurrence",
    "q-hermite",
)

#: families with all odd moments zero and simple exact closed forms
SYMMETRIC_CATALOG = ("gaussian", "uniform", "semicircle", "chebyshev1")


class InsufficientMoments(ValueError):
    """Requested order needs more moments than the sequence provides."""


@dataclass(frozen=True)
class MomentSequence:
    """Finite normalized moment sequence m_0..m_N with m_0 = 1."""

    moments: tuple
    mode: str
    label: str = ""

    def __post_init__(self):
        check_mode(self.mode)
        if len(self.moments) < 1:
            raise ValueError("a moment sequence needs at least m_0")
        if self.moments[0] != 1:
            raise ValueError("moments not normalized: m_0 must equal 1")

    def __len__(self):
        return len(self.moments)

    def m(self, k: int):
        return self.moments[k]

    @property
    def top_order(self) -> int:
        return len(self.moments) - 1

    def require(self, k: int) -> None:
        if k > self.top_order:
            raise InsufficientMoments(
                f"need moments up to m_{k} but sequence {self.label!r} "
                f"stops at m_{self.top_order}"
            )

    def max_matrix_order(self) -> int:
        return self.top_order // 2

    def to_floats(self) -> "MomentSequence":
        if self.mode == FLOAT:
            return self
        return MomentSequence(
            tuple(map(float, self.moments)), FLOAT, self.label
        )


@dataclass(frozen=True)
class FamilySpec:
    """Request for a catalog moment sequence."""

    family: str
    count: int
    params: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.count < 1:
            raise ValueError("count must be at least 1")


def _catalog_even_moment(family: str, k: int) -> Fraction:
    if family == "gaussian":
        return Fraction(math.prod(range(1, 2 * k, 2)))  # (2k-1)!!, and 1 at k = 0
    if family == "uniform":
        return Fraction(1, 2 * k + 1)
    if family == "semicircle":
        return Fraction(math.comb(2 * k, k), (k + 1) * 4**k)
    return Fraction(math.comb(2 * k, k), 4**k)  # chebyshev1, the last of SYMMETRIC_CATALOG


def make_moments(spec: FamilySpec, mode: str = RATIONAL) -> MomentSequence:
    """Generate m_0..m_{count-1} for a catalog family.

    Closed forms are used for the symmetric classical families; q-hermite and
    from-recurrence sequences are produced through the recurrence-to-moments
    map so that any count is available.
    """
    check_mode(mode)
    label = spec.label or spec.family
    if spec.family == "explicit":
        vals = as_scalars(spec.params.get("moments"), mode,
                          "explicit family needs a params['moments'] list")[: spec.count]
        if len(vals) < spec.count:
            raise ValueError("explicit moment list shorter than count")
        seq = MomentSequence(vals, mode, label)
    elif spec.family in SYMMETRIC_CATALOG:
        exact = tuple(
            _catalog_even_moment(spec.family, k // 2) if k % 2 == 0 else Fraction(0)
            for k in range(spec.count)
        )
        seq = MomentSequence(exact, RATIONAL, label)
    elif spec.family == "q-hermite":
        q = spec.params.get("q")
        if q is None:
            raise ValueError("q-hermite family needs params['q']")
        # only float mode keeps a float q; rational mode reads it exactly, as
        # a float literal of a file is read
        if not (mode == FLOAT and isinstance(q, float)):
            q = as_scalar(q, RATIONAL)
        seq = moments_from_recurrence(q_hermite_recurrence(q, spec.count), spec.count, label=label)
    else:  # from-recurrence, the last of FAMILIES
        need = "from-recurrence family needs params['a2'] and params['b'] lists"
        a2, b = (as_scalars(spec.params.get(k), RATIONAL, need) for k in ("a2", "b"))
        rec = RecurrenceCoefficients(a2, b, RATIONAL, label=label)
        seq = moments_from_recurrence(rec, spec.count, label=label)
    return seq if seq.mode == mode else seq.to_floats()


@dataclass
class HankelMoments:
    """(n+1) x (n+1) moment matrix with entry (i, j) = m_{i+j}, its
    factorization M = L L^T, the inverse Pi = L^-1 and the recurrence.

    The diagonal of L holds ``roots`` = sqrt(d_k), where d_k is the squared
    norm of the k-th monic polynomial and equals Delta_k / Delta_{k-1}; so the
    leading principal minors ``deltas`` are the running products of the d_k.
    Rational mode reads the d_k and the ``recurrence`` off one Chebyshev pass
    over m_0..m_2n, reads ``factor`` off the columns of that pass and scales
    ``inverse`` from the eta fill of that recurrence on first read, with no
    Cholesky step and no tau fill.  Float mode factors by Cholesky and
    squares its pivots; reading ``inverse`` inverts L, and reading
    ``recurrence`` takes ratios of the entries of ``inverse``.  Either way
    the first d_k <= 0 raises :class:`NotPositiveDefinite`, at the order and
    with the pivot that the Cholesky factorization names.  Making one checks
    ``order >= 0`` and that ``source`` reaches m_2n.
    """

    order: int
    source: MomentSequence

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        self.source.require(2 * self.order)

    @property
    def mode(self) -> str:
        return self.source.mode

    def moment(self, k: int):
        return self.source.m(k)

    def entry(self, i: int, j: int):
        return self.source.m(i + j)

    def dense(self) -> list:
        n = self.order
        return [[self.entry(i, j) for j in range(n + 1)] for i in range(n + 1)]

    @functools.cached_property
    def _monic(self) -> tuple:
        """(recurrence, d_0..d_n, columns): one Chebyshev pass in rational
        mode; float mode squares the Cholesky pivots and leaves the
        recurrence, which needs the inverse, to :attr:`recurrence`."""
        if self.mode == RATIONAL:
            return _chebyshev(self.source, 2 * self.order)
        return None, [d * d for d in self.factor.diagonal()], None

    @functools.cached_property
    def recurrence(self) -> RecurrenceCoefficients:
        """a_1^2..a_n^2 and b_0..b_{n-1}: from the Chebyshev pass in rational
        mode, from ratios of the entries of :attr:`inverse` in float mode."""
        if self.mode == RATIONAL:
            return self._monic[0]
        return _recurrence_from_inverse(self.inverse, self.source.label)

    @functools.cached_property
    def roots(self) -> list:
        """sqrt(d_0)..sqrt(d_n), the diagonal of :attr:`factor`.

        Rational mode gives ``exact_sqrt(d_k)``: a Fraction when d_k is a
        perfect square, otherwise ``Surd(1, {d_k})``, the form that
        :meth:`_Numerators.scaled` divides ``Pi`` by with d_k's parts
        swapped and no division.
        """
        if self.mode == RATIONAL:
            return [exact_sqrt(d) for d in self._monic[1]]
        return self.factor.diagonal()

    @functools.cached_property
    def factor(self) -> TriangularTable:
        """Lower-triangular L with L L^T = M, built on first read.

        Rational ``L[l][k] = tau[l][k] * sqrt(d_k)``, read off column k of
        the Chebyshev pass (see :func:`_chebyshev`) with no fill:
        tau[l][k] = N_k[l] / N_k[k], where N_k[k] > 0 once the order-k pivot
        passed.  With sqrt(d_k) = c, a Fraction, or sqrt(r) for a radicand
        r, column k is N_k[l] * c / N_k[k] or N_k[l] / N_k[k] * sqrt(r),
        made by :func:`_entries` with one gcd per entry after one gcd per
        column brings c over N_k[k] to lowest terms.
        """
        if self.mode == RATIONAL:
            columns = []
            for col, root in zip(self._monic[2], self.roots):
                rad = root.radicals if isinstance(root, Surd) else None
                c = _ONE if rad else root
                g = math.gcd(c.numerator, col[0])
                columns.append(_entries(col, c.numerator // g, col[0] // g * c.denominator,
                                        itertools.repeat(rad)))
            return TriangularTable("L", RATIONAL, [[col[l - k] for k, col in enumerate(columns[:l + 1])]
                                                   for l in range(self.order + 1)])
        return cholesky_decompose(self)

    @functools.cached_property
    def inverse(self) -> TriangularTable:
        """Pi = L^-1, whose row k holds the coefficients of the orthonormal
        p_k, built on first read.

        Rational ``Pi[i][j] = eta[i][j] / sqrt(d_i)``, scaled like
        :attr:`factor`: row i is multiplied by (1 / d_i) * sqrt(d_i), d_i
        with its coprime parts swapped, so no ``1 / root`` runs.
        """
        if self.mode == RATIONAL:
            rec = self.recurrence
            fill = _banded_fill(RATIONAL, self.order, target=(rec.a2, rec.b))
            return TriangularTable("Pi", RATIONAL, fill.scaled(self.roots))
        return invert_lower_triangular(self.factor)

    @property
    def deltas(self) -> list:
        """Leading principal minors Delta_0..Delta_n, the running products of
        the d_k: in rational mode each product is filled from the coprime
        parts of two Fractions after the two cross gcds of ``Fraction``
        multiplication (``scalars._product``), in float mode it is ``*``."""
        return list(itertools.accumulate(self._monic[1],
                                         _product if self.mode == RATIONAL else operator.mul))


def hankel_matrix(m: MomentSequence, n: int) -> HankelMoments:
    """Moment matrix of order n (requires m_0..m_{2n})."""
    return HankelMoments(order=n, source=m)


@dataclass
class CarlemanReport:
    """Partial sums of m_{2n}^(-1/(2n)); finiteness of a truncation proves nothing."""

    orders: list
    terms: list
    partial_sums: list
    note: str = (
        "Partial sums of the standard determinacy series m_{2n}^(-1/(2n)). "
        "Divergence of the full series is sufficient for a determinate moment "
        "problem; any finite truncation is inconclusive."
    )


def carleman_diagnostic(m: MomentSequence) -> CarlemanReport:
    """Determinacy diagnostic from the even moments available."""
    orders, terms, sums = [], [], []
    total = 0.0
    for n in range(1, m.top_order // 2 + 1):
        v = float(m.m(2 * n))
        if v <= 0:
            raise ValueError(f"even moment m_{2 * n} = {v} is not positive")
        term = v ** (-1.0 / (2 * n))
        total += term
        orders.append(n)
        terms.append(term)
        sums.append(total)
    return CarlemanReport(orders=orders, terms=terms, partial_sums=sums)


# -- moment file format ----------------------------------------------------


def moment_sequence_to_dict(m: MomentSequence) -> dict:
    return {
        "label": m.label,
        "mode": m.mode,
        "moments": [format_scalar(v) for v in m.moments],
    }


def moment_sequence_from_dict(data: dict, mode: str | None = None) -> MomentSequence:
    if not isinstance(data, dict) or "moments" not in data:
        raise ValueError("moment file must be an object with a 'moments' list")
    use = mode or data.get("mode", RATIONAL)
    check_mode(use)
    values = as_scalars(data["moments"], use, "'moments' in a moment file must be a list")
    return MomentSequence(values, use, str(data.get("label", "")))


def save_moment_file(m: MomentSequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(moment_sequence_to_dict(m), fh, indent=2)
        fh.write("\n")


def load_moment_file(path, mode: str | None = None) -> MomentSequence:
    with open(path, "r", encoding="utf-8") as fh:
        return moment_sequence_from_dict(json.load(fh), mode=mode)
