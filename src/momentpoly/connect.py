"""Connection coefficients between two polynomial systems, the ribbon test for
polynomial density ratios, and Radon-Nikodym Fourier expansions.

If {p_n(x, target)} and {p_n(x, source)} are the orthonormal systems of two
measures, then p_n(x, target) = sum_k gamma[n][k] p_k(x, source) with the
lower-triangular table gamma = Pi(target) * Lambda(source); the monic
variant is eta(target) * tau(source).  Rational mode reads all of them off the
two recurrences, on the integer numerators of their banded fill g, whose rows
are scaled as the rows of ``Pi`` are.  Both fills, g and the Radon-Nikodym
expansion's eta, step as the Chebyshev pass does, g with its source side
over one integer scale.  Float mode multiplies the tables and sums
moments, whose bits the benchmark digests pin.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cholesky import TriangularTable, tri_multiply
from .moments import FamilySpec, MomentSequence, make_moments
from .polysys import PolynomialSystem, moment_inner_product
from .recurrence import (RecurrenceCoefficients, _banded_fill, _chebyshev, _common_scale, eta_table,
                         tau_table)
from .scalars import RATIONAL, one, sum_scalars

BASES = ("orthonormal", "monic")


@dataclass
class ConnectionTable(TriangularTable):
    """gamma[n][k]: row n expands the n-th target polynomial in the source
    basis.  The role is ``"Pi"`` in the orthonormal basis and ``"Eta"`` in
    the monic one."""

    basis: str
    target_label: str
    source_label: str


def connection_table(
    target: PolynomialSystem,
    source: PolynomialSystem,
    n: int,
    basis: str = "orthonormal",
) -> ConnectionTable:
    """Expansion coefficients of the target system in the source basis.

    Rational mode fills the monic table g from the target and source
    recurrences.  The orthonormal table is g scaled by the reader that
    builds the target's ``Pi`` (row n over sqrt(d_n) of the target, see
    :meth:`_Numerators.scaled`), with column k times sqrt(d_k) of the
    source.  Neither ``Pi`` nor ``L`` is read.
    """
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}")
    if n < 0:
        raise ValueError(f"order n must be non-negative, got n = {n}")
    if target.order < n or source.order < n:
        raise ValueError(
            f"both systems must reach order {n} "
            f"(have {target.order} and {source.order})"
        )
    if target.mode != source.mode:
        raise ValueError("systems must share a numeric mode")
    if target.mode != RATIONAL:
        # float bits pinned by the benchmark digests, until a float-output rule
        if basis == "orthonormal":
            left, right = (TriangularTable(t.role, t.mode, t.rows[: n + 1])
                           for t in (target.Pi, source.Lambda))
        else:
            left, right = eta_table(target.rec, n), tau_table(source.rec, n)
        rows = tri_multiply(left, right).rows
    else:
        t, s = target.rec, source.rec
        g = _banded_fill(RATIONAL, n, target=(t.a2, t.b), source=(s.a2, s.b))
        # r * v, not v * r: float() of a Surd multiplies its roots in set order,
        # which for two radicals whose hashes collide is the order of insertion
        rows = g.table() if basis == "monic" else [
            [r * v for v, r in zip(row, source.roots)] for row in g.scaled(target.roots)]
    return ConnectionTable("Pi" if basis == "orthonormal" else "Eta", target.mode, rows,
                           basis=basis, target_label=target.label, source_label=source.label)


def closed_form_gamma(
    rec_target: RecurrenceCoefficients,
    rec_source: RecurrenceCoefficients,
    n: int,
    k: int,
):
    """Printed closed forms for the monic connection coefficients near the
    diagonal: k = n (unit), k = n-1 (difference of b sums) and k = n-2
    (a^2 differences plus quadratic b corrections)."""
    if n < 0 or k < 0:
        raise ValueError(f"indices must be non-negative, got n = {n}, k = {k}")
    mode = rec_target.mode
    if k == n:
        return one(mode)
    sb, tb = rec_source.b, rec_target.b
    if k == n - 1:
        return sum_scalars((sb[j] - tb[j] for j in range(n)), mode)
    if k == n - 2:
        total = sum_scalars((rec_source.a2[j] - rec_target.a2[j] for j in range(1, n)), mode)
        diff = sum_scalars((sb[j] - tb[j] for j in range(n - 1)), mode)
        sqdiff = sum_scalars((sb[j] * sb[j] - tb[j] * tb[j] for j in range(n - 1)), mode)
        half = Fraction(1, 2)  # times a float x, the float 0.5 * x: one constant for both modes
        return total + half * diff * diff + half * sqdiff - tb[n - 1] * diff
    raise ValueError(f"no closed form for (n, k) = ({n}, {k}); supported k: n, n-1, n-2")


# -- ribbon structure of polynomial density ratios ----------------------------


@dataclass
class RibbonReport:
    is_ribbon: bool
    ribbon_width: int
    order: int
    max_off_ribbon: float
    witness: tuple | None = None  # (i, j, value) of the largest off-ribbon entry


def ribbon_check(
    alpha_sys: PolynomialSystem,
    delta_moments: MomentSequence,
    r: int,
    n: int,
    tol: float = 1e-10,
) -> RibbonReport:
    """Test whether Pi(alpha) * M_n(delta) * Pi(alpha)^T vanishes off band r.

    When the density ratio d(alpha)/d(delta) is the reciprocal of a degree-r
    polynomial this matrix is an r-ribbon; the converse is not checkable from
    finitely many moments and is the caller's responsibility.

    Rational mode reads entry (i, j), <p_i, p_j> under delta, as
    sum_k g[i][k] * g[j][k] * d_k(delta) / (sqrt(d_i) * sqrt(d_j) of alpha),
    with g the monic connection table from alpha to delta.  Delta's
    recurrence and norms come from its moments by the Chebyshev algorithm, so
    delta must be positive definite to order n, else
    :class:`NotPositiveDefinite` is raised.  Float mode sums moments and
    counts an entry past ``tol`` as off the ribbon; a ``tol`` that is NaN,
    infinite or negative raises ``ValueError`` in either mode.
    """
    if r < 0:
        raise ValueError(f"ribbon width must be non-negative, got {r}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"ribbon tolerance must be finite and non-negative, got {tol}")
    if n < 0:
        raise ValueError("order must be nonnegative")
    if alpha_sys.order < n:
        raise ValueError(f"alpha system order {alpha_sys.order} below requested {n}")
    mode = alpha_sys.mode
    if delta_moments.mode != mode:
        raise ValueError("alpha system and delta moments must share a numeric mode")
    delta_moments.require(2 * n)
    if mode != RATIONAL:
        # float bits pinned by the benchmark digests, until a float-output rule
        pi = alpha_sys.Pi.rows
        inner = lambda i, j: moment_inner_product(delta_moments, pi[i], pi[j])
    else:
        a, (d, norms, _) = alpha_sys.rec, _chebyshev(delta_moments, 2 * n)
        g = _banded_fill(RATIONAL, n, target=(a.a2, a.b), source=(d.a2, d.b))
        e, (weights,) = _common_scale(RATIONAL, norms)
        down = [1 / root for root in alpha_sys.roots]
        inner = lambda i, j: g.pairing(weights, e, i, j) * down[i] * down[j]
    worst = 0.0
    witness = None
    exact_ok = True
    for i in range(n + 1):
        for j in range(i - r):  # off the band: i - j > r
            v = inner(i, j)
            mag = abs(float(v))
            if mode == RATIONAL:
                if v != 0:
                    exact_ok = False
            elif mag > tol:
                exact_ok = False
            if mag > worst:
                worst = mag
                witness = (i, j, v)
    return RibbonReport(
        is_ribbon=exact_ok,
        ribbon_width=r,
        order=n,
        max_off_ribbon=worst,
        witness=witness,
    )


def builtin_ribbon_pair(count: int, mode: str = RATIONAL):
    """The shipped demonstration pair: alpha uniform on [-1, 1] and delta with
    density (3/8)(1 + x^2) there, whose ratio is 1 over a quadratic.

    delta's moments are (3/4)(u_k + u_{k+2}) over the uniform moments u_k.
    """
    alpha = make_moments(FamilySpec("uniform", count, label="uniform"), mode)
    u = make_moments(FamilySpec("uniform", count + 2))
    delta = MomentSequence(tuple(Fraction(3, 4) * (u.m(k) + u.m(k + 2)) for k in range(count)),
                           RATIONAL, "quadratic-weight")
    return alpha, (delta if mode == RATIONAL else delta.to_floats())


# -- Radon-Nikodym expansion ---------------------------------------------------


@dataclass
class RNExpansion:
    """Fourier coefficients omega_j of d(alpha)/d(delta) in the delta system."""

    omegas: list
    parseval_partial_sums: list
    mode: str
    target_integral: float | None = None
    bessel_residual: float | None = None

    @property
    def order(self) -> int:
        return len(self.omegas) - 1


def rn_expansion(
    alpha_moments: MomentSequence,
    delta_sys: PolynomialSystem,
    n: int,
    square_integral: float | None = None,
) -> RNExpansion:
    """omega_j = sum_k Pi(delta)[j][k] * m_k(alpha), j = 0..n.

    omega_j is the alpha-expectation of the j-th delta-orthonormal polynomial,
    i.e. the degree-(j, 0) connection coefficient; densities never enter.  The
    Parseval partial sums of omega_j^2 increase toward the integral of the
    squared density ratio when the caller can supply it independently.

    Rational mode sums row j of delta's monic fill eta against alpha's
    moments as integers, and divides by sqrt(d_j) of delta instead of
    reading delta's ``Pi``.
    """
    if n < 0:
        raise ValueError(f"expansion order must be non-negative, got {n}")
    if delta_sys.order < n:
        raise ValueError(f"delta system order {delta_sys.order} below requested {n}")
    if alpha_moments.mode != delta_sys.mode:
        raise ValueError("alpha moments and delta system must share a numeric mode")
    alpha_moments.require(n)
    if delta_sys.mode != RATIONAL:
        # float bits pinned by the benchmark digests, until a float-output rule
        unit = (one(delta_sys.mode),)
        omegas = [moment_inner_product(alpha_moments, unit, row) for row in delta_sys.Pi.rows[: n + 1]]
    else:
        d = delta_sys.rec
        eta = _banded_fill(RATIONAL, n, target=(d.a2, d.b))
        e, (weights,) = _common_scale(RATIONAL, alpha_moments.moments[: n + 1])
        omegas = [eta.pairing(weights, e, j) / root for j, root in enumerate(delta_sys.roots[: n + 1])]
    partial = list(itertools.accumulate(float(w) ** 2 for w in omegas))
    residual = None
    if square_integral is not None:
        residual = square_integral - partial[-1]
    return RNExpansion(
        omegas=omegas,
        parseval_partial_sums=partial,
        mode=delta_sys.mode,
        target_integral=square_integral,
        bessel_residual=residual,
    )
