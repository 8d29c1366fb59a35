"""Orthonormal polynomial system of a measure given by finitely many moments.

The system is the Cholesky factor L of the moment matrix, Pi = L^-1 and the
three-term recurrence.  Rational mode builds the recurrence and the monic
norms d_k = l_kk^2 = Delta_k / Delta_{k-1}, whose running product is Delta,
by the Chebyshev algorithm on integer rows; L and Pi, the monic tables eta,
tau scaled by sqrt(d_k), are built only when read.  Float mode factors,
inverts and reads the recurrence off Pi.
Evaluation, associated polynomials, the reproducing kernel and the
finite-order spectral identities are derived from the tables.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .cholesky import TriangularTable, check_pivot, invert_lower_triangular
from .moments import HankelMoments, MomentSequence, hankel_matrix
from .recurrence import RecurrenceCoefficients, _banded_fill, _common_scale, eta_table, tau_table
from .scalars import RATIONAL, exact_sqrt, one, zero


class PolynomialSystem:
    """Moment matrix, its Cholesky factor L, the coefficient table Pi = L^-1,
    and the extracted recurrence, all to a fixed order.

    Given ready tables, ``L`` becomes the factor of ``hankel``.  The rational
    :func:`build_system` passes the monic norms d_0..d_n instead, and ``Pi``
    and ``L`` are scaled from the recurrence fills on first read.  ``roots``
    holds sqrt(d_k), the diagonal of L, in both cases.
    """

    def __init__(self, moments: MomentSequence, hankel: HankelMoments, L: TriangularTable | None,
                 Pi: TriangularTable | None, rec: RecurrenceCoefficients, norms: list | None = None):
        if L is not None:
            hankel._factor = L
        self.moments, self.hankel, self.rec, self.norms, self._Pi = moments, hankel, rec, norms, Pi
        self.roots = hankel.factor.diagonal() if norms is None else [exact_sqrt(d) for d in norms]

    @property
    def mode(self) -> str:
        return self.moments.mode

    @property
    def order(self) -> int:
        return self.hankel.order

    @property
    def L(self) -> TriangularTable:
        return self.hankel.factor

    @property
    def Pi(self) -> TriangularTable:
        if self._Pi is None:
            self._Pi = _surd_table("Pi", self.rec, self.roots, self.order)
        return self._Pi

    @property
    def Lambda(self) -> TriangularTable:
        """Expansion of monomials in the orthonormal polynomials (equals L)."""
        return self.L

    @property
    def deltas(self) -> list:
        return self.hankel.deltas

    @property
    def label(self) -> str:
        return self.moments.label


def build_system(m: MomentSequence, n: int) -> PolynomialSystem:
    """Assemble the order-n system from m_0..m_{2n}.

    Rational mode runs :func:`_chebyshev` only, keeps the monic norms d_k on
    the system and hands their running product to the Hankel matrix as its
    ``deltas``, so no pivot of L is squared.  ``Pi`` and ``L`` (the Hankel
    matrix's ``factor``) are built on first read by :func:`_surd_table`;
    connection, ribbon, Radon-Nikodym and linearization tables read the
    recurrence and ``roots`` instead.  A d_k <= 0 raises
    :class:`NotPositiveDefinite` at the same order and with the same pivot as
    the Cholesky factorization.
    """
    hank = hankel_matrix(m, n)
    if m.mode != RATIONAL:
        # the Chebyshev route is not bit-identical in floats; this branch
        # goes once a change of the float output is accepted
        L = hank.factor
        sys_ = PolynomialSystem(m, hank, L, invert_lower_triangular(L, role="Pi"), rec=None)  # type: ignore[arg-type]
        sys_.rec = recurrence_from_tables(sys_)
        return sys_
    rec, norms = _chebyshev(m, 2 * n)
    hank._deltas = list(itertools.accumulate(norms, operator.mul))
    sys_ = PolynomialSystem(m, hank, None, None, rec, norms)
    # the factor closes over the recurrence and roots, never the system: no cycle
    hank._make_factor = functools.partial(_surd_table, "L", rec, sys_.roots, n)
    return sys_


def _surd_table(role: str, rec: RecurrenceCoefficients, roots: list, n: int) -> TriangularTable:
    """Rational ``Pi`` or ``L`` from the monic fills and roots[k] = sqrt(d_k).

    ``Pi[i][j] = eta[i][j] / sqrt(d_i)`` and ``L[i][j] = tau[i][j] * sqrt(d_j)``.
    Each nonzero entry is built as it is, from the fill's integer numerator:
    ``Surd(eta[i][j] / d_i, {d_i})`` and ``Surd(tau[i][j], {d_j})``, or a
    plain ``Fraction`` when the d_k is a perfect square (see
    :meth:`_Numerators.scaled`).
    """
    if role == "Pi":
        rows = _banded_fill(RATIONAL, n, target=(rec.a2, rec.b)).scaled([1 / r for r in roots],
                                                                       by_row=True)
    else:
        rows = _banded_fill(RATIONAL, n, source=(rec.a2, rec.b)).scaled(roots, by_row=False)
    return TriangularTable(role=role, mode=RATIONAL, rows=rows)


def _chebyshev(m: MomentSequence, top: int):
    """Recurrence and monic norms d_0..d_n from m_0..m_top, n = top // 2.

    The Chebyshev algorithm (Gautschi, *Orthogonal Polynomials*, 2004,
    section 2.1.7) runs the monic recurrence on s_k[l] = <ptilde_k, x^l>,
    starting from s_0[l] = m_l; then d_k = s_k[k], a_k^2 = d_k / d_{k-1} and
    b_k = s_k[k+1] / d_k - s_{k-1}[k] / d_{k-1}.  Row s_k is known for
    l <= top - k, so an odd ``top = 2n + 1`` also gives b_n.  Each d_k goes
    through :func:`check_pivot` against m_{2k}, in either mode, before any
    division by it.  O(top^2) steps.

    In rational mode row s_k is held as integer numerators N_k over one row
    denominator E_k, as :func:`_banded_fill` holds its rows.  N_0 is m times
    E_0, the lcm of the moment denominators, as :func:`_common_scale` gives.
    With b_k = p/q and a_k^2 = r/t, the next row has E = lcm(E_k q, E_{k-1} t)
    and

        N_{k+1}[l] = (E/E_k) N_k[l+1] - p (E/(E_k q)) N_k[l]
                     - r (E/(E_{k-1} t)) N_{k-1}[l],

    all plain ints; the row and E are then divided by their common gcd,
    without which the rows of q-hermite grow without bound.  Only d_k, a_k^2
    and b_k are made as ``Fraction``s: d_k = N_k[k] / E_k and
    s_k[k+1] / d_k = N_k[k+1] / N_k[k].  Float mode runs the same loop with
    E = 1.0 and the factors (1.0, b_k, a_k^2), whose products are the plain
    floats bit for bit.
    """
    exact = m.mode == RATIONAL
    z = zero(m.mode)
    n = top // 2
    e, (cur,) = _common_scale(m.mode, m.moments[: top + 1])
    ratio, blank = (Fraction, 0) if exact else (operator.truediv, z)
    prev, e_prev = [blank] * (top + 1), e
    a2, b, norms, lead = [z], [], [], z
    for k in range(n + 1):
        d = ratio(cur[k], e)
        check_pivot(k, d, m.m(2 * k), m.mode)
        norms.append(d)
        if k:
            a2.append(d / norms[k - 1])
        if 2 * k == top:
            break
        quotient = ratio(cur[k + 1], cur[k])  # s_k[k+1] / d_k
        b.append(quotient - lead)
        lead = quotient
        if exact:
            q, t = b[k].denominator, a2[k].denominator
            e_next = math.lcm(e * q, e_prev * t)
            c0 = e_next // e
            cb = b[k].numerator * (c0 // q)
            ca = a2[k].numerator * (e_next // (e_prev * t))
        else:
            e_next, c0, cb, ca = e, e, b[k], a2[k]
        nxt = [blank] * (top + 1)
        for l in range(k + 1, top - k):  # s_{k+1}[l], zero terms skipped
            v = c0 * cur[l + 1]
            if cb and cur[l]:
                v = v - cb * cur[l]
            if k and prev[l]:
                v = v - ca * prev[l]
            nxt[l] = v
        if exact:
            g = math.gcd(e_next, *nxt[k + 1: top - k])
            if g > 1:
                nxt = [v // g for v in nxt]
                e_next //= g
        prev, cur, e_prev, e = cur, nxt, e, e_next
    return RecurrenceCoefficients(tuple(a2), tuple(b), m.mode, label=m.label), norms


def recurrence_from_tables(sys_: PolynomialSystem) -> RecurrenceCoefficients:
    """Recurrence coefficients from ratios of leading Pi entries.

    a_n = pi[n-1][n-1] / pi[n][n] and
    b_n = pi[n][n-1]/pi[n][n] - pi[n+1][n]/pi[n+1][n+1]; both ratios are
    rational in exact mode because each Pi row carries a single radical.
    """
    pi = sys_.Pi.rows
    n = sys_.Pi.order
    mode = sys_.mode
    a2 = [zero(mode)]
    for k in range(1, n + 1):
        ratio = pi[k - 1][k - 1] / pi[k][k]
        a2.append(ratio * ratio)
    b = []
    for k in range(n):
        lead = pi[k][k - 1] / pi[k][k] if k >= 1 else zero(mode)
        b.append(lead - pi[k + 1][k] / pi[k + 1][k + 1])
    return RecurrenceCoefficients(tuple(a2), tuple(b), mode, label=sys_.label)


def recurrence_from_moments(m: MomentSequence) -> RecurrenceCoefficients:
    """Extract all recurrence coefficients a moment sequence determines.

    A sequence m_0..m_{2n} pins a_1..a_n and b_0..b_{n-1}; one further odd
    moment m_{2n+1} additionally pins b_n.  One :func:`_chebyshev` pass over
    every moment reads them all, in both modes, and raises
    :class:`NotPositiveDefinite` at the first failing d_k.
    """
    return _chebyshev(m, m.top_order)[0]


def monic_tables(sys_: PolynomialSystem, n: int | None = None):
    """(eta, tau) monic tables built by recursion from the extracted coefficients."""
    order = sys_.order if n is None else n
    return eta_table(sys_.rec, order), tau_table(sys_.rec, order)


# -- evaluation --------------------------------------------------------------


def eval_poly(sys_: PolynomialSystem, k: int, x):
    """p_k(x) by the forward three-term recurrence (orthonormal normalization)."""
    if not 0 <= k <= sys_.order:
        raise ValueError(f"degree k = {k} must lie in 0..{sys_.order}, the system order")
    prev = zero(sys_.mode)  # p_{-1}
    cur = one(sys_.mode)
    for j in range(k):
        a_next = sys_.rec.a(j + 1)
        nxt = ((x - sys_.rec.b[j]) * cur - sys_.rec.a(j) * prev) / a_next
        prev, cur = cur, nxt
    return cur


def eval_monic(sys_: PolynomialSystem, k: int, x):
    """Monic ptilde_k(x) by the monic three-term recurrence."""
    if not 0 <= k <= sys_.order:
        raise ValueError(f"degree k = {k} must lie in 0..{sys_.order}, the system order")
    prev = zero(sys_.mode)
    cur = one(sys_.mode)
    for j in range(k):
        nxt = (x - sys_.rec.b[j]) * cur - sys_.rec.a2[j] * prev
        prev, cur = cur, nxt
    return cur


def eval_row(row, x, mode: str):
    """Evaluate a coefficient row sum_i row[i] * x^i (Horner)."""
    acc = zero(mode)
    for c in reversed(row):
        acc = acc * x + c
    return acc


def moment_inner_product(m: MomentSequence, coeffs1, coeffs2):
    """Apply the moment functional to a product of two coefficient rows."""
    total = zero(m.mode)
    for i, c1 in enumerate(coeffs1):
        if not c1:
            continue
        for j, c2 in enumerate(coeffs2):
            if not c2:
                continue
            # c1 * m * c2: the order of the ribbon test, whose float bits
            # the benchmark digests pin
            total = total + c1 * m.m(i + j) * c2
    return total


# -- associated polynomials ---------------------------------------------------


def associated_polys(sys_: PolynomialSystem) -> list:
    """Coefficient rows of the associated polynomials q_n.

    Row n (length n) holds the coefficients of the degree-(n-1) polynomial
    q_n(x) = sum_k x^k sum_{j>k} pi[n][j] * m_{j-1-k}; row 0 is empty since
    q_0 = 0.  The same sequence satisfies the three-term recurrence with
    starting values q_0 = 0 and q_1 = 1/a_1.
    """
    unit = (one(sys_.mode),)
    return [[moment_inner_product(sys_.moments, unit, row[k + 1:]) for k in range(n)]
            for n, row in enumerate(sys_.Pi.rows)]


# -- reproducing kernel -------------------------------------------------------


def kernel(sys_: PolynomialSystem, x, y):
    """Reproducing kernel sum_i p_i(x) p_i(y); rational for exact inputs."""
    total = zero(sys_.mode)
    for i in range(sys_.order + 1):
        px = eval_row(sys_.Pi.rows[i], x, sys_.mode)
        py = px if y == x else eval_row(sys_.Pi.rows[i], y, sys_.mode)
        total = total + px * py
    return total


def christoffel(sys_: PolynomialSystem, x):
    return one(sys_.mode) / kernel(sys_, x, x)


def inverse_moment_matrix(sys_: PolynomialSystem) -> list:
    """Dense inverse of the moment matrix via Pi^T * Pi (exact in rational mode)."""
    n = sys_.order
    pi = sys_.Pi.rows
    out = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            s = zero(sys_.mode)
            for k in range(max(i, j), n + 1):
                s = s + pi[k][i] * pi[k][j]
            row.append(s)
        out.append(row)
    return out


# -- finite-order spectral identities -----------------------------------------


@dataclass
class SpectralDiagnostics:
    """Finite-order identities linking moments, the inverse moment matrix and
    (in float mode) the moment-matrix eigenvalues."""

    order: int
    mode: str
    mu: list
    eigenvalues: list | None
    moment_trace: object          # sum of even moments m_0 + m_2 + ... + m_2n
    inverse_trace: object         # tr(Pi Pi^T) = tr(M^{-1})
    p_zero_sum: object            # sum_j p_j(0)^2
    q_zero_sum: object            # sum_j q_j(0)^2
    q_moment_quadratic: object    # sum_{i,j>=1} mu[i][j] m_{i-1} m_{j-1}
    qp_zero_sum: object           # sum_j q_j(0) p_j(0)
    qp_moment_sum: object         # sum_j m_{j-1} mu[0][j]
    checks: dict
    q_sandwich_bounds: tuple | None = None  # informative only; float mode

    def all_passed(self) -> bool:
        return all(self.checks.values())


def diagnostics(sys_: PolynomialSystem, points=None, eig_tol: float = 1e-8) -> SpectralDiagnostics:
    """Assert the finite-order identities of the system.

    Exact-mode checks compare rationals with ``==``; float mode additionally
    computes the moment-matrix eigenvalues (symmetric eigensolver with an
    explicit residual check) and verifies the trace identities and the
    kernel / Christoffel eigenvalue sandwiches at the given points.
    """
    n = sys_.order
    mode = sys_.mode
    m = sys_.moments
    mu = inverse_moment_matrix(sys_)
    checks: dict = {}

    moment_trace = zero(mode)
    for i in range(n + 1):
        moment_trace = moment_trace + m.m(2 * i)

    inverse_trace = zero(mode)
    for i in range(n + 1):
        inverse_trace = inverse_trace + mu[i][i]

    p0 = [sys_.Pi.rows[j][0] for j in range(n + 1)]
    p_zero_sum = zero(mode)
    for v in p0:
        p_zero_sum = p_zero_sum + v * v

    qrows = associated_polys(sys_)
    q0 = [zero(mode)] + [qrows[j][0] for j in range(1, n + 1)]
    q_zero_sum = zero(mode)
    qp_zero_sum = zero(mode)
    for j in range(1, n + 1):
        q_zero_sum = q_zero_sum + q0[j] * q0[j]
        qp_zero_sum = qp_zero_sum + q0[j] * p0[j]

    q_moment_quadratic = zero(mode)
    qp_moment_sum = zero(mode)
    for i in range(1, n + 1):
        qp_moment_sum = qp_moment_sum + m.m(i - 1) * mu[0][i]
        for j in range(1, n + 1):
            q_moment_quadratic = q_moment_quadratic + mu[i][j] * m.m(i - 1) * m.m(j - 1)

    q_sandwich = None
    if mode == RATIONAL:
        checks["p_zero_identity"] = p_zero_sum == mu[0][0]
        checks["q_zero_identity"] = q_zero_sum == q_moment_quadratic
        checks["qp_identity"] = qp_zero_sum == qp_moment_sum
        eigenvalues = None
    else:
        rel = lambda a, b: abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))
        checks["p_zero_identity"] = rel(p_zero_sum, mu[0][0])
        checks["q_zero_identity"] = rel(q_zero_sum, q_moment_quadratic)
        checks["qp_identity"] = rel(qp_zero_sum, qp_moment_sum)

        import numpy as np

        dense = np.array(sys_.hankel.dense(), dtype=float)
        vals, vecs = np.linalg.eigh(dense)
        resid = np.linalg.norm(dense @ vecs - vecs * vals, ord=2)
        checks["eigen_residual"] = bool(resid <= eig_tol * np.linalg.norm(dense, 2))
        eigenvalues = [float(v) for v in vals]
        checks["eigenvalues_positive"] = bool(vals[0] > 0)

        checks["trace_identity"] = rel(float(moment_trace), float(sum(vals)))
        # both routes to tr(M^{-1}) lose relative accuracy like eps * cond(M)
        cond = float(vals[-1] / vals[0])
        inv_tol = max(1e-8, 100.0 * 2.3e-16 * cond)
        ta, tb = float(inverse_trace), float(sum(1.0 / v for v in vals))
        checks["inverse_trace_identity"] = abs(ta - tb) <= inv_tol * max(1.0, ta, tb)
        lo, hi = float(vals[0]), float(vals[-1])
        checks["p_zero_sandwich"] = (
            1.0 / hi <= float(p_zero_sum) * (1 + 1e-12) + 1e-15
            and float(p_zero_sum) <= (1.0 / lo) * (1 + 1e-12)
        )
        if points is None:
            points = [(0.3, -0.7), (1.0, 0.5), (-1.0, -0.25), (0.9, 0.9)]
        ok_bound, ok_sandwich = True, True
        for x, y in points:
            kxy = float(kernel(sys_, float(x), float(y)))
            sx = sum(float(x) ** (2 * i) for i in range(n + 1))
            sy = sum(float(y) ** (2 * i) for i in range(n + 1))
            ok_bound &= abs(kxy) <= (1.0 / lo) * (sx * sy) ** 0.5 * (1 + 1e-10)
            kxx = float(kernel(sys_, float(x), float(x)))
            chris = 1.0 / kxx
            ok_sandwich &= lo / sx * (1 - 1e-10) <= chris <= hi / sx * (1 + 1e-10)
        checks["kernel_upper_bound"] = bool(ok_bound)
        checks["christoffel_sandwich"] = bool(ok_sandwich)
        # upper-limit ambiguity in the printed bound makes this informative only
        msq = sum(float(m.m(j)) ** 2 for j in range(1, n))
        q_sandwich = (msq / hi, float(q_zero_sum), msq / lo)

    return SpectralDiagnostics(
        order=n,
        mode=mode,
        mu=mu,
        eigenvalues=eigenvalues,
        moment_trace=moment_trace,
        inverse_trace=inverse_trace,
        p_zero_sum=p_zero_sum,
        q_zero_sum=q_zero_sum,
        q_moment_quadratic=q_moment_quadratic,
        qp_zero_sum=qp_zero_sum,
        qp_moment_sum=qp_moment_sum,
        checks=checks,
        q_sandwich_bounds=q_sandwich,
    )
