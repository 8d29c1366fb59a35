"""Orthonormal polynomial system of a measure given by finitely many moments.

The system is the moment matrix with its factor L, Pi = L^-1 and the
three-term recurrence.  The moment matrix (:class:`HankelMoments`) owns all
of them in both modes: L, its diagonal sqrt(d_k), the minors Delta_k, Pi and
the recurrence, each built on first read.  Rational mode takes the
recurrence from one Chebyshev pass and scales Pi and L from its fills; float
mode factors, inverts and reads the recurrence off Pi.
Evaluation, associated polynomials, the reproducing kernel and the
finite-order spectral identities are derived from the tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cholesky import TriangularTable
from .moments import HankelMoments, MomentSequence, hankel_matrix
from .recurrence import (RecurrenceCoefficients, _chebyshev, _recurrence_from_inverse, eta_table,
                         tau_table)
from .scalars import RATIONAL, one, sum_scalars, zero


class PolynomialSystem:
    """Moment matrix, its factor L, the coefficient table Pi = L^-1, and the
    recurrence, all to a fixed order: a view of ``hankel``.

    ``rec`` is read from ``hankel`` when the system is made, so a matrix that
    is not positive definite raises :class:`NotPositiveDefinite` here; ``L``,
    ``Pi``, ``roots`` (the diagonal of L) and ``deltas`` are read from it
    when first asked for.
    """

    def __init__(self, hankel: HankelMoments):
        self.hankel, self.moments, self.rec = hankel, hankel.source, hankel.recurrence

    @property
    def mode(self) -> str:
        return self.hankel.mode

    @property
    def order(self) -> int:
        return self.hankel.order

    @property
    def L(self) -> TriangularTable:
        return self.hankel.factor

    @property
    def roots(self) -> list:
        return self.hankel.roots

    @property
    def Pi(self) -> TriangularTable:
        return self.hankel.inverse

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

    The recurrence is read at once, in rational mode from the Hankel
    matrix's Chebyshev pass and in float mode from Pi after Cholesky and
    inversion; a d_k <= 0 raises :class:`NotPositiveDefinite` at the same
    order and with the same pivot as the Cholesky factorization.  Rational
    ``Pi`` and ``L`` are built on first read, and connection, ribbon,
    Radon-Nikodym and linearization tables read the recurrence and ``roots``
    instead.
    """
    return PolynomialSystem(hankel_matrix(m, n))


def recurrence_from_tables(sys_: PolynomialSystem) -> RecurrenceCoefficients:
    """Recurrence coefficients from ratios of leading Pi entries of a system:
    the route that float mode's :attr:`HankelMoments.recurrence` takes.

    a_n = pi[n-1][n-1] / pi[n][n] and
    b_n = pi[n][n-1]/pi[n][n] - pi[n+1][n]/pi[n+1][n+1]; both ratios are
    rational in exact mode because each Pi row carries a single radical.
    """
    return _recurrence_from_inverse(sys_.Pi, sys_.label)


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
            # the benchmark digests pin; a nested loop rather than
            # sum_scalars, which is slower on this hot path
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
    n, pi = sys_.order, sys_.Pi.rows
    return [[sum_scalars((pi[k][i] * pi[k][j] for k in range(max(i, j), n + 1)), sys_.mode)
             for j in range(n + 1)] for i in range(n + 1)]


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

    moment_trace = sum_scalars((m.m(2 * i) for i in range(n + 1)), mode)
    inverse_trace = sum_scalars((mu[i][i] for i in range(n + 1)), mode)
    p0 = [row[0] for row in sys_.Pi.rows]
    p_zero_sum = sum_scalars((v * v for v in p0), mode)
    # q_j(0) for j = 1..n: column 0 of associated_polys, and only that
    q0 = [moment_inner_product(m, (one(mode),), row[1:]) for row in sys_.Pi.rows[1:]]
    q_zero_sum = sum_scalars((v * v for v in q0), mode)
    qp_zero_sum = sum_scalars((q * p for q, p in zip(q0, p0[1:])), mode)
    q_moment_quadratic = sum_scalars((mu[i][j] * m.m(i - 1) * m.m(j - 1)
                                      for i in range(1, n + 1) for j in range(1, n + 1)), mode)
    qp_moment_sum = sum_scalars((m.m(i - 1) * mu[0][i] for i in range(1, n + 1)), mode)

    q_sandwich = None
    if mode == RATIONAL:
        checks["p_zero_identity"] = p_zero_sum == mu[0][0]
        checks["q_zero_identity"] = q_zero_sum == q_moment_quadratic
        checks["qp_identity"] = qp_zero_sum == qp_moment_sum
        eigenvalues = None
    else:
        # the builtin sums below stay: they feed only checks and the sandwich
        # bounds, and sum_scalars would change their bits on Python 3.12
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
