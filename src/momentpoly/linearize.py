"""Linearization coefficients of products of orthogonal polynomials.

p_n * p_m = sum_s c[n][m][s] * p_s, read straight off the three-term
recurrence: starting from g_0 = ptilde_n, the monic recurrence

    g_{k+1} = (x - b_k) * g_k - a_k^2 * g_{k-1}

gives g_k = ptilde_n * ptilde_k, and multiplying by x stays in the monic
basis through x * ptilde_j = ptilde_{j+1} + b_j * ptilde_j + a_j^2 * ptilde_{j-1}.
So the monic table is row m of the banded fill of ``recurrence`` with the
recurrence as both target and source, started at row n.  The orthonormal
table rescales it: p_k = ptilde_k / sqrt(d_k) gives
c_s = c~_s / sqrt(d_n) / sqrt(d_m) * sqrt(d_s), with sqrt(d_k) the system's
``roots``, the diagonal of L.  Tables need the system built to order n + m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .polysys import PolynomialSystem
from .recurrence import RecurrenceCoefficients, _banded_fill, _identity_check, _require_exact
from .scalars import sum_scalars

BASES = ("orthonormal", "monic")


@dataclass
class LinearizationTable:
    """Coefficients c[s] of p_n * p_m expanded back into the system, s = 0..n+m."""

    n: int
    m: int
    coefficients: list
    basis: str
    mode: str

    def entry(self, s: int):
        return self.coefficients[s]


def linearization_table(
    sys_: PolynomialSystem, n: int, m: int, basis: str = "orthonormal"
) -> LinearizationTable:
    if basis not in BASES:
        raise ValueError(f"basis must be one of {BASES}")
    if n < 0 or m < 0:
        raise ValueError(f"degrees must be non-negative, got n = {n}, m = {m}")
    if sys_.order < n + m:
        raise ValueError(
            f"product of degrees {n} and {m} needs system order {n + m}, "
            f"have {sys_.order}"
        )
    mode, rec = sys_.mode, sys_.rec
    coeffs = _banded_fill(mode, m, target=(rec.a2, rec.b), source=(rec.a2, rec.b), start=n).row(m)
    if basis == "orthonormal":
        roots = sys_.roots
        scale = 1 / roots[n] * (1 / roots[m])
        coeffs = [c * scale * roots[s] for s, c in enumerate(coeffs)]
    return LinearizationTable(n=n, m=m, coefficients=coeffs, basis=basis, mode=mode)


def closed_form_linearization(
    rec: RecurrenceCoefficients, n: int, m: int, s: int
) -> dict:
    """Printed closed forms for the two monic coefficients below the top degree.

    For s = n + m - 1 the single printed formula is returned under
    ``"statement"``.  For s = n + m - 2 the statement and the expansion used in
    its printed derivation disagree with each other; both are evaluated and
    returned (keys ``"statement"`` and ``"proof_expansion"``) so callers can
    report each against the table value without adjudicating.
    """
    if s < 0:
        raise ValueError(f"no closed form for s = {s}; s must be non-negative")
    mode, a2, b = rec.mode, rec.a2, rec.b
    big, small = max(n, m), min(n, m)
    if s == n + m - 1:
        return {"statement": sum_scalars((b[j] - b[j - big] for j in range(big, n + m)), mode)}
    if s == n + m - 2:
        a_part = sum_scalars(chain((a2[j] for j in range(big, n + m)),
                                   (-a2[j] for j in range(1, small))), mode)
        upper, lower = range(big, n + m - 1), range(small)
        d1 = sum_scalars(chain((b[j] for j in upper), (-b[j] for j in lower)), mode)
        d2 = sum_scalars(chain((b[j] * b[j] for j in upper), (-(b[j] * b[j]) for j in lower)), mode)
        half = Fraction(1, 2)  # times a float x, the float 0.5 * x: one constant for both modes
        statement = a_part - half * d1 * d1 - half * d2
        bn, bm, bnm = (sum_scalars((b[j] for j in range(top)), mode) for top in (n, m, n + m - 1))
        proof = a_part - (bn + bm) * bnm + bn * bm
        return {"statement": statement, "proof_expansion": proof}
    raise ValueError(f"no closed form for s = {s}; supported: n+m-1 and n+m-2")


def verify_linearization_closed_forms(
    sys_: PolynomialSystem, n: int, m: int
) -> list:
    """Compare every printed closed form against the monic table.

    Returns one :class:`~momentpoly.recurrence.IdentityCheck` per printed form
    of the coefficients s = n + m - 1 and n + m - 2 that exist, so none for
    n = m = 0.  Raises ``ValueError`` on a float-mode system: the forms are
    compared with ``!=``, so rounding alone would fail them.
    """
    _require_exact(sys_.mode, "verify_linearization_closed_forms")
    table = linearization_table(sys_, n, m, basis="monic")
    return [_identity_check(f"top_minus_{gap}_{key}", [(s, table.entry(s), value)])
            for s, gap in ((n + m - 1, "one"), (n + m - 2, "two")) if s >= 0
            for key, value in closed_form_linearization(sys_.rec, n, m, s).items()]
