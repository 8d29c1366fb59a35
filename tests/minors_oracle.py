"""Leading principal minors by elimination, independent of the Cholesky factor.

The library takes Delta_k from the running product of the squared diagonal of
its factor L; these routines compute the same minors by fraction-free (Bareiss)
elimination and by plain pivoted Gaussian elimination, so the tests can check
Delta against a derivation that shares no code with the factorization.
"""

from fractions import Fraction


def det_pivoted(mat: list) -> Fraction:
    """Exact determinant by Gaussian elimination with partial pivoting."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return sign * det


def principal_minors(mat: list) -> list:
    """Leading principal minors of an exact square matrix.

    Single-pass Bareiss elimination: after step k the (k, k) entry equals the
    (k+1) x (k+1) leading minor.  A zero pivot (possible only for degenerate
    moment inputs) triggers a per-minor pivoted fallback.
    """
    n = len(mat)
    a = [[Fraction(v) for v in row] for row in mat]
    minors = [a[0][0]]
    prev = Fraction(1)
    for k in range(n - 1):
        pivot = a[k][k]
        if pivot == 0:
            return minors + [
                det_pivoted([row[: t + 1] for row in mat[: t + 1]])
                for t in range(k + 1, n)
            ]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) / prev
        prev = pivot
        minors.append(a[k + 1][k + 1])
    return minors
