"""Second derivations of the recurrence and of the reproducing kernel.

The library reads a_k^2 and b_k from the Chebyshev algorithm (rational mode)
or from ratios of Pi entries (float mode), and evaluates the kernel from the
rows of Pi.  These routines take the recurrence from determinant ratios and
L entries, and the kernel from the inverse moment matrix against monomial
vectors, so the tests can require both routes to agree with ``==``.
"""

from momentpoly.polysys import inverse_moment_matrix
from momentpoly.scalars import one, zero


def recurrence_delta_form(sys_):
    """(a2, b) from determinant ratios and L entries."""
    deltas = sys_.deltas
    L = sys_.L.rows
    n = sys_.order
    mode = sys_.mode

    def delta(k):
        return deltas[k] if k >= 0 else one(mode)

    a2 = [zero(mode)]
    for k in range(1, n + 1):
        a2.append(delta(k) * delta(k - 2) / (delta(k - 1) * delta(k - 1)))
    b = []
    for k in range(n):
        first = (delta(k - 1) / delta(k)) * L[k + 1][k] * L[k][k]
        if k >= 1:
            second = (delta(k - 2) / delta(k - 1)) * L[k][k - 1] * L[k - 1][k - 1]
        else:
            second = zero(mode)
        b.append(first - second)
    return tuple(a2), tuple(b)


def kernel_inverse_form(sys_, x, y):
    """X^T M^{-1} Y evaluated against the monomial vectors."""
    mu = inverse_moment_matrix(sys_)
    n = sys_.order
    xs = _powers(x, n, sys_.mode)
    ys = xs if y == x else _powers(y, n, sys_.mode)
    total = zero(sys_.mode)
    for i in range(n + 1):
        for j in range(n + 1):
            total = total + xs[i] * mu[i][j] * ys[j]
    return total


def _powers(x, n, mode):
    out = [one(mode)]
    for _ in range(n):
        out.append(out[-1] * x)
    return out
