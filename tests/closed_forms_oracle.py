"""The auxiliary closed forms evaluated one entry at a time.

The library fills each closed-form table in one pass per row or column
(``momentpoly.recurrence.aux_tables``); these routines evaluate every entry
from a^2 and b on its own, in rational arithmetic, so the tests can require
the library's fills to equal them with ``==`` and ``repr``.
"""

from momentpoly.scalars import one, zero


def closed_xi1(rec, row: int, col: int):
    """Gap-constrained products of a^2: (-1)^k * sum over 1 <= j_1 < ... < j_k
    <= row-1 with j_{m+1} - j_m >= 2 of prod a_{j_m}^2, where row - col = 2k;
    zero for odd row - col.  Evaluated by the loop-friendly nested-sum form.
    """
    gap = row - col
    if gap < 0:
        return zero(rec.mode)
    if gap % 2 == 1:
        return zero(rec.mode)
    k = gap // 2
    if k == 0:
        return one(rec.mode)
    # m-th index ranges lo..row-2k+2m-1 with lo = previous index + 2
    memo: dict = {}

    def nested(m: int, lo: int):
        if m > k:
            return one(rec.mode)
        key = (m, lo)
        if key not in memo:
            hi = row - 2 * k + 2 * m - 1
            total = zero(rec.mode)
            for j in range(lo, hi + 1):
                total = total + rec.a2[j] * nested(m + 1, j + 2)
            memo[key] = total
        return memo[key]

    value = nested(1, 1)
    return -value if k % 2 == 1 else value


def closed_xi2(rec, row: int, col: int):
    """Signed elementary symmetric sums: (-1)^j e_j(b_0..b_{row-1}), j = row - col."""
    j = row - col
    if j < 0:
        return zero(rec.mode)
    e = [one(rec.mode)] + [zero(rec.mode)] * j
    for x in rec.b[:row]:
        for t in range(j, 0, -1):
            e[t] = e[t] + e[t - 1] * x
    return -e[j] if j % 2 == 1 else e[j]


def closed_zeta1(rec, row: int, col: int):
    """Nested a^2 sums: sum_{j_1=1}^{col+1} a_{j_1}^2 sum_{j_2=1}^{j_1+1} ...
    with row - col = 2k factors; zero for odd row - col."""
    gap = row - col
    if gap < 0:
        return zero(rec.mode)
    if gap % 2 == 1:
        return zero(rec.mode)
    k = gap // 2
    if k == 0:
        return one(rec.mode)
    memo: dict = {}

    def nested(m: int, hi: int):
        if m > k:
            return one(rec.mode)
        key = (m, hi)
        if key not in memo:
            total = zero(rec.mode)
            for j in range(1, hi + 1):
                total = total + rec.a2[j] * nested(m + 1, j + 1)
            memo[key] = total
        return memo[key]

    return nested(1, col + 1)


def closed_zeta2(rec, row: int, col: int):
    """Monotone multi-indexed b products: the complete homogeneous symmetric
    sum h_j(b_0..b_col) with j = row - col."""
    j = row - col
    if j < 0:
        return zero(rec.mode)
    h = [one(rec.mode)] + [zero(rec.mode)] * j
    for x in rec.b[: col + 1]:
        for t in range(1, j + 1):
            h[t] = h[t] + h[t - 1] * x
    return h[j]
