"""Cholesky factorization and triangular inversion, exact and float."""

import random
from fractions import Fraction

import pytest

from momentpoly import (
    FamilySpec,
    NotPositiveDefinite,
    cholesky_decompose,
    hankel_matrix,
    identity_table,
    invert_lower_triangular,
    make_moments,
    tri_multiply,
)
from momentpoly.cholesky import TriangularTable
from momentpoly.moments import MomentSequence
from momentpoly.scalars import FLOAT, RATIONAL, exact_sqrt

from conftest import CATALOG
from minors_oracle import principal_minors


def reconstruct(L):
    """L * L^T as a dense matrix."""
    n = L.order
    out = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            lo = min(i, j)
            s = Fraction(0) if L.mode == RATIONAL else 0.0
            for k in range(lo + 1):
                s = s + L.entry(i, k) * L.entry(j, k)
            row.append(s)
        out.append(row)
    return out


class TestDecomposition:
    def test_order_zero(self):
        m = MomentSequence((Fraction(1),), RATIONAL)
        L = cholesky_decompose(hankel_matrix(m, 0))
        assert L.rows == [[1]]

    def test_first_subdiagonal_pivot_formula(self):
        # l[1][1] = sqrt(m2 - m1^2) for any normalized start
        rng = random.Random(3)
        for _ in range(10):
            m1 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            m2 = m1 * m1 + Fraction(rng.randint(1, 9), rng.randint(1, 4))
            m = MomentSequence((Fraction(1), m1, m2), RATIONAL)
            L = cholesky_decompose(hankel_matrix(m, 1))
            assert L.rows[1][0] == m1
            assert L.rows[1][1] == exact_sqrt(m2 - m1 * m1)

    def test_gaussian_order_two_factor(self):
        L = cholesky_decompose(hankel_matrix(make_moments(FamilySpec("gaussian", 5)), 2))
        assert L.rows[0] == [1]
        assert L.rows[1] == [0, 1]
        assert L.rows[2] == [1, 0, exact_sqrt(Fraction(2))]
        assert reconstruct(L) == [[1, 0, 1], [0, 1, 0], [1, 0, 3]]

    @pytest.mark.parametrize("family", CATALOG)
    def test_exact_reconstruction(self, family, catalog_moments):
        h = hankel_matrix(catalog_moments[family], 10)
        L = cholesky_decompose(h)
        dense = h.dense()
        assert reconstruct(L) == dense

    def test_pivot_interpretation_as_minor_ratio(self, catalog_moments):
        # l[n][n]^2 * Delta_{n-1} = Delta_n, with the minors by elimination
        h = hankel_matrix(catalog_moments["semicircle"], 10)
        L = cholesky_decompose(h)
        minors = principal_minors(h.dense())
        for n in range(1, 11):
            assert L.rows[n][n] ** 2 * minors[n - 1] == minors[n]

    def test_unique_factor_bit_identical(self, catalog_moments):
        h = hankel_matrix(catalog_moments["chebyshev1"], 8)
        L1 = cholesky_decompose(h)
        # rebuild the matrix from L and factor again
        dense = reconstruct(L1)
        m2 = MomentSequence(
            tuple(dense[0] + [dense[i][8] for i in range(1, 9)]),
            RATIONAL,
            "rebuilt",
        )
        L2 = cholesky_decompose(hankel_matrix(m2, 8))
        assert L1.rows == L2.rows

    def test_rank_collapse_detected_with_order(self):
        # moments of a two-point measure ((-1) and 1 with equal mass): rank 2
        m = MomentSequence(tuple(Fraction(1 - k % 2) for k in range(5)), RATIONAL)
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky_decompose(hankel_matrix(m, 2))
        assert err.value.order == 2

    def test_float_reconstruction_residual(self):
        m = make_moments(FamilySpec("uniform", 25), FLOAT)
        h = hankel_matrix(m, 12)
        L = cholesky_decompose(h)
        dense = h.dense()
        rebuilt = reconstruct(L)
        scale = max(abs(v) for row in dense for v in row)
        worst = max(
            abs(rebuilt[i][j] - dense[i][j]) for i in range(13) for j in range(13)
        )
        assert worst <= 1e-10 * scale

    def test_float_pivot_floor(self):
        # order 30 uniform collapses numerically long before it does exactly
        m = make_moments(FamilySpec("uniform", 61), FLOAT)
        with pytest.raises(NotPositiveDefinite):
            cholesky_decompose(hankel_matrix(m, 30))


class TestInversion:
    def test_identity_inverts_to_itself(self):
        eye = identity_table(4, RATIONAL)
        assert invert_lower_triangular(eye).rows == eye.rows

    def test_two_by_two_closed_form(self):
        rng = random.Random(9)
        for _ in range(10):
            m1 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            l11 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            t = TriangularTable("L", RATIONAL, [[Fraction(1)], [m1, l11]])
            inv = invert_lower_triangular(t)
            assert inv.rows == [[1], [-m1 / l11, 1 / l11]]

    def test_gaussian_orthonormal_coefficients(self):
        L = cholesky_decompose(hankel_matrix(make_moments(FamilySpec("gaussian", 5)), 2))
        pi = invert_lower_triangular(L)
        r2 = exact_sqrt(Fraction(2))
        assert pi.rows[2] == [-1 / r2, Fraction(0), 1 / r2]

    @pytest.mark.parametrize("family", CATALOG)
    def test_two_sided_inverse_exact(self, family, catalog_moments):
        L = cholesky_decompose(hankel_matrix(catalog_moments[family], 10))
        pi = invert_lower_triangular(L)
        eye = identity_table(10, RATIONAL).rows
        assert tri_multiply(pi, L).rows == eye
        assert tri_multiply(L, pi).rows == eye

    def test_unequal_orders_rejected(self):
        one = TriangularTable("L", RATIONAL, [[Fraction(1)]])
        two = TriangularTable("L", RATIONAL, [[Fraction(1)], [Fraction(1), Fraction(1)]])
        with pytest.raises(ValueError, match="equal order"):
            tri_multiply(one, two)

    @pytest.mark.parametrize("role, mode, message", [
        ("Q", RATIONAL, "unknown table role 'Q'"),
        ("L", "decimal", "unknown mode 'decimal'"),
    ])
    def test_unknown_role_or_mode_rejected(self, role, mode, message):
        with pytest.raises(ValueError, match=message):
            TriangularTable(role, mode, [[Fraction(1)]])

    def test_zero_diagonal_rejected(self):
        t = TriangularTable("L", RATIONAL, [[Fraction(1)], [Fraction(1), Fraction(0)]])
        with pytest.raises(ZeroDivisionError):
            invert_lower_triangular(t)
