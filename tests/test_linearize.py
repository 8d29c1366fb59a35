"""Linearization tables, closed forms, and independent expansion oracles."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpoly import (
    FamilySpec,
    RecurrenceCoefficients,
    build_system,
    closed_form_linearization,
    linearization_table,
    make_moments,
    moment_inner_product,
    moments_from_recurrence,
    monic_tables,
    verify_linearization_closed_forms,
)
from momentpoly.scalars import FLOAT, RATIONAL, exact_sqrt, zero

from conftest import CATALOG, positive_fractions, random_recurrence, signed_fractions


@pytest.fixture(scope="module")
def systems(catalog_moments):
    return {fam: build_system(catalog_moments[fam], 12) for fam in CATALOG}


def triple_sum_oracle(sys_, n, m, basis):
    """c_s = sum over j <= n, k <= m, j + k >= s of
    pi[n][j] * pi[m][k] * lambda[j+k][s], or the same with (eta, tau) in the
    monic basis: the product expanded through the coefficient tables."""
    if basis == "orthonormal":
        upper, lower = sys_.Pi.rows, sys_.Lambda.rows
    else:
        eta, tau = monic_tables(sys_)
        upper, lower = eta.rows, tau.rows
    coeffs = []
    for s in range(n + m + 1):
        total = zero(sys_.mode)
        for j in range(n + 1):
            cj = upper[n][j]
            if not cj:
                continue
            for k in range(max(s - j, 0), m + 1):
                ck = upper[m][k]
                if ck:
                    total = total + cj * ck * lower[j + k][s]
        coeffs.append(total)
    return coeffs


def expand_product_oracle(sys_, n, m, basis):
    """Independent oracle: convolve coefficient rows, then convert the monomial
    result back through the inverse table."""
    if basis == "orthonormal":
        upper, lower = sys_.Pi.rows, sys_.Lambda.rows
    else:
        eta, tau = monic_tables(sys_)
        upper, lower = eta.rows, tau.rows
    conv = [Fraction(0)] * (n + m + 1)
    for i, a in enumerate(upper[n]):
        if a:
            for j, b in enumerate(upper[m]):
                if b:
                    conv[i + j] += a * b
    out = []
    for s in range(n + m + 1):
        total = Fraction(0)
        for deg in range(s, n + m + 1):
            if conv[deg]:
                total = total + conv[deg] * lower[deg][s]
        out.append(total)
    return out


def monic_chebyshev_product(n, m):
    """Closed form for products of monic first-kind Chebyshev polynomials."""
    coeffs = {}
    if n == 0 or m == 0:
        coeffs[n + m] = Fraction(1)
        return coeffs
    coeffs[n + m] = Fraction(1)
    if n == m:
        coeffs[0] = Fraction(2) ** (1 - 2 * n)
    else:
        coeffs[abs(n - m)] = Fraction(2) ** (abs(n - m) - n - m)
    return coeffs


class TestTables:
    def test_unit_factor_reproduces_basis(self, systems):
        sys_ = systems["uniform"]
        for m in range(5):
            table = linearization_table(sys_, 0, m)
            for s in range(m + 1):
                assert table.entry(s) == (1 if s == m else 0)

    def test_gaussian_degree_one_square(self, systems):
        table = linearization_table(systems["gaussian"], 1, 1)
        assert table.coefficients == [1, 0, exact_sqrt(Fraction(2))]

    def test_gaussian_monic_square(self, systems):
        table = linearization_table(systems["gaussian"], 2, 2, basis="monic")
        assert table.entry(2) == 4
        assert table.entry(0) == 2
        assert table.coefficients == [2, 0, 4, 0, 1]

    @pytest.mark.parametrize("basis", ["orthonormal", "monic"])
    def test_vanishing_band_below_degree_gap(self, systems, basis):
        sys_ = systems["semicircle"]
        for n in range(7):
            for m in range(n + 1):
                table = linearization_table(sys_, n, m, basis=basis)
                for s in range(n - m):
                    assert table.entry(s) == 0

    def test_symmetry_in_the_two_degrees(self, systems):
        sys_ = systems["chebyshev1"]
        for n in range(5):
            for m in range(5):
                a = linearization_table(sys_, n, m).coefficients
                b = linearization_table(sys_, m, n).coefficients
                assert a == b

    def test_product_projects_to_kronecker(self, systems):
        # applying the moment functional to p_n * p_m gives the orthonormality
        # relation back through the constant coefficient
        sys_ = systems["uniform"]
        for n in range(5):
            for m in range(5):
                table = linearization_table(sys_, n, m)
                assert table.entry(0) == (1 if n == m else 0)
                direct = moment_inner_product(
                    sys_.moments, sys_.Pi.rows[n], sys_.Pi.rows[m]
                )
                assert direct == (1 if n == m else 0)

    @pytest.mark.parametrize("basis", ["orthonormal", "monic"])
    def test_against_convolution_oracle(self, systems, basis):
        rng = random.Random(50)
        rec = random_recurrence(rng, 14)
        sys_ = build_system(moments_from_recurrence(rec, 17), 8)
        for n, m in ((1, 1), (2, 3), (4, 4), (3, 5)):
            table = linearization_table(sys_, n, m, basis=basis)
            assert table.coefficients == expand_product_oracle(sys_, n, m, basis)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 8), st.integers(0, 8),
           st.lists(positive_fractions, min_size=16, max_size=16),
           st.one_of(st.just(None), st.lists(signed_fractions, min_size=16, max_size=16)))
    def test_equals_triple_sum_oracle(self, n, m, a2, b):
        # b is None for a symmetric measure
        rec = RecurrenceCoefficients((Fraction(0), *a2), tuple(b or [Fraction(0)] * 16),
                                     RATIONAL)
        sys_ = build_system(moments_from_recurrence(rec, 2 * (n + m) + 1), n + m)
        for basis in ("orthonormal", "monic"):
            table = linearization_table(sys_, n, m, basis=basis)
            # str pins the surd representation, which is what the CLI prints
            assert [str(v) for v in table.coefficients] == \
                [str(v) for v in triple_sum_oracle(sys_, n, m, basis)]

    @pytest.mark.parametrize("family", CATALOG)
    def test_float_tables_close_to_exact(self, systems, family):
        # order 12 errs by at most 2.2e-13 (gaussian) to 1.3e-10 (uniform)
        # relative to the largest entry; the float Cholesky factor sets it
        floats = build_system(make_moments(FamilySpec(family, 25), FLOAT), 12)
        for n in range(13):
            for m in range(13 - n):
                for basis in ("orthonormal", "monic"):
                    exact = linearization_table(systems[family], n, m, basis=basis)
                    got = linearization_table(floats, n, m, basis=basis)
                    assert got.mode == FLOAT
                    expect = [float(v) for v in exact.coefficients]
                    top = max(abs(v) for v in expect)
                    assert max(abs(a - b) for a, b in zip(got.coefficients, expect)) \
                        <= 1e-8 * top, (n, m, basis)

    def test_monic_orthonormal_ratio(self, systems):
        # c_monic[s] = c_ortho[s] * (prod a)_n (prod a)_m / (prod a)_s
        sys_ = systems["semicircle"]
        prods = [Fraction(1)]
        for j in range(1, sys_.order + 1):
            prods.append(prods[-1] * sys_.rec.a(j))
        n, m = 3, 4
        ortho = linearization_table(sys_, n, m)
        monic = linearization_table(sys_, n, m, basis="monic")
        for s in range(n + m + 1):
            assert monic.entry(s) == ortho.entry(s) * prods[n] * prods[m] / prods[s]

    def test_chebyshev_products_closed_form(self, systems):
        sys_ = systems["chebyshev1"]
        for n in range(1, 6):
            for m in range(1, 6):
                if n + m > 10:
                    continue
                table = linearization_table(sys_, n, m, basis="monic")
                expect = monic_chebyshev_product(n, m)
                for s in range(n + m + 1):
                    assert table.entry(s) == expect.get(s, 0)

    def test_insufficient_order_rejected(self, systems):
        with pytest.raises(ValueError):
            linearization_table(systems["uniform"], 8, 5)


class TestClosedForms:
    def test_symmetric_top_minus_one_vanishes(self, systems):
        rec = systems["gaussian"].rec
        out = closed_form_linearization(rec, 3, 2, 4)
        assert out["statement"] == 0

    def test_gaussian_second_coefficient(self, systems):
        # a_2^2 + a_3^2 - a_1^2 = (2 + 3) - 1
        out = closed_form_linearization(systems["gaussian"].rec, 2, 2, 2)
        assert out["statement"] == 4
        assert out["proof_expansion"] == 4

    def test_report_against_tables_nonsymmetric(self):
        rng = random.Random(52)
        rec = random_recurrence(rng, 14)
        sys_ = build_system(moments_from_recurrence(rec, 17), 8)
        checks = verify_linearization_closed_forms(sys_, 3, 2)
        by_name = {c.name: c for c in checks}
        # the top-minus-one formula is exact
        assert by_name["top_minus_one_statement"].passed
        # the two printed versions of the next coefficient disagree with the
        # table for generic nonsymmetric input; both are reported verbatim
        assert not by_name["top_minus_two_statement"].passed
        assert not by_name["top_minus_two_proof_expansion"].passed

    def test_report_all_green_for_symmetric(self, systems):
        checks = verify_linearization_closed_forms(systems["semicircle"], 3, 3)
        assert all(c.passed for c in checks)

    def test_float_system_refused(self):
        # rounding alone failed 29 of the checks at n, m < 8, against 1 exactly
        sys_ = build_system(make_moments(FamilySpec("gaussian", 29), FLOAT), 14)
        with pytest.raises(ValueError, match="compares exact identities"):
            verify_linearization_closed_forms(sys_, 3, 2)

    def test_degree_zero_product_has_no_check(self, systems):
        # s = n + m - 1 = -1 must not wrap around to the coefficient of p_0
        for sys_ in systems.values():
            assert verify_linearization_closed_forms(sys_, 0, 0) == []

    def test_degree_one_product_checks_only_the_top(self, systems):
        for n, m in ((1, 0), (0, 1)):
            checks = verify_linearization_closed_forms(systems["gaussian"], n, m)
            assert [(c.name, c.passed, c.checked) for c in checks] == [
                ("top_minus_one_statement", True, 1)]

    def test_unsupported_s_rejected(self, systems):
        with pytest.raises(ValueError):
            closed_form_linearization(systems["gaussian"].rec, 2, 2, 1)

    @pytest.mark.parametrize("n, m, s", [(0, 0, -1), (0, 0, -2), (1, 0, -1)])
    def test_negative_s_rejected(self, systems, n, m, s):
        # s = n + m - 1 or n + m - 2 below zero used to return a closed form
        with pytest.raises(ValueError, match=f"s = {s};"):
            closed_form_linearization(systems["gaussian"].rec, n, m, s)

    @pytest.mark.parametrize("n, m, s", [(-1, 2, 0), (2, -1, 0), (-1, 0, -2)])
    def test_negative_degree_rejected(self, systems, n, m, s):
        # s = n + m - 1 used to return a closed form for a degree below zero
        with pytest.raises(ValueError, match=f"got n = {n}, m = {m}$"):
            closed_form_linearization(systems["gaussian"].rec, n, m, s)
