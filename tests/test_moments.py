"""Moment catalog, Hankel matrices, determinant sequences, Carleman diagnostic."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpoly import (
    FamilySpec,
    HankelMoments,
    InsufficientMoments,
    MomentSequence,
    NotPositiveDefinite,
    RecurrenceCoefficients,
    build_system,
    carleman_diagnostic,
    hankel_matrix,
    load_moment_file,
    make_moments,
    moments_from_recurrence,
    save_moment_file,
)
from momentpoly import moments as moments_module
from momentpoly.moments import moment_sequence_from_dict
from momentpoly.scalars import FLOAT, RATIONAL

from conftest import CATALOG, positive_fractions, signed_fractions
from minors_oracle import det_pivoted, principal_minors


class TestCatalog:
    def test_gaussian_first_five(self):
        m = make_moments(FamilySpec("gaussian", 5))
        assert m.moments == (1, 0, 1, 0, 3)

    def test_gaussian_double_factorial_rule(self):
        m = make_moments(FamilySpec("gaussian", 13))
        for k in range(6):
            expect = 1
            for j in range(1, k + 1):
                expect *= 2 * j - 1
            assert m.m(2 * k) == expect

    def test_uniform_first_five(self):
        m = make_moments(FamilySpec("uniform", 5))
        assert m.moments == (1, 0, Fraction(1, 3), 0, Fraction(1, 5))

    def test_uniform_is_exact_integral(self):
        # integral of x^k / 2 over [-1, 1]
        m = make_moments(FamilySpec("uniform", 21))
        for k in range(21):
            expect = Fraction(0) if k % 2 else Fraction(1, k + 1)
            assert m.m(k) == expect

    def test_semicircle_catalan(self):
        m = make_moments(FamilySpec("semicircle", 9))
        assert [m.m(2 * k) for k in range(5)] == [
            1,
            Fraction(1, 4),
            Fraction(2, 16),
            Fraction(5, 64),
            Fraction(14, 256),
        ]

    def test_chebyshev_central_binomial(self):
        m = make_moments(FamilySpec("chebyshev1", 7))
        assert [m.m(2 * k) for k in range(4)] == [
            1,
            Fraction(1, 2),
            Fraction(3, 8),
            Fraction(5, 16),
        ]

    def test_explicit_identity_case(self):
        m = make_moments(FamilySpec("explicit", 1, {"moments": [1]}))
        assert m.moments == (Fraction(1),)

    @pytest.mark.parametrize("moments", ["123", None, {"0": "1"}, 7])
    def test_explicit_non_list_rejected(self, moments):
        # a string would otherwise be read one character at a time
        with pytest.raises(ValueError, match=r"params\['moments'\] list"):
            make_moments(FamilySpec("explicit", 3, {"moments": moments}))

    @pytest.mark.parametrize("params", [{"a2": "0123", "b": ["0"] * 4},
                                        {"a2": ["0", "1", "2", "3"], "b": "0000"},
                                        {"a2": ["0", "1", "2", "3"]}])
    def test_from_recurrence_non_list_rejected(self, params):
        with pytest.raises(ValueError, match=r"params\['a2'\] and params\['b'\] lists"):
            make_moments(FamilySpec("from-recurrence", 5, params))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FamilySpec("lognormal", 5)

    @pytest.mark.parametrize("make, message", [
        (lambda: MomentSequence((), RATIONAL), "needs at least m_0"),
        (lambda: FamilySpec("uniform", 0), "count must be at least 1"),
        (lambda: make_moments(FamilySpec("explicit", 3, {"moments": [1, 0]})),
         "explicit moment list shorter than count"),
    ], ids=["empty-sequence", "zero-count", "short-explicit"])
    def test_empty_or_short_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_q_hermite_parameter_validation(self):
        with pytest.raises(ValueError):
            make_moments(FamilySpec("q-hermite", 5, {"q": Fraction(3, 2)}))

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("params", [{}, {"q": None}, {"q": [0.5]}, {"q": True},
                                        {"q": float("inf")}, {"q": float("nan")}])
    def test_q_hermite_missing_or_malformed_q_rejected(self, mode, params):
        with pytest.raises(ValueError):
            make_moments(FamilySpec("q-hermite", 5, params), mode)

    def test_q_hermite_float_q_read_exactly_in_rational_mode(self):
        m = make_moments(FamilySpec("q-hermite", 9, {"q": 0.5}), RATIONAL)
        assert m.mode == RATIONAL
        assert m.moments == make_moments(FamilySpec("q-hermite", 9, {"q": Fraction(1, 2)})).moments
        # a float that is not a short binary fraction keeps its exact value
        m = make_moments(FamilySpec("q-hermite", 5, {"q": 0.1}), RATIONAL)
        assert m.m(4) == 2 + Fraction(0.1)

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            MomentSequence((Fraction(2),), RATIONAL)

    def test_float_sequence_converts_to_itself(self):
        m = make_moments(FamilySpec("uniform", 5), FLOAT)
        assert m.to_floats() is m

    def test_float_mode_catalog(self):
        m = make_moments(FamilySpec("gaussian", 5), FLOAT)
        assert m.moments == (1.0, 0.0, 1.0, 0.0, 3.0)


class TestHankel:
    def test_order_one_identity(self):
        m = MomentSequence((Fraction(1), Fraction(0), Fraction(1)), RATIONAL)
        h = hankel_matrix(m, 1)
        assert h.dense() == [[1, 0], [0, 1]]
        assert h.deltas == [1, 1]

    def test_gaussian_order_two(self):
        h = hankel_matrix(make_moments(FamilySpec("gaussian", 5)), 2)
        assert h.dense() == [[1, 0, 1], [0, 1, 0], [1, 0, 3]]
        assert h.deltas[2] == 2

    def test_index_law(self):
        m = make_moments(FamilySpec("gaussian", 7))
        h = hankel_matrix(m, 2)
        assert h.entry(1, 2) == m.m(3)
        assert h.entry(2, 1) == m.m(3)

    @pytest.mark.parametrize("family", CATALOG)
    def test_symmetric_hankel_structure(self, family, catalog_moments):
        h = hankel_matrix(catalog_moments[family], 6)
        dense = h.dense()
        for i in range(7):
            for j in range(7):
                assert dense[i][j] == dense[j][i]
                if i + 1 <= 6 and j - 1 >= 0:
                    assert dense[i][j] == dense[i + 1][j - 1]

    @pytest.mark.parametrize("family", CATALOG)
    def test_positive_determinants_to_order_twenty(self, family, catalog_moments):
        h = hankel_matrix(catalog_moments[family], 20)
        assert len(h.deltas) == 21
        assert all(d > 0 for d in h.deltas)

    def test_insufficient_moments(self):
        m = make_moments(FamilySpec("gaussian", 5))
        with pytest.raises(InsufficientMoments):
            hankel_matrix(m, 3)
        # the constructor checks too: m_0..m_8 reach order 4, not 5
        nine = make_moments(FamilySpec("gaussian", 9))
        with pytest.raises(InsufficientMoments, match="need moments up to m_10"):
            HankelMoments(5, nine)
        assert HankelMoments(4, nine).order == 4

    @pytest.mark.parametrize("make", [hankel_matrix, lambda m, n: HankelMoments(n, m),
                                      build_system], ids=["hankel_matrix", "HankelMoments",
                                                          "build_system"])
    def test_negative_order_rejected(self, make):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            make(make_moments(FamilySpec("gaussian", 5)), -1)

    def test_minors_match_pivoted_determinants(self):
        # the test oracle itself: Bareiss single pass vs pivoted elimination
        m = make_moments(FamilySpec("semicircle", 13))
        dense = hankel_matrix(m, 6).dense()
        minors = principal_minors(dense)
        for k in range(7):
            sub = [row[: k + 1] for row in dense[: k + 1]]
            assert minors[k] == det_pivoted(sub)


class TestDeltas:
    """Delta_k from the pivots d_k, checked against elimination minors."""

    @pytest.mark.parametrize(
        "spec",
        [FamilySpec(fam, 41) for fam in CATALOG]
        + [FamilySpec("q-hermite", 41, {"q": Fraction(1, 2)})],
        ids=lambda spec: spec.family,
    )
    def test_deltas_match_oracle_at_order_twenty(self, spec):
        h = hankel_matrix(make_moments(spec), 20)
        assert h.deltas == principal_minors(h.dense())

    def test_deltas_match_oracle_with_nonzero_b(self):
        spec = FamilySpec("from-recurrence", 21, {
            "a2": ["0", "1/2", "3", "5/4", "2", "7/3", "1", "9/5", "4/3", "2", "3"],
            "b": ["1/3", "-2/3", "1", "0", "-1/2", "2/5", "1/4", "-1", "3/2", "1/3"],
        })
        h = hankel_matrix(make_moments(spec), 10)
        assert h.deltas == principal_minors(h.dense())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.lists(positive_fractions, min_size=n, max_size=n),
        st.lists(signed_fractions, min_size=n, max_size=n),
    )))
    def test_deltas_equal_oracle_and_recurrence_product(self, coeffs):
        a2, b = coeffs
        n = len(a2)
        rec = RecurrenceCoefficients(
            (Fraction(0),) + tuple(a2), tuple(b), RATIONAL
        )
        h = hankel_matrix(moments_from_recurrence(rec, 2 * n + 1), n)
        product = Fraction(1)
        for j in range(1, n + 1):
            product *= rec.a2[j] ** (n - j + 1)
        assert h.deltas[n] == product
        assert h.deltas == principal_minors(h.dense())

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_build_then_deltas_factors_once(self, mode, monkeypatch):
        # the rational build takes its factor from the Chebyshev algorithm and
        # never runs the Cholesky factorization; the float build runs it once
        calls = []
        original = moments_module.cholesky_decompose

        def counting(hankel):
            calls.append(hankel.order)
            return original(hankel)

        monkeypatch.setattr(moments_module, "cholesky_decompose", counting)
        sys_ = build_system(make_moments(FamilySpec("uniform", 13), mode), 6)
        assert len(sys_.deltas) == 7
        assert calls == ([] if mode == RATIONAL else [6])

    def test_non_positive_definite_raises_at_failing_order(self):
        # moments of the two-point measure on {-1, 1}: rank 2
        m = MomentSequence(tuple(Fraction(1 - k % 2) for k in range(5)), RATIONAL)
        with pytest.raises(NotPositiveDefinite) as err:
            hankel_matrix(m, 2).deltas
        assert err.value.order == 2
        # a system reads its recurrence when it is made; the matrix alone
        # is made without error and fails where it is read
        with pytest.raises(NotPositiveDefinite) as err:
            build_system(m, 2)
        assert err.value.order == 2
        hank = hankel_matrix(m, 2)
        with pytest.raises(NotPositiveDefinite) as err:
            hank.recurrence
        assert err.value.order == 2


class TestCarleman:
    def test_single_term(self):
        m = MomentSequence((Fraction(1), Fraction(0), Fraction(1)), RATIONAL)
        rep = carleman_diagnostic(m)
        assert rep.partial_sums == [1.0]

    def test_quarter_term(self):
        m = MomentSequence((Fraction(1), Fraction(0), Fraction(4)), RATIONAL)
        assert carleman_diagnostic(m).partial_sums == [0.5]

    def test_gaussian_partial_sums_increase(self):
        m = make_moments(FamilySpec("gaussian", 21))
        sums = carleman_diagnostic(m).partial_sums
        assert all(b > a for a, b in zip(sums, sums[1:]))

    def test_nonpositive_even_moment_rejected(self):
        m = MomentSequence((1.0, 0.0, -1.0), FLOAT)
        with pytest.raises(ValueError):
            carleman_diagnostic(m)

    def test_report_carries_inconclusiveness_note(self):
        m = make_moments(FamilySpec("uniform", 9))
        assert "inconclusive" in carleman_diagnostic(m).note


class TestMomentFiles:
    def test_round_trip(self, tmp_path):
        m = make_moments(FamilySpec("uniform", 9), RATIONAL)
        path = tmp_path / "u.json"
        save_moment_file(m, path)
        back = load_moment_file(path)
        assert back.moments == m.moments
        assert back.mode == RATIONAL
        assert back.label == "uniform"

    def test_rational_entries_are_decimal_free(self, tmp_path):
        m = make_moments(FamilySpec("uniform", 5), RATIONAL)
        path = tmp_path / "u.json"
        save_moment_file(m, path)
        data = json.loads(path.read_text())
        assert data["moments"] == ["1", "0", "1/3", "0", "1/5"]

    def test_mode_override(self, tmp_path):
        m = make_moments(FamilySpec("gaussian", 5), RATIONAL)
        path = tmp_path / "g.json"
        save_moment_file(m, path)
        assert load_moment_file(path, mode=FLOAT).moments == (1.0, 0.0, 1.0, 0.0, 3.0)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            moment_sequence_from_dict({"label": "x"})

    def test_string_moments_rejected(self):
        with pytest.raises(ValueError):
            moment_sequence_from_dict({"moments": "1012"})

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_boolean_moment_rejected(self, mode):
        with pytest.raises(ValueError):
            moment_sequence_from_dict({"moments": [True, 0, 1]}, mode=mode)
