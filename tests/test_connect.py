"""Connection tables, closed forms, ribbon structure, Radon-Nikodym expansions."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentpoly import (
    FamilySpec,
    InsufficientMoments,
    MomentSequence,
    NotPositiveDefinite,
    RecurrenceCoefficients,
    build_system,
    builtin_ribbon_pair,
    closed_form_gamma,
    connection_table,
    make_moments,
    moments_from_recurrence,
    ribbon_check,
    rn_expansion,
)
from momentpoly.cholesky import TriangularTable
from momentpoly.scalars import FLOAT, RATIONAL, Surd

from conftest import CATALOG, positive_fractions, random_recurrence, signed_fractions
from connect_oracle import (connection_by_quotients, connection_by_tables, rn_by_moments,
                            ribbon_by_moments)
from polysys_oracle import as_text, ribbon_loop


@pytest.fixture(scope="module")
def systems(catalog_moments):
    return {fam: build_system(catalog_moments[fam], 10) for fam in CATALOG}


def random_system(rng, order, symmetric=False):
    rec = random_recurrence(rng, 2 * order + 2, symmetric=symmetric)
    return build_system(moments_from_recurrence(rec, 2 * order + 1), order)


#: the order of a drawn system, and rational systems of that order: a_1^2..a_6^2,
#: b_0..b_5 with b either all zero or signed
_ORDER = 6
_drawn_systems = st.tuples(
    st.lists(positive_fractions, min_size=_ORDER, max_size=_ORDER),
    st.one_of(st.just([Fraction(0)] * _ORDER),
              st.lists(signed_fractions, min_size=_ORDER, max_size=_ORDER)),
).map(lambda ab: build_system(moments_from_recurrence(
    RecurrenceCoefficients((Fraction(0), *ab[0]), tuple(ab[1]), RATIONAL),
    2 * _ORDER + 1), _ORDER))


def compose(first, second):
    """Row i of the product of two connection tables, lower-triangular."""
    n = first.order
    return [[sum((first.entry(i, k) * second.entry(k, j) for k in range(j, i + 1)),
                 Fraction(0)) for j in range(i + 1)] for i in range(n + 1)]


class TestConnectionTable:
    def test_same_measure_gives_identity(self, systems):
        g = connection_table(systems["gaussian"], systems["gaussian"], 6)
        for i in range(7):
            for j in range(i + 1):
                assert g.entry(i, j) == (1 if i == j else 0)

    def test_symmetric_pairs_have_zero_first_subdiagonal(self, systems):
        g = connection_table(systems["gaussian"], systems["uniform"], 8, basis="monic")
        for n in range(1, 9):
            assert g.entry(n, n - 1) == 0

    def test_chebyshev_in_legendre_basis(self, systems):
        g = connection_table(systems["chebyshev1"], systems["uniform"], 2, basis="monic")
        assert g.entry(2, 0) == Fraction(-1, 6)
        assert g.entry(2, 2) == 1

    def test_monic_diagonal_is_unit(self, systems):
        g = connection_table(systems["semicircle"], systems["chebyshev1"], 8, basis="monic")
        for n in range(9):
            assert g.entry(n, n) == 1

    def test_orthonormal_diagonal_positive(self, systems):
        g = connection_table(systems["semicircle"], systems["uniform"], 8)
        for n in range(9):
            assert g.entry(n, n) > 0

    def test_inverse_pair(self, systems):
        ab = connection_table(systems["gaussian"], systems["semicircle"], 8)
        ba = connection_table(systems["semicircle"], systems["gaussian"], 8)
        for i in range(9):
            for j in range(i + 1):
                s = Fraction(0)
                for k in range(j, i + 1):
                    s = s + ab.entry(i, k) * ba.entry(k, j)
                assert s == (1 if i == j else 0)

    def test_transitivity_including_nonsymmetric(self, systems):
        rng = random.Random(40)
        third = random_system(rng, 8)
        for basis in ("orthonormal", "monic"):
            ab = connection_table(systems["uniform"], third, 8, basis=basis)
            bc = connection_table(third, systems["gaussian"], 8, basis=basis)
            ac = connection_table(systems["uniform"], systems["gaussian"], 8, basis=basis)
            for i in range(9):
                for j in range(i + 1):
                    s = Fraction(0)
                    for k in range(j, i + 1):
                        s = s + ab.entry(i, k) * bc.entry(k, j)
                    assert s == ac.entry(i, j)

    @settings(max_examples=15, deadline=None)
    @given(_drawn_systems, _drawn_systems, st.sampled_from(["orthonormal", "monic"]))
    def test_inverse_property(self, a, b, basis):
        ab = connection_table(a, b, _ORDER, basis=basis)
        ba = connection_table(b, a, _ORDER, basis=basis)
        assert compose(ab, ba) == [[int(i == j) for j in range(i + 1)]
                                   for i in range(_ORDER + 1)]

    @settings(max_examples=15, deadline=None)
    @given(_drawn_systems, _drawn_systems, _drawn_systems,
           st.sampled_from(["orthonormal", "monic"]))
    def test_transitivity_property(self, a, b, c, basis):
        ab = connection_table(a, b, _ORDER, basis=basis)
        bc = connection_table(b, c, _ORDER, basis=basis)
        assert compose(ab, bc) == connection_table(a, c, _ORDER, basis=basis).rows

    @pytest.mark.parametrize("basis", ["orthonormal", "monic"])
    def test_float_table_is_the_table_product(self, basis):
        # float tables multiply Pi(target) by L(source), or eta by tau, cut
        # to order n, with every bit of the product kept
        target, source = (build_system(make_moments(FamilySpec(family, 21), FLOAT), 10)
                          for family in ("semicircle", "uniform"))
        for n in (0, 6, 10):
            table = connection_table(target, source, n, basis=basis)
            want = connection_by_tables(target, source, n, basis)
            assert [[v.hex() for v in row] for row in table.rows] == \
                [[v.hex() for v in row] for row in want]
            assert_table_fields(table, target, source, n, basis)

    def test_order_mismatch_rejected(self, systems):
        with pytest.raises(ValueError):
            connection_table(systems["gaussian"], systems["uniform"], 11)

    @pytest.mark.parametrize("call, message", [
        (lambda s, f: connection_table(s, s, 4, basis="legendre"), "basis must be one of"),
        (lambda s, f: connection_table(s, f, 4), "share a numeric mode"),
        (lambda s, f: connection_table(f, s, 4), "share a numeric mode"),
    ], ids=["unknown-basis", "float-source", "float-target"])
    def test_precondition_rejected(self, systems, call, message):
        floats = build_system(make_moments(FamilySpec("uniform", 21), FLOAT), 10)
        with pytest.raises(ValueError, match=message):
            call(systems["uniform"], floats)


class TestClosedForms:
    def test_identical_recurrences_vanish(self, systems):
        rec = systems["uniform"].rec
        assert closed_form_gamma(rec, rec, 5, 4) == 0

    def test_subdiagonal_b_differences(self):
        rng = random.Random(42)
        target = random_system(rng, 9)
        source = random_system(rng, 9)
        table = connection_table(target, source, 9, basis="monic")
        for n in range(1, 10):
            assert table.entry(n, n - 1) == closed_form_gamma(
                target.rec, source.rec, n, n - 1
            )

    def test_second_subdiagonal_quadratic_corrections(self):
        rng = random.Random(44)
        target = random_system(rng, 9)
        source = random_system(rng, 9)
        table = connection_table(target, source, 9, basis="monic")
        for n in range(2, 10):
            assert table.entry(n, n - 2) == closed_form_gamma(
                target.rec, source.rec, n, n - 2
            )

    def test_symmetric_pair_reduces_to_a2_differences(self, systems):
        target, source = systems["chebyshev1"], systems["semicircle"]
        table = connection_table(target, source, 9, basis="monic")
        for n in range(2, 10):
            expect = Fraction(0)
            for k in range(1, n):
                expect += source.rec.a2[k] - target.rec.a2[k]
            assert table.entry(n, n - 2) == expect
            assert closed_form_gamma(target.rec, source.rec, n, n - 2) == expect

    def test_unit_diagonal_case(self, systems):
        assert closed_form_gamma(systems["uniform"].rec, systems["gaussian"].rec, 4, 4) == 1

    def test_unsupported_band_rejected(self, systems):
        with pytest.raises(ValueError):
            closed_form_gamma(systems["uniform"].rec, systems["gaussian"].rec, 5, 1)

    @pytest.mark.parametrize("n, k", [(0, -1), (0, -2), (1, -1), (-1, -1), (-1, 0)])
    def test_negative_index_rejected(self, systems, n, k):
        # k = n, n - 1 or n - 2 below zero used to return a closed form
        rec = systems["uniform"].rec
        with pytest.raises(ValueError, match=f"got n = {n}, k = {k}$"):
            closed_form_gamma(rec, rec, n, k)


class TestRibbon:
    def test_same_measure_zero_width(self, systems):
        sys_ = systems["uniform"]
        rep = ribbon_check(sys_, sys_.moments, 0, 8)
        assert rep.is_ribbon
        assert rep.max_off_ribbon == 0.0

    def test_builtin_quadratic_pair(self):
        alpha, delta = builtin_ribbon_pair(17)
        rep = ribbon_check(build_system(alpha, 8), delta, 2, 8)
        assert rep.is_ribbon
        assert rep.max_off_ribbon == 0.0

    def test_negative_control_at_narrower_band(self):
        alpha, delta = builtin_ribbon_pair(17)
        rep = ribbon_check(build_system(alpha, 8), delta, 1, 8)
        assert not rep.is_ribbon
        assert rep.max_off_ribbon > 0
        i, j, _ = rep.witness
        assert abs(i - j) == 2

    @pytest.mark.parametrize("count", [1, 2, 17, 41])
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_delta_moments_of_quadratic_density(self, count, mode):
        # (3/8)(1 + x^2) on [-1, 1]: m_k = (3/4)(1/(k+1) + 1/(k+3)) for even k
        want = [Fraction(3, 4) * (Fraction(1, k + 1) + Fraction(1, k + 3)) if k % 2 == 0
                else Fraction(0) for k in range(count)]
        delta = builtin_ribbon_pair(count, mode)[1]
        assert (delta.mode, delta.label) == (mode, "quadratic-weight")
        if mode == RATIONAL:
            assert list(map(repr, delta.moments)) == list(map(repr, want))
        else:
            assert [v.hex() for v in delta.moments] == [float(v).hex() for v in want]

    def test_float_mode_pair(self):
        alpha, delta = builtin_ribbon_pair(17, FLOAT)
        alpha_sys = build_system(alpha, 8)
        rep = ribbon_check(alpha_sys, delta, 2, 8, tol=1e-10)
        assert rep.is_ribbon and rep.max_off_ribbon > 0
        # tol bounds the off-ribbon magnitudes inclusively
        worst = rep.max_off_ribbon
        assert ribbon_check(alpha_sys, delta, 2, 8, tol=worst).is_ribbon
        assert not ribbon_check(alpha_sys, delta, 2, 8, tol=math.nextafter(worst, 0)).is_ribbon

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tol_not_finite_and_nonnegative_rejected(self, mode, tol):
        # NaN and inf would pass every pair (a comparison with NaN is False),
        # and a negative tol would fail every pair, zeros included
        alpha, delta = builtin_ribbon_pair(17, mode)
        with pytest.raises(ValueError, match="finite and non-negative"):
            ribbon_check(build_system(alpha, 8), delta, 2, 8, tol=tol)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_equals_hankel_loop(self, mode):
        alpha, delta = builtin_ribbon_pair(17, mode)
        gauss = make_moments(FamilySpec("gaussian", 17), mode)
        alpha_sys = build_system(alpha, 8)
        for other in (delta, gauss):
            for r in range(4):
                got = ribbon_check(alpha_sys, other, r, 8)
                assert as_text(got) == as_text(ribbon_loop(alpha_sys, other, r, 8))

    def test_negative_order_rejected(self, systems):
        sys_ = systems["uniform"]
        with pytest.raises(ValueError, match="nonnegative"):
            ribbon_check(sys_, sys_.moments, 0, -1)

    def test_mixed_modes_rejected(self, systems):
        alpha, delta = builtin_ribbon_pair(17, FLOAT)
        with pytest.raises(ValueError, match="share a numeric mode"):
            ribbon_check(systems["uniform"], delta, 2, 8)
        with pytest.raises(ValueError, match="share a numeric mode"):
            ribbon_check(build_system(alpha, 8), systems["uniform"].moments, 2, 8)

    def test_delta_not_positive_definite_rejected(self, systems):
        # three atoms: delta's moment matrix is singular from order 3 on
        atoms = (Fraction(-1), Fraction(0), Fraction(1, 2))
        delta = MomentSequence(tuple(sum(x**k for x in atoms) / 3 for k in range(17)), RATIONAL)
        assert ribbon_check(systems["uniform"], delta, 1, 2).order == 2
        with pytest.raises(NotPositiveDefinite) as err:
            ribbon_check(systems["uniform"], delta, 1, 8)
        assert err.value.order == 3

    def test_alpha_below_order_rejected(self, systems):
        with pytest.raises(ValueError, match="alpha system order 10 below requested 11"):
            ribbon_check(systems["uniform"], systems["gaussian"].moments, 1, 11)

    def test_short_delta_rejected(self, systems):
        # order 8 reads m_0..m_16 of delta; this one stops at m_15
        delta = make_moments(FamilySpec("gaussian", 16))
        with pytest.raises(InsufficientMoments):
            ribbon_check(systems["uniform"], delta, 1, 8)


class TestRadonNikodym:
    def test_leading_coefficient_is_one(self, systems):
        alpha = make_moments(FamilySpec("semicircle", 11))
        exp = rn_expansion(alpha, systems["uniform"], 10)
        assert exp.omegas[0] == 1

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_order_is_the_last_index(self, systems, n):
        alpha = make_moments(FamilySpec("semicircle", 11))
        exp = rn_expansion(alpha, systems["uniform"], n)
        assert exp.order == n and len(exp.omegas) == n + 1

    def test_symmetric_pair_kills_degree_one(self, systems):
        alpha = make_moments(FamilySpec("semicircle", 11))
        exp = rn_expansion(alpha, systems["uniform"], 10)
        assert exp.omegas[1] == 0

    def test_coefficients_equal_connection_column(self, systems):
        rng = random.Random(46)
        alpha_sys = random_system(rng, 10)
        exp = rn_expansion(alpha_sys.moments, systems["chebyshev1"], 10)
        gam = connection_table(systems["chebyshev1"], alpha_sys, 10)
        for j in range(11):
            assert exp.omegas[j] == gam.entry(j, 0)

    def test_parseval_sums_monotone(self, systems):
        alpha = make_moments(FamilySpec("semicircle", 11))
        exp = rn_expansion(alpha, systems["uniform"], 10)
        sums = exp.parseval_partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:]))

    def test_semicircle_uniform_density_ratio_integral(self):
        # independent quadrature oracle for the squared ratio of densities
        from scipy.integrate import quad

        ratio = lambda x: (4.0 / math.pi) * math.sqrt(max(1 - x * x, 0.0))
        integral, err = quad(lambda x: ratio(x) ** 2 * 0.5, -1, 1)
        assert err < 1e-10
        assert integral == pytest.approx(32 / (3 * math.pi**2), abs=1e-12)
        alpha = make_moments(FamilySpec("semicircle", 21))
        delta_sys = build_system(make_moments(FamilySpec("uniform", 41)), 20)
        exp = rn_expansion(alpha, delta_sys, 20, square_integral=integral)
        assert exp.bessel_residual == pytest.approx(0.0, abs=1e-5)
        assert exp.parseval_partial_sums[-1] <= integral + 1e-12

    def test_float_omegas_equal_exact(self):
        # semicircle against uniform at n = 12: float error about 2e-13
        alpha = make_moments(FamilySpec("semicircle", 13))
        delta = make_moments(FamilySpec("uniform", 25))
        exact = rn_expansion(alpha, build_system(delta, 12), 12)
        floats = rn_expansion(alpha.to_floats(), build_system(delta.to_floats(), 12), 12)
        assert all(isinstance(w, float) for w in floats.omegas)
        errors = [abs(w - float(e)) for w, e in zip(floats.omegas, exact.omegas, strict=True)]
        assert max(errors) < 1e-10

    def test_insufficient_alpha_moments(self, systems):
        alpha = make_moments(FamilySpec("semicircle", 5))
        with pytest.raises(Exception):
            rn_expansion(alpha, systems["uniform"], 10)

    def test_delta_below_order_rejected(self, systems):
        alpha = make_moments(FamilySpec("semicircle", 21))
        with pytest.raises(ValueError, match="delta system order 10 below requested 11"):
            rn_expansion(alpha, systems["uniform"], 11)

    def test_mixed_modes_rejected(self, systems):
        exact = make_moments(FamilySpec("semicircle", 11))
        delta_float = build_system(make_moments(FamilySpec("uniform", 21), FLOAT), 10)
        with pytest.raises(ValueError, match="share a numeric mode"):
            rn_expansion(exact.to_floats(), systems["uniform"], 10)
        with pytest.raises(ValueError, match="share a numeric mode"):
            rn_expansion(exact, delta_float, 10)


def _seeded_moments(seed):
    rec = random_recurrence(random.Random(seed), 42)
    return moments_from_recurrence(rec, 41, label=f"seeded-{seed}")


@pytest.fixture(scope="module")
def measures(catalog_moments):
    """The catalog, q-hermite and three seeded b != 0 measures, m_0..m_40."""
    out = dict(catalog_moments)
    out["q-hermite"] = make_moments(FamilySpec("q-hermite", 41, {"q": Fraction(1, 3)}))
    out.update({f"seeded-{seed}": _seeded_moments(seed) for seed in (50, 51, 52)})
    return out


def same_exact(got, want):
    """repr and str equality, the str taken entry by entry."""
    return repr(got) == repr(want) and as_text(got) == as_text(want)


def assert_matches_table_routes(target, source, alpha, n, r):
    """Connection tables, RN coefficients and the ribbon report against the
    routes through Pi, L and the moment sums: target is delta, source alpha."""
    for basis in ("orthonormal", "monic"):
        table = connection_table(target, source, n, basis=basis)
        assert same_exact(table.rows, connection_by_tables(target, source, n, basis))
        assert_table_fields(table, target, source, n, basis)
    # the monic table over the target's roots and times the source's, with the
    # float bits of generic surd arithmetic: a radical set fixes the order in
    # which float() multiplies the roots
    floats = lambda rows: [[float(v).hex() for v in row] for row in rows]
    assert floats(connection_table(target, source, n).rows) == \
        floats(connection_by_quotients(target, source, n))
    exp = rn_expansion(alpha, target, n)
    want = rn_by_moments(alpha, target, n)
    assert same_exact(exp.omegas, want)
    assert [v.hex() for v in exp.parseval_partial_sums] == \
        [v.hex() for v in itertools.accumulate(float(w) ** 2 for w in want)]
    got, want = ribbon_check(source, target.moments, r, n), ribbon_by_moments(
        source, target.moments, r, n)
    assert (got.is_ribbon, got.order) == (want.is_ribbon, n)
    assert got.max_off_ribbon.hex() == want.max_off_ribbon.hex()
    assert same_exact(got.witness, want.witness)


def assert_table_fields(table, target, source, n, basis):
    """A connection table is a triangular table that carries its basis and
    the labels of its two systems."""
    assert isinstance(table, TriangularTable)
    assert (table.role, table.mode, table.order, table.basis) == (
        "Pi" if basis == "orthonormal" else "Eta", target.mode, n, basis)
    assert (table.target_label, table.source_label) == (target.label, source.label)
    zero = table.rows[0][0] * 0
    assert all(table.entry(i, j) == (table.rows[i][j] if j <= i else zero)
               for i in range(n + 1) for j in range(n + 1))


class TestRecurrenceRoute:
    """The rational connection layer reads the two recurrences; every value
    equals the table routes', written alike."""

    @pytest.mark.parametrize("n", range(21))
    def test_equals_table_routes(self, n, measures):
        names = sorted(measures)
        systems = {name: build_system(measures[name], n) for name in names}
        for i, name in enumerate(names):
            other = names[(i + n) % len(names)]  # a different pairing at each order
            assert_matches_table_routes(systems[name], systems[other], measures[other], n, n % 4)

    def test_delta_system_above_the_order(self, measures):
        # the CLI builds delta to max(n, --rn): every reader stops at n
        delta = build_system(measures["uniform"], 20)
        alpha = build_system(measures["seeded-50"], 9)
        assert_matches_table_routes(delta, alpha, measures["seeded-50"], 9, 2)

    @settings(max_examples=15, deadline=None)
    @given(_drawn_systems, _drawn_systems, st.integers(0, 3))
    def test_equals_table_routes_property(self, delta, alpha, r):
        assert_matches_table_routes(delta, alpha, alpha.moments, _ORDER, r)


@pytest.fixture
def surd_calls(monkeypatch):
    """Every product and quotient that ``Surd`` computes, as (name, self,
    other)."""
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        def counted(self, other, name=name, method=getattr(Surd, name)):
            calls.append((name, self, other))
            return method(self, other)
        monkeypatch.setattr(Surd, name, counted)
    return calls


@pytest.fixture(scope="module")
def ribbon_systems():
    """The built-in ribbon pair to order 12, with its roots taken."""
    alpha, delta = builtin_ribbon_pair(25)
    systems = build_system(alpha, 12), build_system(delta, 12)
    assert all(any(isinstance(root, Surd) for root in s.roots) for s in systems)
    return alpha, delta, *systems


class TestZeroEntries:
    """An exact zero costs the rational connection layer one truth test:
    no surd product or quotient is made for it."""

    def test_exact_ribbon_does_no_surd_arithmetic(self, ribbon_systems, surd_calls):
        _, delta, alpha_sys, _ = ribbon_systems
        assert ribbon_check(alpha_sys, delta, 2, 12).is_ribbon
        assert surd_calls == []
        # at band 1 the pairings with i - j = 2 are not zero: each is scaled
        assert not ribbon_check(alpha_sys, delta, 1, 12).is_ribbon
        assert surd_calls and all(other != 0 for _, _, other in surd_calls)

    def test_rn_expansion_makes_no_surd_quotient(self, ribbon_systems, surd_calls):
        alpha, _, _, delta_sys = ribbon_systems
        omegas = rn_expansion(alpha, delta_sys, 12).omegas
        assert surd_calls == []
        assert any(isinstance(w, Surd) for w in omegas) and 0 in omegas

    def test_orthonormal_table_scales_nonzero_entries_only(self, ribbon_systems, surd_calls):
        _, _, alpha_sys, delta_sys = ribbon_systems
        rows = connection_table(delta_sys, alpha_sys, 12).rows
        assert surd_calls and all(v != 0 and other != 0 for _, v, other in surd_calls)
        zeros = [v for row in rows for v in row if not v]
        assert zeros and all(type(v) is Fraction for v in zeros)
