"""Assembled polynomial systems: tables, recurrence, evaluation, kernel, identities."""

import gc
import itertools
import operator
import random
import sys
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from momentpoly import (
    FamilySpec,
    HankelMoments,
    MomentSequence,
    NotPositiveDefinite,
    RecurrenceCoefficients,
    associated_polys,
    build_system,
    builtin_ribbon_pair,
    christoffel,
    connection_table,
    diagnostics,
    eval_monic,
    eval_poly,
    kernel,
    linearization_table,
    make_moments,
    moment_inner_product,
    moments_from_recurrence,
    monic_tables,
    q_bracket,
    q_factorial,
    q_hermite,
    q_pochhammer,
    recurrence_from_moments,
    ribbon_check,
    rn_expansion,
)
from momentpoly import moments as moments_module
from momentpoly import polysys as polysys_module
from momentpoly import recurrence as recurrence_module
from momentpoly.cholesky import FLOAT_PIVOT_RELATIVE, cholesky_decompose, invert_lower_triangular
from momentpoly.moments import hankel_matrix
from momentpoly.polysys import (
    eval_row,
    inverse_moment_matrix,
    recurrence_from_tables,
)
from momentpoly.scalars import FLOAT, RATIONAL, exact_sqrt, format_scalar

import forward_oracle
from conftest import (
    CATALOG,
    gram_schmidt_recurrence,
    orthonormal_gram_schmidt,
    positive_fractions,
    random_recurrence,
    signed_fractions,
)
from polysys_oracle import (
    as_text,
    associated_loop,
    chebyshev_fraction_oracle,
    kernel_inverse_form,
    recurrence_delta_form,
    recurrence_via_system,
)

#: the catalog plus one family whose moments come from a recurrence
FAMILIES = [(fam, {}) for fam in CATALOG] + [("q-hermite", {"q": Fraction(1, 2)})]

#: a b != 0 recurrence for the "from-recurrence" family
_SKEW = random_recurrence(random.Random(3), 20)
SKEW_PARAMS = {"a2": _SKEW.a2, "b": _SKEW.b}


@pytest.fixture(scope="module")
def systems(catalog_moments):
    return {fam: build_system(catalog_moments[fam], 8) for fam in CATALOG}


class TestBuild:
    def test_order_zero_unit_polynomial(self):
        sys_ = build_system(make_moments(FamilySpec("gaussian", 1)), 0)
        assert sys_.Pi.rows == [[1]]

    def test_gaussian_first_three(self, systems):
        pi = systems["gaussian"].Pi
        r2 = exact_sqrt(Fraction(2))
        assert pi.rows[0] == [1]
        assert pi.rows[1] == [0, 1]
        assert pi.rows[2] == [-1 / r2, 0, 1 / r2]

    def test_uniform_degree_two(self, systems):
        # sqrt(5)/2 * (3 x^2 - 1)
        pi = systems["uniform"].Pi
        r5 = exact_sqrt(Fraction(5))
        assert pi.rows[2] == [-r5 / 2, 0, 3 * r5 / 2]

    @pytest.mark.parametrize("family", CATALOG)
    def test_tables_match_gram_schmidt(self, family, systems, catalog_moments):
        oracle = orthonormal_gram_schmidt(catalog_moments[family].moments, 8)
        assert systems[family].Pi.rows == oracle

    @pytest.mark.parametrize("family", CATALOG)
    def test_orthonormal_under_moment_functional(self, family, systems, catalog_moments):
        sys_ = systems[family]
        m = catalog_moments[family]
        for i in range(9):
            for j in range(i + 1):
                val = moment_inner_product(m, sys_.Pi.rows[i], sys_.Pi.rows[j])
                assert val == (1 if i == j else 0)

    @pytest.mark.parametrize("family", CATALOG)
    def test_lambda_factorization_identities(self, family, systems):
        # Lambda * Lambda^T = M and Pi^T * Pi = M^{-1}
        sys_ = systems[family]
        n = sys_.order
        lam = sys_.Lambda
        for i in range(n + 1):
            for j in range(i + 1):
                s = Fraction(0)
                for k in range(j + 1):
                    s = s + lam.rows[i][k] * lam.rows[j][k]
                assert s == sys_.moments.m(i + j)
        mu = inverse_moment_matrix(sys_)
        dense = sys_.hankel.dense()
        for i in range(n + 1):
            unit = [Fraction(1) if t == i else Fraction(0) for t in range(n + 1)]
            got = [
                sum(dense[r][c] * mu[c][t] for c in range(n + 1))
                for r in range(n + 1)
                for t in [i]
            ]
            assert got == unit


@st.composite
def rational_recurrences(draw, max_order=9):
    """(rec, n): a random order n <= max_order and a_1^2..a_n^2, b_0..b_{n-1},
    with b = 0 or not."""
    n = draw(st.integers(0, max_order))
    a2 = draw(st.lists(positive_fractions, min_size=n, max_size=n))
    if draw(st.booleans()):
        b = [Fraction(0)] * n
    else:
        b = draw(st.lists(signed_fractions, min_size=n, max_size=n))
    return RecurrenceCoefficients((Fraction(0),) + tuple(a2), tuple(b), RATIONAL), n


def cholesky_minors(L):
    """Delta_0..Delta_n as running products of the squared pivots of L."""
    out, acc = [], Fraction(1)
    for d in L.diagonal():
        acc *= d * d
        out.append(acc)
    return out


def cholesky_route(m, n):
    """The factor-then-invert build that float mode runs, with L from the
    Cholesky factorization and Pi its inverse, never from the Hankel matrix."""
    L = cholesky_decompose(hankel_matrix(m, n))
    tables = SimpleNamespace(Pi=invert_lower_triangular(L), label=m.label)
    return SimpleNamespace(rec=recurrence_from_tables(tables), Pi=tables.Pi, L=L,
                           deltas=cholesky_minors(L))


@pytest.fixture
def counted(monkeypatch):
    # calls of the Cholesky factorization, of the float inversion, of the
    # surd scaling and of the banded fills that a Hankel matrix runs
    calls = {"cholesky": 0, "invert": 0, "scaled": 0, "fill": 0}
    factor, scaled = moments_module.cholesky_decompose, recurrence_module._Numerators.scaled
    invert, fill = moments_module.invert_lower_triangular, moments_module._banded_fill

    def count(key, run):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return run(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(moments_module, "cholesky_decompose", count("cholesky", factor))
    monkeypatch.setattr(moments_module, "invert_lower_triangular", count("invert", invert))
    monkeypatch.setattr(recurrence_module._Numerators, "scaled", count("scaled", scaled))
    monkeypatch.setattr(moments_module, "_banded_fill", count("fill", fill))
    return calls


def as_strings(table):
    return [[format_scalar(v) for v in row] for row in table.rows]


class TestChebyshevBuild:
    @settings(max_examples=40, deadline=None)
    @given(rational_recurrences())
    def test_equals_cholesky_route(self, drawn):
        rec, n = drawn
        m = moments_from_recurrence(rec, 2 * n + 1)
        got, want = build_system(m, n), cholesky_route(m, n)
        assert got.rec.a2 == want.rec.a2 == rec.a2
        assert got.rec.b == want.rec.b == rec.b
        assert got.deltas == want.deltas
        assert as_strings(got.Pi) == as_strings(want.Pi)
        assert as_strings(got.L) == as_strings(want.L)

    @pytest.mark.parametrize("family, params", FAMILIES + [("from-recurrence", SKEW_PARAMS)])
    def test_deltas_equal_squared_cholesky_pivots(self, family, params, counted):
        m = make_moments(FamilySpec(family, 33, params))
        sys_ = build_system(m, 16)
        assert len(sys_.deltas) == 17 and counted["cholesky"] == 0  # from the norms
        want = cholesky_minors(cholesky_decompose(hankel_matrix(m, 16)))
        assert sys_.deltas == want
        assert [type(v) for v in sys_.deltas] == [type(v) for v in want]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(
        st.lists(signed_fractions, min_size=k, max_size=k, unique=True),
        st.lists(positive_fractions, min_size=k, max_size=k),
        st.integers(k, k + 3),
    )))
    def test_finite_measure_fails_like_cholesky(self, drawn):
        # a k-atom measure has a singular moment matrix from order k on
        atoms, weights, n = drawn
        total = sum(weights)
        m = MomentSequence(tuple(
            sum(w * x**j for x, w in zip(atoms, weights)) / total for j in range(2 * n + 1)
        ), RATIONAL)
        with pytest.raises(NotPositiveDefinite) as got:
            build_system(m, n)
        with pytest.raises(NotPositiveDefinite) as want:
            cholesky_decompose(hankel_matrix(m, n))
        with pytest.raises(NotPositiveDefinite) as standalone:
            hankel_matrix(m, n).deltas
        assert got.value.order == want.value.order == standalone.value.order == len(atoms)
        assert str(got.value) == str(want.value) == str(standalone.value)

    @settings(max_examples=60, deadline=None)
    @given(rational_recurrences(max_order=8))
    # exact d_8 / m_16 = 9.8e-13: float mode refuses order 8 by design
    @example((RecurrenceCoefficients(
        tuple(map(Fraction, (0, 1, 1, 1, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4),
                             Fraction(1, 4)))),
        (Fraction(4),) + (Fraction(0),) * 7, RATIONAL), 8))
    def test_float_build_within_condition_scaled_bound(self, drawn):
        # the bench's tolerance 1000 * eps * m_2k / d_k, relative to the
        # coefficient once it exceeds 1; b_k takes the top order's factor.
        # At n = 12 the worst draws reach half the bound, so n stays <= 8
        rec, n = drawn
        m = moments_from_recurrence(rec, 2 * n + 1)
        want = build_system(m, n).rec
        eps = Fraction(sys.float_info.epsilon)
        d = list(itertools.accumulate(want.a2[1:], operator.mul, initial=Fraction(1)))
        try:
            got = build_system(m.to_floats(), n).rec
        except NotPositiveDefinite as exc:
            # float mode refuses a pivot d_k <= FLOAT_PIVOT_RELATIVE * m_2k;
            # under the same error model the exact pivot is that small too
            k = exc.order
            assert d[k] / m.m(2 * k) <= Fraction(FLOAT_PIVOT_RELATIVE) + 1000 * eps
            return

        def within(value, exact, k):
            bound = 1000 * eps * m.m(2 * k) / d[k] * max(1, abs(exact))
            return abs(Fraction(value) - exact) <= bound

        assert all(within(got.a2[k], want.a2[k], k) for k in range(1, n + 1))
        assert all(within(got.b[k], want.b[k], n) for k in range(n))


class TestHankelFactor:
    """A rational Hankel matrix read on its own factors by its Chebyshev pass."""

    @pytest.mark.parametrize("family, params", FAMILIES + [("from-recurrence", SKEW_PARAMS)])
    def test_standalone_equals_cholesky(self, family, params, counted):
        m = make_moments(FamilySpec(family, 33, params))
        hank = hankel_matrix(m, 16)
        L, deltas = hank.factor, hank.deltas
        assert counted["cholesky"] == 0
        chol = cholesky_decompose(hankel_matrix(m, 16))
        assert as_strings(L) == as_strings(chol)
        want = cholesky_minors(chol)
        assert deltas == want
        assert [type(v) for v in deltas] == [type(v) for v in want]
        assert hank.roots == L.diagonal()
        assert hank.recurrence == build_system(m, 16).rec


def float_hex(values):
    return [v.hex() for v in values]


class TestFloatOwner:
    """A float Hankel matrix owns Cholesky, inversion and the recurrence, and
    runs them in the order of the factor-then-invert route."""

    @pytest.mark.parametrize("family, params", FAMILIES)
    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_standalone_equals_cholesky_route(self, family, params, n):
        m = make_moments(FamilySpec(family, 2 * n + 1, params), FLOAT)
        hank, want = hankel_matrix(m, n), cholesky_route(m, n)
        assert isinstance(hank.recurrence, RecurrenceCoefficients)
        assert float_hex(hank.recurrence.a2) == float_hex(want.rec.a2)
        assert float_hex(hank.recurrence.b) == float_hex(want.rec.b)
        assert hank.recurrence.label == want.rec.label == m.label
        assert [float_hex(row) for row in hank.inverse.rows] == \
            [float_hex(row) for row in want.Pi.rows]

    def test_norms_make_no_inversion(self, counted):
        m = make_moments(FamilySpec("uniform", 25), FLOAT)
        hank = hankel_matrix(m, 12)
        assert len(hank.deltas) == len(hank.roots) == 13
        assert counted == {"cholesky": 1, "invert": 0, "scaled": 0, "fill": 0}
        hank.recurrence
        assert counted == {"cholesky": 1, "invert": 1, "scaled": 0, "fill": 0}

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_system_is_a_view_of_its_hankel_matrix(self, mode):
        m = make_moments(FamilySpec("q-hermite", 21, {"q": Fraction(1, 3)}), mode)
        sys_ = build_system(m, 10)
        assert sys_.rec is sys_.hankel.recurrence
        assert sys_.Pi is sys_.hankel.inverse
        assert sys_.L is sys_.hankel.factor
        # the system is its Hankel matrix, with the system names as aliases
        assert isinstance(sys_, HankelMoments) and sys_.hankel is sys_
        assert sys_.Lambda is sys_.L and sys_.moments is sys_.source is m
        assert (sys_.order, sys_.mode, sys_.label) == (10, mode, m.label)
        # it compares by order and moments, and like HankelMoments is unhashable
        assert sys_ == build_system(m, 10) != build_system(m, 9)
        with pytest.raises(TypeError):
            hash(sys_)

    @pytest.mark.parametrize("moments, n", [
        ((1, 0, 1, 0, 1), 2),            # two atoms: singular from order 2
        ((1, 0, -1, 0, 3), 1),           # a negative pivot
        ((1, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625), 3),  # one atom
    ])
    def test_not_positive_definite_like_cholesky(self, moments, n):
        m = MomentSequence(tuple(float(v) for v in moments), FLOAT)
        with pytest.raises(NotPositiveDefinite) as got:
            build_system(m, n)
        with pytest.raises(NotPositiveDefinite) as want:
            cholesky_decompose(hankel_matrix(m, n))
        assert got.value.order == want.value.order
        assert str(got.value) == str(want.value)
        # the matrix alone is made without error and fails when first read
        hank = hankel_matrix(m, n)
        with pytest.raises(NotPositiveDefinite) as read:
            hank.recurrence
        assert str(read.value) == str(want.value)


class TestLazyTables:
    """A rational build keeps the recurrence, the norms and the rows of its
    Chebyshev pass; L is scaled from those rows and Pi from the eta fill
    when first read, and nothing else reads them."""

    @pytest.mark.parametrize("family, params", FAMILIES + [("from-recurrence", SKEW_PARAMS)])
    def test_factor_is_the_lazy_L(self, family, params, counted):
        m = make_moments(FamilySpec(family, 25, params))
        sys_ = build_system(m, 12)
        assert sys_.order == 12 and counted["fill"] == counted["scaled"] == 0  # no table yet
        assert sys_.hankel.factor is sys_.L
        # L runs no fill: it scales the rows of the Chebyshev pass
        assert counted == {"cholesky": 0, "invert": 0, "scaled": 1, "fill": 0}
        pi = sys_.Pi
        assert counted == {"cholesky": 0, "invert": 0, "scaled": 2, "fill": 1}
        assert sys_.Pi is pi and sys_.Lambda is sys_.L and len(sys_.deltas) == 13
        assert counted == {"cholesky": 0, "invert": 0, "scaled": 2, "fill": 1}
        chol = cholesky_decompose(hankel_matrix(m, 12))
        assert as_strings(sys_.L) == as_strings(chol)
        assert sys_.deltas == cholesky_minors(chol)
        assert sys_.roots == sys_.L.diagonal()
        # deep orders, as far as the skew recurrence reaches: every entry is
        # the value that generic surd arithmetic reaches from the monic tables
        n = 20 if family == "from-recurrence" else 38
        deep = build_system(make_moments(FamilySpec(family, 2 * n + 1, params)), n)
        eta, tau = monic_tables(deep)
        assert repr(deep.Pi.rows) == repr([[v * (1 / deep.roots[i]) for v in row]
                                           for i, row in enumerate(eta.rows)])
        assert repr(deep.L.rows) == repr([[v * deep.roots[j] for j, v in enumerate(row)]
                                          for row in tau.rows])

    def test_connect_layer_builds_no_table(self, counted):
        alpha, delta = builtin_ribbon_pair(31)
        alpha_sys, delta_sys = build_system(alpha, 15), build_system(delta, 15)
        for basis in ("orthonormal", "monic"):
            connection_table(delta_sys, alpha_sys, 15, basis=basis)
            linearization_table(alpha_sys, 7, 8, basis=basis)
        rn_expansion(alpha, delta_sys, 15)
        assert ribbon_check(alpha_sys, delta, 2, 15).is_ribbon
        # two scalings, each of its own integers: the orthonormal connection
        # table's of its fill, and the RN expansion's of its pairing sums
        assert counted == {"cholesky": 0, "invert": 0, "scaled": 2, "fill": 0}
        for sys_ in (alpha_sys, delta_sys):
            assert not {"factor", "inverse"} & vars(sys_.hankel).keys()

    def test_no_reference_cycle(self):
        # a cycle through the Hankel matrix would keep both alive until the
        # next collection, and the benchmark's peak memory with them
        sys_ = build_system(make_moments(FamilySpec("q-hermite", 21, {"q": Fraction(1, 3)})), 10)
        assert sys_.L.rows and sys_.Pi.rows
        refs = weakref.ref(sys_), weakref.ref(sys_.hankel)
        gc.disable()
        try:
            del sys_
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestRecurrence:
    def test_gaussian_squares_count_up(self, systems):
        rec = systems["gaussian"].rec
        assert rec.a2 == tuple(Fraction(k) for k in range(9))
        assert all(v == 0 for v in rec.b)

    def test_uniform_legendre_squares(self, systems):
        rec = systems["uniform"].rec
        for n in range(1, 9):
            assert rec.a2[n] == Fraction(n * n, 4 * n * n - 1)

    def test_first_b_equals_first_moment(self):
        m = make_moments(
            FamilySpec("explicit", 3, {"moments": ["1", "1/2", "2"]}), RATIONAL
        )
        assert build_system(m, 1).rec.b[0] == Fraction(1, 2)

    @pytest.mark.parametrize("family", CATALOG)
    def test_matches_gram_schmidt_recurrence(self, family, systems, catalog_moments):
        a2, b = gram_schmidt_recurrence(catalog_moments[family].moments, 8)
        rec = systems[family].rec
        assert list(rec.a2) == a2
        assert list(rec.b) == b

    @pytest.mark.parametrize("family", CATALOG)
    def test_determinant_form_cross_check(self, family, systems):
        sys_ = systems[family]
        a2, b = recurrence_delta_form(sys_)
        assert a2 == sys_.rec.a2
        assert b == sys_.rec.b

    def test_nonsymmetric_delta_form_cross_check(self):
        rng = random.Random(21)
        rec = random_recurrence(rng, 8)
        m = moments_from_recurrence(rec, 15)
        sys_ = build_system(m, 7)
        a2, b = recurrence_delta_form(sys_)
        assert a2 == sys_.rec.a2
        assert b == sys_.rec.b

    def test_symmetric_measures_have_zero_b(self, systems):
        for fam in CATALOG:
            assert all(v == 0 for v in systems[fam].rec.b)

    def test_extraction_recovers_final_odd_coefficient(self):
        rng = random.Random(5)
        rec = random_recurrence(rng, 10)
        m = moments_from_recurrence(rec, 12)  # even count: top moment is odd order
        back = recurrence_from_moments(m)
        assert back.a2 == rec.a2[:6]
        assert back.b == rec.b[:6]  # includes b_5, beyond the order-5 system


class TestOnePassRecurrence:
    """recurrence_from_moments is one Chebyshev pass over every moment."""

    @pytest.mark.parametrize("count", [41, 42])  # top moment even, odd
    @pytest.mark.parametrize("family, params", FAMILIES)
    def test_catalog_equals_system_route(self, family, params, count):
        m = make_moments(FamilySpec(family, count, params))
        got = recurrence_from_moments(m)
        assert got == recurrence_via_system(m)
        assert len(got.b) == count // 2

    @pytest.mark.parametrize("count", [19, 20])  # top moment even, odd
    def test_random_equals_system_route(self, count):
        rng = random.Random(60 + count)
        for _ in range(5):
            m = moments_from_recurrence(random_recurrence(rng, count), count)
            assert recurrence_from_moments(m) == recurrence_via_system(m)

    def test_builds_no_system_and_no_eta(self, monkeypatch):
        calls = []
        for name in ("build_system", "eta_table"):
            real = getattr(polysys_module, name)

            def counting(*args, _real=real, _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(polysys_module, name, counting)
        m = make_moments(FamilySpec("uniform", 42))
        assert len(recurrence_from_moments(m).b) == 21
        assert len(recurrence_from_moments(m.to_floats()).b) == 21
        assert calls == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(
        st.lists(signed_fractions, min_size=k, max_size=k, unique=True),
        st.lists(positive_fractions, min_size=k, max_size=k),
        st.integers(k, k + 3),
        st.booleans(),
    )))
    def test_float_fails_at_the_build_order(self, drawn):
        # a k-atom measure has a singular moment matrix from order k on
        atoms, weights, n, odd_top = drawn
        total = sum(weights)
        m = MomentSequence(tuple(
            float(sum(w * x**j for x, w in zip(atoms, weights)) / total)
            for j in range(2 * n + 1 + odd_top)
        ), FLOAT)
        with pytest.raises(NotPositiveDefinite) as got:
            recurrence_from_moments(m)
        with pytest.raises(NotPositiveDefinite) as want:
            build_system(m, n)
        assert got.value.order == want.value.order


#: pairwise coprime, up to the 31-bit Mersenne prime
_coprime_denominators = st.sampled_from([1, 2, 3, 5, 7, 11, 13, 97, 65537, 2**31 - 1])


@st.composite
def chebyshev_moments(draw):
    """(m, top): the moments m_0..m_top of a random recurrence with b = 0 or
    signed b, n = top // 2 in 0..25, and top even or odd."""
    n = draw(st.integers(0, 25))
    top = 2 * n + draw(st.integers(0, 1))

    def coefficients(lo):
        return st.lists(st.builds(Fraction, st.integers(lo, 10**4), _coprime_denominators),
                        min_size=n + 1, max_size=n + 1)

    a2 = draw(coefficients(1))
    b = draw(st.one_of(st.just([Fraction(0)] * (n + 1)), coefficients(-10**4)))
    rec = RecurrenceCoefficients((Fraction(0), *a2), tuple(b), RATIONAL)
    return moments_from_recurrence(rec, top + 1), top


def chebyshev_outcome(run, m, top):
    """repr of (a2, b, norms, rows s_k[k..n] as lists), or the order and
    message of the failure.  The library hands its rows back as a fill,
    integers over E_k read through ``row``; the oracle as the values."""
    try:
        rec, norms, rows = run(m, top)
    except NotPositiveDefinite as exc:
        return "fails", exc.order, str(exc)
    if isinstance(rows, recurrence_module._Numerators):
        rows = rows.table()
    return repr(rec.a2), repr(rec.b), repr(norms), repr([list(row) for row in rows])


class TestChebyshevRows:
    """The integer-row Chebyshev pass against the Fraction-stepping oracle."""

    @settings(max_examples=30, deadline=None)
    @given(chebyshev_moments())
    def test_rational_equals_fraction_oracle(self, drawn):
        m, top = drawn
        rec, norms, _ = recurrence_module._chebyshev(m, top)
        want_rec, want_norms, _ = chebyshev_fraction_oracle(m, top)
        assert (rec.a2, rec.b, norms) == (want_rec.a2, want_rec.b, want_norms)
        assert chebyshev_outcome(recurrence_module._chebyshev, m, top) == \
            chebyshev_outcome(chebyshev_fraction_oracle, m, top)

    @settings(max_examples=30, deadline=None)
    @given(chebyshev_moments())
    def test_columns_are_norm_times_tau(self, drawn):
        # row k holds the integers N_k[l] = E_k * s_k[l] for l = k..n over
        # the positive integer E_k, and s_k[l] = d_k * tau[l][k]
        m, top = drawn
        rec, norms, rows = recurrence_module._chebyshev(m, top)
        n = top // 2
        tau = forward_oracle.banded_fill(rec, n, "Tau", expand=True, b=True, a2=True).rows
        assert [len(row) for row in rows.rows] == list(range(n + 1, 0, -1))
        for k, (row, e, d) in enumerate(zip(rows.rows, rows.dens, norms)):
            assert all(type(v) is int for v in row) and type(e) is int and e > 0
            assert row[0] == e * d
            assert rows.row(k) == [d * tau[l][k] for l in range(k, n + 1)], k

    @settings(max_examples=30, deadline=None)
    @given(chebyshev_moments())
    def test_float_equals_fraction_oracle_bit_for_bit(self, drawn):
        m, top = drawn
        m = m.to_floats()
        assert chebyshev_outcome(recurrence_module._chebyshev, m, top) == \
            chebyshev_outcome(chebyshev_fraction_oracle, m, top)

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("count", [41, 42])  # top moment even, odd
    @pytest.mark.parametrize("family, params", FAMILIES)
    def test_catalog_equals_fraction_oracle(self, family, params, count, mode):
        m = make_moments(FamilySpec(family, count, params), mode)
        for top in (count - 2, count - 1):
            assert chebyshev_outcome(recurrence_module._chebyshev, m, top) == \
                chebyshev_outcome(chebyshev_fraction_oracle, m, top)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda k: st.tuples(
        st.lists(signed_fractions, min_size=k, max_size=k, unique=True),
        st.lists(positive_fractions, min_size=k, max_size=k),
        st.integers(k, k + 3),
        st.booleans(),
    )))
    def test_rational_fails_like_the_oracle(self, drawn):
        # a k-atom measure has a zero pivot at order k
        atoms, weights, n, odd_top = drawn
        total = sum(weights)
        m = MomentSequence(tuple(
            sum(w * x**j for x, w in zip(atoms, weights)) / total
            for j in range(2 * n + 1 + odd_top)
        ), RATIONAL)
        got = chebyshev_outcome(recurrence_module._chebyshev, m, m.top_order)
        assert got == chebyshev_outcome(chebyshev_fraction_oracle, m, m.top_order)
        assert got[:2] == ("fails", len(atoms))

    @settings(max_examples=30, deadline=None)
    @given(chebyshev_moments(), st.data())
    def test_negative_minor_fails_like_the_oracle(self, drawn, data):
        # m_2j enters d_j with coefficient 1, so lowering it by d_j + excess
        # makes Delta_j negative and the order-j pivot -excess
        m, top = drawn
        assume(top >= 2)  # m_0 = 1 is fixed
        j = data.draw(st.integers(1, top // 2))
        excess = data.draw(positive_fractions)
        moments = list(m.moments)
        moments[2 * j] -= chebyshev_fraction_oracle(m, top)[1][j] + excess
        bad = MomentSequence(tuple(moments), RATIONAL)
        for mode in (RATIONAL, FLOAT):
            seq = bad if mode == RATIONAL else bad.to_floats()
            got = chebyshev_outcome(recurrence_module._chebyshev, seq, top)
            assert got == chebyshev_outcome(chebyshev_fraction_oracle, seq, top)
            if mode == RATIONAL:
                assert got == ("fails", j, str(NotPositiveDefinite(j, -excess)))

    @pytest.mark.parametrize("moments", [
        (1, 0, -1),
        (1, 2, 3, 4, 5),
        (1, 0, 1, 0, Fraction(1, 2)),
        (1, Fraction(1, 3), Fraction(1, 2), Fraction(1, 7), Fraction(1, 4), Fraction(-1, 5)),
    ])
    def test_explicit_negative_minor_fails_like_the_oracle(self, moments):
        m = MomentSequence(tuple(Fraction(v) for v in moments), RATIONAL)
        for seq in (m, m.to_floats()):
            got = chebyshev_outcome(recurrence_module._chebyshev, seq, seq.top_order)
            assert got[0] == "fails"
            assert got == chebyshev_outcome(chebyshev_fraction_oracle, seq, seq.top_order)


class TestEvaluation:
    def test_degree_zero(self, systems):
        assert eval_poly(systems["uniform"], 0, Fraction(7)) == 1

    def test_gaussian_values(self, systems):
        sys_ = systems["gaussian"]
        assert eval_poly(sys_, 2, Fraction(0)) == -1 / exact_sqrt(Fraction(2))
        assert eval_monic(sys_, 3, Fraction(2)) == 2  # x^3 - 3x at 2

    @pytest.mark.parametrize("family", CATALOG)
    def test_recurrence_equals_coefficient_evaluation(self, family):
        sys_ = build_system(make_moments(FamilySpec(family, 25), FLOAT), 12)
        rng = random.Random(17)
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5)
            for k in (3, 8, 12):
                by_rec = eval_poly(sys_, k, x)
                by_row = eval_row(sys_.Pi.rows[k], x, FLOAT)
                assert by_rec == pytest.approx(by_row, rel=1e-8, abs=1e-9)

    def test_exact_recurrence_equals_rows(self, systems):
        sys_ = systems["semicircle"]
        for x in (Fraction(0), Fraction(1, 3), Fraction(-2)):
            for k in range(9):
                assert eval_poly(sys_, k, x) == eval_row(sys_.Pi.rows[k], x, RATIONAL)

    def test_three_term_residual_vanishes_symbolically(self, systems):
        # coefficients of x*p_n - a_{n+1} p_{n+1} - b_n p_n - a_n p_{n-1}
        for fam in CATALOG:
            sys_ = systems[fam]
            pi, rec = sys_.Pi.rows, sys_.rec
            for n in range(sys_.order):
                for j in range(n + 2):
                    shifted = pi[n][j - 1] if 1 <= j <= n + 1 and j - 1 <= n else Fraction(0)
                    val = shifted - rec.a(n + 1) * pi[n + 1][j]
                    if j <= n:
                        val = val - rec.b[n] * pi[n][j]
                    if n >= 1 and j <= n - 1:
                        val = val - rec.a(n) * pi[n - 1][j]
                    assert val == 0

    def test_out_of_range_rejected(self, systems):
        with pytest.raises(ValueError):
            eval_poly(systems["gaussian"], 9, Fraction(0))

    @pytest.mark.parametrize("call, name", [
        (lambda s: connection_table(s, s, -1), "n"),
        (lambda s: connection_table(s, s, -1, basis="monic"), "n"),
        (lambda s: eval_poly(s, -1, Fraction(0)), "k"),
        (lambda s: eval_monic(s, -1, Fraction(0)), "k"),
        (lambda s: q_hermite(-1, Fraction(1, 3), Fraction(1, 2)), "n"),
        (lambda s: q_hermite(-1, 0.5, 0.5, orthonormal=True), "n"),
        (lambda s: q_pochhammer(Fraction(1, 4), -1, Fraction(1, 2)), "n"),
        (lambda s: q_factorial(-1, Fraction(1, 2)), "n"),
        (lambda s: q_bracket(-1, 0.5), "n"),
    ], ids=["connection", "connection-monic", "eval_poly", "eval_monic", "q_hermite",
            "q_hermite-float", "q_pochhammer", "q_factorial", "q_bracket"])
    def test_negative_degree_rejected(self, systems, call, name):
        # each used to return 1 or an empty table, or raise islice's message
        with pytest.raises(ValueError, match=rf"\b{name} = -1\b"):
            call(systems["gaussian"])


class TestMonicTables:
    @pytest.mark.parametrize("family", CATALOG)
    def test_scaling_consistency(self, family, systems):
        # eta row n = Pi row n scaled by prod_{j<=n} a_j; tau column i = Lambda
        # column i divided by the same product up to i
        sys_ = systems[family]
        eta, tau = monic_tables(sys_)
        products = [Fraction(1)]
        for j in range(1, sys_.order + 1):
            products.append(products[-1] * sys_.rec.a(j))
        for n in range(sys_.order + 1):
            for i in range(n + 1):
                assert eta.rows[n][i] == sys_.Pi.rows[n][i] * products[n]
                assert tau.rows[n][i] == sys_.Lambda.rows[n][i] / products[i]


class TestAssociated:
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("family, params", FAMILIES)
    def test_equals_term_loop(self, family, params, mode):
        sys_ = build_system(make_moments(FamilySpec(family, 25, params), mode), 12)
        assert as_text(associated_polys(sys_)) == as_text(associated_loop(sys_))

    def test_initial_values(self, systems):
        rows = associated_polys(systems["uniform"])
        assert rows[0] == []  # q_0 = 0
        # q_1 is the constant 1/a_1 for every measure
        for fam in CATALOG:
            sys_ = systems[fam]
            q = associated_polys(sys_)
            assert q[1] == [1 / sys_.rec.a(1)]

    def test_gaussian_degree_one(self, systems):
        rows = associated_polys(systems["gaussian"])
        assert rows[2] == [Fraction(0), 1 / exact_sqrt(Fraction(2))]

    @pytest.mark.parametrize("family", CATALOG)
    def test_rows_satisfy_recurrence(self, family, systems):
        # q_{n+1} = ((x - b_n) q_n - a_n q_{n-1}) / a_{n+1} from q_0 = 0, q_1 = 1/a_1
        sys_ = systems[family]
        rows = associated_polys(sys_)
        rec = sys_.rec
        for x in (Fraction(0), Fraction(1, 2), Fraction(-3)):
            prev, cur = Fraction(0), 1 / rec.a(1)
            for n in range(1, sys_.order):
                nxt = ((x - rec.b[n]) * cur - rec.a(n) * prev) / rec.a(n + 1)
                prev, cur = cur, nxt
                assert cur == eval_row(rows[n + 1], x, RATIONAL)


class TestKernel:
    def test_order_zero_kernel_is_one(self):
        sys_ = build_system(make_moments(FamilySpec("uniform", 1)), 0)
        assert kernel(sys_, Fraction(2), Fraction(5)) == 1

    def test_gaussian_central_value_matches_inverse_entry(self, catalog_moments):
        sys_ = build_system(catalog_moments["gaussian"], 2)
        v = kernel(sys_, Fraction(0), Fraction(0))
        assert v == Fraction(3, 2)
        assert inverse_moment_matrix(sys_)[0][0] == Fraction(3, 2)

    def test_symmetry_and_inverse_form(self, systems):
        sys_ = systems["chebyshev1"]
        pts = [(Fraction(1, 3), Fraction(-1, 2)), (Fraction(2), Fraction(0))]
        for x, y in pts:
            assert kernel(sys_, x, y) == kernel(sys_, y, x)
            assert kernel(sys_, x, y) == kernel_inverse_form(sys_, x, y)

    def test_christoffel_is_reciprocal_diagonal(self, systems):
        sys_ = systems["uniform"]
        x = Fraction(1, 4)
        assert christoffel(sys_, x) * kernel(sys_, x, x) == 1


class TestDiagnostics:
    def test_order_zero_trivial(self):
        sys_ = build_system(make_moments(FamilySpec("gaussian", 1)), 0)
        d = diagnostics(sys_)
        assert d.moment_trace == 1
        assert d.p_zero_sum == 1
        assert d.all_passed()

    def test_gaussian_exact_identities(self, catalog_moments):
        sys_ = build_system(catalog_moments["gaussian"], 2)
        d = diagnostics(sys_)
        assert d.moment_trace == 5  # 1 + 1 + 3
        assert d.p_zero_sum == Fraction(3, 2)
        assert d.all_passed()

    def test_nonsymmetric_exact_identities(self):
        rng = random.Random(33)
        rec = random_recurrence(rng, 8)
        sys_ = build_system(moments_from_recurrence(rec, 17), 8)
        d = diagnostics(sys_)
        assert d.all_passed()
        assert d.q_zero_sum == d.q_moment_quadratic
        assert d.qp_zero_sum == d.qp_moment_sum

    @pytest.mark.parametrize("family", CATALOG)
    def test_float_spectral_identities(self, family):
        sys_ = build_system(make_moments(FamilySpec(family, 21), FLOAT), 10)
        d = diagnostics(sys_)
        assert d.eigenvalues is not None
        assert d.all_passed(), d.checks
        assert sum(d.eigenvalues) == pytest.approx(float(d.moment_trace), rel=1e-10)
