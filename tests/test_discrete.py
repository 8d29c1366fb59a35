"""Discrete measures against the library, with ``==``.

The oracle (``discrete_oracle``) reads no moment: the Stieltjes procedure
runs on the atoms.  The library builds each system from the moments
sum_i w_i x_i^k alone, so each identity below checks a whole route, Hankel
build, Chebyshev pass, fills and readers, against a value known in closed
form.  A measure with N atoms is positive definite through order N - 1 and
every identity holds there exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrete_oracle import measures, moments, stieltjes, weights_for
from momentpoly import NotPositiveDefinite, build_system, christoffel, rn_expansion


@settings(max_examples=40, deadline=None)
@given(measures())
def test_recurrence_equals_stieltjes(measure):
    xs, ws = measure
    n = len(xs) - 1
    a2, b = stieltjes(xs, ws)
    rec = build_system(moments(xs, ws, 2 * n + 1), n).rec
    assert rec.a2 == tuple(a2)
    assert rec.b == tuple(b[:n])


@settings(max_examples=40, deadline=None)
@given(measures())
def test_not_positive_definite_at_the_atom_count(measure):
    # rank N: d_N = 0, so the order-N build stops there and nowhere before
    xs, ws = measure
    with pytest.raises(NotPositiveDefinite) as err:
        build_system(moments(xs, ws, 2 * len(xs) + 1), len(xs))
    assert err.value.order == len(xs)
    assert err.value.pivot == 0


@settings(max_examples=30, deadline=None)
@given(measures(), st.data())
def test_rn_expansion_has_parseval_equality(measure, data):
    # d(alpha)/d(delta) = w^alpha_i / w^delta_i at the atoms, and the N
    # orthonormal polynomials of delta span every function on them: the
    # expansion is exact, so sum_j omega_j^2 is the squared L^2(delta) norm
    xs, delta_ws = measure
    alpha_ws = data.draw(weights_for(len(xs)))
    n = len(xs) - 1
    delta = build_system(moments(xs, delta_ws, 2 * n + 1), n)
    omegas = rn_expansion(moments(xs, alpha_ws, n + 1, "alpha"), delta, n).omegas
    assert sum(w * w for w in omegas) == sum(a * a / d for a, d in zip(alpha_ws, delta_ws))


@settings(max_examples=30, deadline=None)
@given(measures())
def test_christoffel_at_an_atom_is_its_weight(measure):
    # Gauss quadrature with N nodes is the measure itself: 1 / K_{N-1}(x_i, x_i) = w_i
    xs, ws = measure
    n = len(xs) - 1
    sys_ = build_system(moments(xs, ws, 2 * n + 1), n)
    assert [christoffel(sys_, x) for x in xs] == ws
