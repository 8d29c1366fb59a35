"""Discrete measures against the library, with ``==``.

The oracle (``discrete_oracle``) reads no moment: the Stieltjes procedure
runs on the atoms.  The library builds each system from the moments
sum_i w_i x_i^k alone, so each identity below checks a whole route, Hankel
build, Chebyshev pass, fills and readers, against a value known in closed
form.  A measure with N atoms is positive definite through order N - 1 and
every identity holds there exactly.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrete_oracle import measures, moments, orthonormal_values, stieltjes, weights_for
from momentpoly import (NotPositiveDefinite, build_system, christoffel, connection_table,
                        linearization_table, rn_expansion)


@settings(max_examples=40, deadline=None)
@given(measures())
def test_recurrence_equals_stieltjes(measure):
    xs, ws = measure
    n = len(xs) - 1
    a2, b, _, _ = stieltjes(xs, ws)
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


def _at_atoms(weights, *factors):
    """sum_i w_i f_1(x_i) ... f_k(x_i), each factor given by its values at
    the atoms: the inner product of the measure, which is exact on
    polynomials of degree below 2N."""
    return sum(math.prod(atom) for atom in zip(weights, *factors))


@settings(max_examples=30, deadline=None)
@given(measures())
def test_pi_rows_are_the_coefficients_of_p_n(measure):
    # a polynomial of degree below N is fixed by its values at the N atoms
    xs, ws = measure
    n = len(xs) - 1
    values = orthonormal_values(xs, ws)
    pi = build_system(moments(xs, ws, 2 * n + 1), n).Pi
    for k in range(n + 1):
        assert [sum(c * x**j for j, c in enumerate(pi.rows[k])) for x in xs] == values[k]


@settings(max_examples=30, deadline=None)
@given(measures())
def test_l_entries_are_moments_of_p_k(measure):
    # H = L L^T with Pi = L^-1: L[l][k] = <x^l, p_k>
    xs, ws = measure
    n = len(xs) - 1
    values = orthonormal_values(xs, ws)
    rows = build_system(moments(xs, ws, 2 * n + 1), n).L.rows
    for l in range(n + 1):
        powers = [x**l for x in xs]
        assert rows[l] == [_at_atoms(ws, powers, values[k]) for k in range(l + 1)]


@settings(max_examples=30, deadline=None)
@given(measures(), st.data())
def test_connection_coefficients_are_inner_products(measure, data):
    # p^alpha_n = sum_k <p^alpha_n, p^delta_k>_delta p^delta_k, exactly for
    # n < N, since delta's N orthonormal polynomials span every function on
    # the atoms
    xs, delta_ws = measure
    alpha_ws = data.draw(weights_for(len(xs)))
    n = len(xs) - 1
    alpha = build_system(moments(xs, alpha_ws, 2 * n + 1, "alpha"), n)
    delta = build_system(moments(xs, delta_ws, 2 * n + 1), n)
    pa, pd = orthonormal_values(xs, alpha_ws), orthonormal_values(xs, delta_ws)
    rows = connection_table(alpha, delta, n).rows
    for j in range(n + 1):
        assert rows[j] == [_at_atoms(delta_ws, pa[j], pd[k]) for k in range(j + 1)]


@settings(max_examples=25, deadline=None)
@given(measures())
def test_linearization_coefficients_are_triple_products(measure):
    # p_n p_m has degree n + m < N, so its expansion is exact on the atoms
    xs, ws = measure
    top = len(xs) - 1
    values = orthonormal_values(xs, ws)
    sys_ = build_system(moments(xs, ws, 2 * top + 1), top)
    for n in range(top + 1):
        for m in range(top + 1 - n):
            assert linearization_table(sys_, n, m).coefficients == [
                _at_atoms(ws, values[n], values[m], values[s]) for s in range(n + m + 1)]
