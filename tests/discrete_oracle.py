"""Discrete measures as ground truth that reads no moment.

A measure with N distinct rational atoms x_i and positive rational weights
w_i, normalized to sum 1, has the rational moments m_k = sum_i w_i x_i^k.
Its Hankel matrix has rank N, so it is positive definite through order
N - 1 and not at order N.  Its monic orthogonal polynomials come from the
exact Stieltjes procedure (Gautschi, *Orthogonal Polynomials*, 2004, section
2.2.3.1): the recurrence run on the values ptilde_k(x_i) at the atoms, with

    b_k = sum_i w_i x_i ptilde_k(x_i)^2 / d_k,   d_k = sum_i w_i ptilde_k(x_i)^2,
    a_k^2 = d_k / d_{k-1},

every value a ``Fraction`` made by its operators.  The library goes the
other way, from the moments, so the two meet only in their results.
"""

from fractions import Fraction

from hypothesis import strategies as st

from momentpoly import MomentSequence
from momentpoly.scalars import RATIONAL, exact_sqrt

#: atoms p/q with |p| <= 9 and q in {1, 2, 3, 7}, so that distinct atoms may
#: sit close together (1/7 and 1/3) or on a common grid
atoms = st.lists(st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7])),
                 min_size=1, max_size=7, unique=True)
#: positive rational weights, before normalization
_raw_weights = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))


def weights_for(n: int):
    """N positive rational weights that sum to 1."""
    return st.lists(_raw_weights, min_size=n, max_size=n).map(
        lambda ws: [w / sum(ws) for w in ws])


@st.composite
def measures(draw):
    """(atoms, weights) of a discrete measure with 1 to 7 atoms."""
    xs = draw(atoms)
    return xs, draw(weights_for(len(xs)))


def moments(xs, weights, count: int, label: str = "discrete") -> MomentSequence:
    """m_0..m_{count-1}, each sum_i w_i x_i^k."""
    return MomentSequence(tuple(sum(w * x**k for x, w in zip(xs, weights)) for k in range(count)),
                          RATIONAL, label)


def stieltjes(xs, weights) -> tuple:
    """(a2, b, values, norms): a_0^2 = 0, a_1^2..a_{N-1}^2 and b_0..b_{N-1}
    of the measure, by the Stieltjes procedure on its N atoms, with row k of
    ``values`` holding ptilde_k(x_i) for each atom and norms[k] = d_k."""
    prev, cur = [Fraction(0)] * len(xs), [Fraction(1)] * len(xs)
    a2, b, values, norms = [Fraction(0)], [], [], []
    for k in range(len(xs)):
        values.append(cur)
        norms.append(sum(w * p * p for w, p in zip(weights, cur)))
        if k:
            a2.append(norms[k] / norms[k - 1])
        b.append(sum(w * x * p * p for w, x, p in zip(weights, xs, cur)) / norms[k])
        prev, cur = cur, [(x - b[k]) * p - a2[k] * q for x, p, q in zip(xs, cur, prev)]
    return a2, b, values, norms


def orthonormal_values(xs, weights) -> list:
    """Rows p_0..p_{N-1} of the orthonormal polynomials at the N atoms, row k
    holding p_k(x_i) = ptilde_k(x_i) / sqrt(d_k) for each atom."""
    _, _, values, norms = stieltjes(xs, weights)
    return [[p / exact_sqrt(d) for p in row] for row, d in zip(values, norms)]
