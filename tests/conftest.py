"""Shared oracles and input generators.

The Gram-Schmidt oracle below orthogonalizes the monomials by explicit
projection against the moment functional, entirely in rational arithmetic and
with no triangular factorization, so it is an independent ground truth for
coefficient tables and recurrence coefficients.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from momentpoly import FamilySpec, RecurrenceCoefficients, make_moments
from momentpoly.scalars import RATIONAL, exact_sqrt

CATALOG = ("gaussian", "uniform", "semicircle", "chebyshev1")

# HYPOTHESIS_PROFILE=ci replays the same examples on every run, so a CI
# failure of a property test reproduces; local runs stay randomized
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def poly_inner(c1, c2, moments):
    """Moment functional applied to the product of two coefficient lists."""
    total = Fraction(0)
    for i, a in enumerate(c1):
        if a:
            for j, b in enumerate(c2):
                if b:
                    total += a * b * moments[i + j]
    return total


def monic_gram_schmidt(moments, n):
    """Monic orthogonal coefficient rows and their squared norms, by projection."""
    polys = [[Fraction(1)]]
    norms = [Fraction(moments[0])]
    for k in range(1, n + 1):
        cand = [Fraction(0)] + polys[k - 1]  # x * previous
        for j in range(k):
            coef = poly_inner(cand, polys[j], moments) / norms[j]
            if coef:
                for t, v in enumerate(polys[j]):
                    cand[t] -= coef * v
        polys.append(cand)
        norms.append(poly_inner(cand, cand, moments))
    return polys, norms


def orthonormal_gram_schmidt(moments, n):
    """Orthonormal coefficient rows (monic rows over the exact norm)."""
    polys, norms = monic_gram_schmidt(moments, n)
    out = []
    for k in range(n + 1):
        root = exact_sqrt(norms[k])
        out.append([c / root for c in polys[k]])
    return out


def gram_schmidt_recurrence(moments, n):
    """(a2, b) from projections: b_k = <x p_k, p_k>/|p_k|^2, a_k^2 = |p_k|^2/|p_{k-1}|^2."""
    polys, norms = monic_gram_schmidt(moments, n)
    a2 = [Fraction(0)]
    for k in range(1, n + 1):
        a2.append(norms[k] / norms[k - 1])
    b = []
    for k in range(n):
        shifted = [Fraction(0)] + polys[k]
        b.append(poly_inner(shifted, polys[k], moments) / norms[k])
    return a2, b


#: hypothesis strategies for small rational coefficients
positive_fractions = st.builds(Fraction, st.integers(1, 9), st.integers(1, 5))
signed_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))


def random_fraction(rng, lo=-4, hi=4, maxden=5):
    return Fraction(rng.randint(lo, hi), rng.randint(1, maxden))


def random_recurrence(rng, size, symmetric=False, label="random"):
    a2 = tuple(
        [Fraction(0)]
        + [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(size)]
    )
    if symmetric:
        b = tuple([Fraction(0)] * (size + 1))
    else:
        b = tuple(random_fraction(rng) for _ in range(size + 1))
    return RecurrenceCoefficients(a2, b, RATIONAL, label=label)


@pytest.fixture(scope="session")
def catalog_moments():
    """Exact moment sequences of the four classical symmetric families."""
    return {
        fam: make_moments(FamilySpec(fam, 41), RATIONAL) for fam in CATALOG
    }
