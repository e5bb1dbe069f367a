"""Hypergeometric witnesses: irreducible multiplicative triples at any n.

A and B are the companion matrices of prod (x - a_i) and prod (x - b_i)
(Levelt 1961; Beukers and Heckman, Invent. Math. 95, 1989).  The triple
(A, B^-1, B A^-1) multiplies to I, B A^-1 is a pseudo-reflection, and the
triple is irreducible when no a_i equals any b_j.  With a = 2..n + 1 and
b_k = -(k + 2)/3 every entry is rational, A and B^-1 are regular (one
Jordan block per eigenvalue), and so the centralizer of each has
dimension n, that of B A^-1 has (n - 1)^2 + 1, and the rigidity index
2n^2 - sum of the class dimensions is 2.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from deligne_simpson import (
    MULTIPLICATIVE,
    Matrix,
    MatrixTuple,
    euler_characteristic,
    is_irreducible,
    verify_relation,
)
from deligne_simpson.linalg import commutator_operator, left_divide, rank


def companion(roots) -> Matrix:
    """The companion matrix of prod (x - r): ones below the diagonal and
    minus the coefficients of x^0..x^(n-1) in the last column."""
    poly = [Fraction(1)]  # coefficients of x^0, x^1, .., leading last
    for r in roots:
        poly = [(poly[i - 1] if i else 0) - r * (poly[i] if i < len(poly) else 0)
                for i in range(len(poly) + 1)]
    n = len(roots)
    return Matrix([[1 if i == j + 1 else 0 for j in range(n - 1)] + [-poly[i]] for i in range(n)])


def hypergeometric(n: int) -> MatrixTuple:
    a = companion([Fraction(i) for i in range(2, n + 2)])
    b = companion([Fraction(-(k + 2), 3) for k in range(1, n + 1)])
    one = Matrix.identity(n)
    return MatrixTuple(MULTIPLICATIVE, [a, left_divide(b, one), b * left_divide(a, one)])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_hypergeometric_witness(n):
    t = hypergeometric(n)
    assert verify_relation(t)
    assert rank(commutator_operator(t.matrices)) == n * n - 1
    report = is_irreducible(t)
    assert report.irreducible and report.algebra_dimension == n * n
    assert euler_characteristic(t) == 2
