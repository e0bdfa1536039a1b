"""Exact linear algebra sanity checks."""

from fractions import Fraction
from random import Random

from foliations.linalg import determinant, kernel_basis, rank, rref


def test_rref_and_rank():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2


def test_kernel_dimension_complements_rank():
    rng = Random(2)
    for _ in range(15):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        k = kernel_basis(m, ncols=cols)
        assert len(k) == cols - rank(m)
        for v in k:
            assert all(
                sum(a * b for a, b in zip(row, v)) == 0 for row in m
            )


def test_determinant():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1, 2], [2, 4]]) == 0
    rng = Random(9)
    for _ in range(10):
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        brute = sum(
            sign
            * m[0][a]
            * m[1][b]
            * m[2][c]
            for a, b, c, sign in [
                (0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                (2, 1, 0, -1), (1, 0, 2, -1), (0, 2, 1, -1),
            ]
        )
        assert determinant(m) == brute
