"""Exact linear algebra sanity checks, with sympy as the outside oracle."""

from fractions import Fraction
from random import Random

import sympy as sp

from foliations.linalg import echelon, kernel_basis, rank


def test_echelon_and_rank():
    m = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    rows = echelon(m)
    assert [next(c for c, x in enumerate(r) if x) for r in rows] == [0, 1]
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


def _random_matrix(rng: Random) -> list[list]:
    """Tall, wide or square; int or Fraction entries; some zero rows; some low rank."""
    nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
    if rng.random() < 0.3:
        inner = rng.randint(1, min(nrows, ncols))
        a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(nrows)]
        b = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(inner)]
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    else:
        density = rng.choice([0.3, 0.6, 1.0])
        m = [
            [
                (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.5 else rng.randint(-9, 9))
                if rng.random() < density
                else 0
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
    for row in m:
        if rng.random() < 0.15:
            row[:] = [0] * ncols
    return m


def _to_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def test_rank_and_kernel_match_sympy():
    rng = Random(11)
    cases = [_random_matrix(rng) for _ in range(120)]
    cases += [[[0] * 4 for _ in range(3)], [[0] * 2 for _ in range(5)]]
    for m in cases:
        ncols = len(m[0])
        oracle = sp.Matrix([[sp.Rational(x.numerator, x.denominator) for x in row] for row in m])
        assert rank(m) == oracle.rank()
        expected = [[_to_fraction(x) for x in v] for v in oracle.nullspace()]
        assert kernel_basis(m, ncols=ncols) == expected
