"""Exact linear algebra over Q (lists of Fractions).

Small dense routines used for graded-piece computations: row reduction,
rank, kernel bases, and determinants.  Everything is exact; no pivoting
heuristics are needed beyond skipping zero pivots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def to_matrix(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = to_matrix(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Rank via integer fraction-free elimination of int or Fraction rows."""
    from math import gcd, lcm

    m: list[list[int]] = []
    for row in rows:
        if not any(row):
            continue
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        m.append([x // g for x in ints])
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                row = [a * p - f * b for a, b in zip(m[i], m[r])]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == len(m):
            break
    return r


def kernel_basis(rows: Sequence[Sequence], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel {x : A x = 0}, in RREF-derived canonical form."""
    m = [list(row) for row in rows]
    if ncols is None:
        if not m:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def determinant(rows: Sequence[Sequence]) -> Fraction:
    m = to_matrix(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det
