"""Exact linear algebra over Q by one fraction-free elimination.

Rows hold ``int`` or ``Fraction`` entries.  ``echelon`` makes each row
integral and primitive, then reduces it against the rows already kept, at
their pivots, with the one integer step v <- (p*v - f*r) / content: an
integer-preserving elimination after Bareiss (1968) that divides by the
content of the row, not by the previous pivot.  ``rank`` counts the kept
rows, and ``kernel_basis`` back-reduces them with the same step to read off
the RREF-canonical kernel.  No ``Fraction`` is built inside the elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rings import Rational


def _primitive(row: Sequence[Rational]) -> list[int]:
    try:  # most rows are all ``int``
        ints, g = row, gcd(*row)
    except TypeError:  # a Fraction entry
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else list(ints)


def _step(v: list[int], r: list[int], c: int) -> list[int]:
    """v with column c cleared by r, whose pivot is at c: (p*v - f*r) / content."""
    p, f = r[c], v[c]
    w = [p * a - f * b for a, b in zip(v, r)]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def _pivot(row: list[int]) -> int:
    return next(c for c, x in enumerate(row) if x)


def echelon(rows: Sequence[Sequence[Rational]]) -> list[list[int]]:
    """Primitive integer rows spanning the row space, in insertion order.

    Each kept row is zero at the pivots of the rows kept before it; its
    pivot is its first nonzero column.
    """
    kept: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        if not any(row):
            continue
        v = _primitive(row)
        for r, c in zip(kept, pivots):
            if v[c]:
                v = _step(v, r, c)
        if any(v):
            kept.append(v)
            pivots.append(_pivot(v))
    return kept


def rank(rows: Sequence[Sequence[Rational]]) -> int:
    return len(echelon(rows))


def kernel_basis(rows: Sequence[Sequence[Rational]], ncols: int | None = None) -> list[list[Rational]]:
    """Basis of the right kernel {x : A x = 0}, in RREF-derived canonical form."""
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    kept = echelon(rows)
    pivots = [_pivot(r) for r in kept]
    for j, c in enumerate(pivots):
        for i in range(j):
            if kept[i][c]:
                kept[i] = _step(kept[i], kept[j], c)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v: list[Rational] = [0] * ncols
        v[fc] = 1
        for r, c in zip(kept, pivots):
            if r[fc]:
                v[c] = Fraction(-r[fc], r[c])
        basis.append(v)
    return basis
