"""Graded free resolutions of R/I by iterated syzygy computation.

Each step takes the canonical reduced module Groebner basis of the syzygies
of the previous step's generators, so ranks stay small; the resulting
(generally non-minimal) resolution is then minimalized by cancelling unit
entries, iterated to fixpoint.  A graded resolution is minimal exactly when
no map has a unit entry, so the pruned twists are the graded Betti numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Ideal, StepBudgetExceeded
from .hilbert import IntPoly, _add, _shift
from .modules import (
    Vec,
    module_groebner,
    syzygy_generators,
    vec_is_zero,
    vec_mul_poly,
    vec_sub,
)
from .rings import PolyRing, Polynomial


@dataclass
class FreeResolution:
    """A chain R = F_0 <- F_1 <- ... with matrices[k]: F_{k+1} -> F_k.

    ``matrices[k]`` lists the images of the basis of F_{k+1} as vectors with
    one polynomial per basis element of F_k. ``twists[i]`` are the degrees of
    the basis vectors of F_i, so F_i = (+)_j R(-twists[i][j]).
    """

    ring: PolyRing
    twists: list[tuple[int, ...]]
    matrices: list[list[Vec]]
    minimal: bool

    @property
    def length(self) -> int:
        return len(self.matrices)

    def betti(self) -> dict[tuple[int, int], int]:
        table: dict[tuple[int, int], int] = {}
        for i, tw in enumerate(self.twists):
            for t in tw:
                table[(i, t)] = table.get((i, t), 0) + 1
        return table

    def composites_are_zero(self) -> bool:
        for k in range(len(self.matrices) - 1):
            for image in self.matrices[k + 1]:
                acc = tuple(self.ring.zero() for _ in self.twists[k])
                for coeff, col in zip(image, self.matrices[k]):
                    acc = vec_sub(acc, tuple(p * (-coeff) for p in col))
                if not vec_is_zero(acc):
                    return False
        return True

    def has_unit_entry(self) -> bool:
        return any(_find_unit(m) is not None for m in self.matrices)

    def euler_numerator(self) -> IntPoly:
        """Alternating sum  sum_i (-1)^i sum_j t^(twist)  over the complex."""
        total: IntPoly = ()
        for i, tw in enumerate(self.twists):
            sign = -1 if i % 2 else 1
            for t in tw:
                total = _add(total, _shift((sign,), t))
        return total


def _find_unit(matrix: list[Vec]) -> tuple[int, int] | None:
    for c, image in enumerate(matrix):
        for r, entry in enumerate(image):
            if entry.terms and entry.degree() == 0:
                return c, r
    return None


def _prune_once(res: FreeResolution, k: int, c: int, r: int) -> None:
    """Cancel the trivial summand witnessed by a unit at matrices[k][c][r]."""
    mat = res.matrices[k]
    u = mat[c][r].leading_coeff()
    lam: dict[int, Polynomial] = {}
    for j in range(len(mat)):
        if j != c and not mat[j][r].is_zero():
            lam[j] = mat[j][r].scale(1 / u)
    pivot = mat[c]
    for j, l in lam.items():
        mat[j] = vec_sub(mat[j], vec_mul_poly(pivot, l))
    # rewrite the next map into the changed basis of F_{k+1}; its coordinate
    # along the cancelled basis vector must vanish (composite is zero)
    if k + 1 < len(res.matrices):
        nxt = res.matrices[k + 1]
        for idx, image in enumerate(nxt):
            new_c = image[c]
            for j, l in lam.items():
                new_c = new_c + image[j] * l
            if not new_c.is_zero():
                raise AssertionError("pruning produced a nonzero cancelled coordinate")
            nxt[idx] = tuple(p for t, p in enumerate(image) if t != c)
    # drop the cancelled source column and target row
    del mat[c]
    res.matrices[k] = [tuple(p for t, p in enumerate(img) if t != r) for img in mat]
    if k > 0:
        del res.matrices[k - 1][r]
    res.twists[k + 1] = tuple(t for i, t in enumerate(res.twists[k + 1]) if i != c)
    res.twists[k] = tuple(t for i, t in enumerate(res.twists[k]) if i != r)


def minimalize(res: FreeResolution) -> FreeResolution:
    """Unit-entry Gaussian pruning, iterated to fixpoint."""
    changed = True
    while changed:
        changed = False
        for k in range(len(res.matrices)):
            hit = _find_unit(res.matrices[k])
            if hit is not None:
                _prune_once(res, k, *hit)
                changed = True
                break
    while res.matrices and not res.matrices[-1]:
        res.matrices.pop()
        res.twists.pop()
    res.minimal = True
    return res


def free_resolution(I: Ideal, minimal: bool = True, budget: int | None = None) -> FreeResolution:
    """A graded free resolution of R/I (minimal by default)."""
    ring = I.ring
    for g in I.generators:
        if not g.is_homogeneous():
            raise ValueError("free resolutions require homogeneous generators")
    res = FreeResolution(ring, [(0,)], [], minimal=False)
    current: list[Vec] = [(g,) for g in I.generators]
    if not current:
        return res
    step = 0
    while current:
        step += 1
        if step > ring.num_vars + 2:
            raise StepBudgetExceeded("resolution exceeded the Hilbert syzygy bound")
        prev_twists = res.twists[-1]
        degree_of = lambda v: next(
            c.degree() + t for c, t in zip(v, prev_twists) if not c.is_zero()
        )
        res.matrices.append(list(current))
        res.twists.append(tuple(degree_of(v) for v in current))
        syz = syzygy_generators(current, ring, budget)
        syz = [v for v in syz if not vec_is_zero(v)]
        if not syz:
            break
        current = module_groebner(syz, ring, budget)
    if minimal:
        minimalize(res)
    return res
