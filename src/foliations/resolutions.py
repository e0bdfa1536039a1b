"""Minimal graded free resolutions of R/I, built on a Schreyer frame.

Each step is one run of the module Buchberger loop (``minimal_syzygies``)
on the syzygies the step before produced.  Its generators enter degree by
degree, and those that reduce to zero modulo what came before are dropped,
so each F_k maps its basis onto a minimal generating set of the kernel of
the map before: the resolution is minimal as it comes, and its twists are
the graded Betti numbers.  The syzygies a step lifts from its S-pairs are
the next step's generators, ordered by the Schreyer order the step induces
(each F_k carries marks: the leading monomial of each generator, carried
down the frame, and a rank; see ``modules``).  Step 0 runs on I with the
trivial mark, so its basis is a Groebner basis of I in the ring order: the
``Ideal`` keeps it, with its leading terms, and reads in(I), the Hilbert
data and ``saturate``'s first line off it, so none of them takes a basis.

The rank stop: rho generators of a module of rank rho are independent over
the fraction field, so it is free on them (Eisenbud, Commutative Algebra),
and their step, which would keep them all and find no syzygy, is not run.
By rank-nullity rho is the number the step before kept less its image's
rank: 1 for I, and rho for each later step.

Two checks certify the output.  A graded resolution is minimal exactly when
no map has a unit entry, which ``has_unit_entry`` tests.  R/I has
projective dimension at most the number of variables (Hilbert's syzygy
theorem), so a step past it is an engine bug.  Either failure raises
``InternalInconsistency``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import Ideal
from .hilbert import IntPoly, _add, _shift
from .modules import (
    InternalInconsistency,
    Vec,
    induced_marks,
    minimal_syzygies,
)
from .rings import PolyRing


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

    @property
    def length(self) -> int:
        return len(self.matrices)

    def betti(self) -> dict[tuple[int, int], int]:
        table: dict[tuple[int, int], int] = {}
        for i, tw in enumerate(self.twists):
            for t in tw:
                table[(i, t)] = table.get((i, t), 0) + 1
        return table

    def has_unit_entry(self) -> bool:
        return any(
            p.terms and p.degree() == 0
            for matrix in self.matrices
            for image in matrix
            for p in image
        )

    def euler_numerator(self) -> IntPoly:
        """Alternating sum  sum_i (-1)^i sum_j t^(twist)  over the complex."""
        total: IntPoly = ()
        for i, tw in enumerate(self.twists):
            sign = -1 if i % 2 else 1
            for t in tw:
                total = _add(total, _shift((sign,), t))
        return total


def free_resolution(I: Ideal) -> FreeResolution:
    """The minimal graded free resolution of R/I."""
    ring = I.ring
    for g in I.generators:
        if not g.is_homogeneous():
            raise ValueError("free resolutions require homogeneous generators")
    if any(g.degree() == 0 for g in I.generators):
        return FreeResolution(ring, [()], [])  # I = (1), so R/I = 0
    res = FreeResolution(ring, [(0,)], [])
    marks = [((0,) * ring.num_vars, 0)]
    current: list[Vec] = [(g,) for g in I.generators]
    rank = 1  # of the module the next step's generators generate: I, then a kernel
    while current:
        if len(res.matrices) == ring.num_vars:
            raise InternalInconsistency("resolution ran past the Hilbert syzygy bound")
        if res.matrices and len(current) == rank:
            kept, syzygies = range(rank), []  # the rank stop (module docstring)
        else:
            kept, syzygies, basis, leads = minimal_syzygies(current, ring, marks)
            if not res.matrices:
                I.hold_basis(basis, leads)
        gens = [current[i] for i in kept]
        marks = induced_marks(ring, gens, marks)
        res.matrices.append(gens)
        res.twists.append(tuple(sum(mark) for mark, _ in marks))
        current = syzygies
        rank = len(gens) - rank
    if res.has_unit_entry():
        raise InternalInconsistency("the resolution has a unit entry, so it is not minimal")
    return res
