"""Polynomial ideals: reduced Groebner bases, normal forms and membership.

An ideal is a rank-1 module of ``modules``: its basis comes from the one
Buchberger loop there, its normal forms from the one division routine
(``module_reduce``), and its inter-reduction from ``module_groebner``.  This
layer has no loop of its own.  It wraps polynomials as 1-tuples and keeps
the ``Ideal`` view that the rest of the package works with.  The reduced
basis returned to callers is monic and sorted by leading monomial, so it is
the unique reduced Groebner basis for the ring's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .modules import module_groebner, module_normal_form
from .rings import PolyRing, Polynomial


@dataclass
class Ideal:
    """A polynomial ideal given by generators, with a cached reduced basis."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    _gb: list[Polynomial] | None = field(default=None, repr=False, compare=False)

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self.ring = ring
        self.generators = gens
        self._gb = None

    def groebner_basis(self, budget: int | None = None) -> list[Polynomial]:
        if self._gb is None:
            self._gb = reduced_groebner_basis(list(self.generators), self.ring, budget)
        return self._gb

    def contains(self, f: Polynomial, budget: int | None = None) -> bool:
        return normal_form(f, self.groebner_basis(budget)).is_zero()

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def with_order(self, order: object) -> Ideal:
        new_ring = self.ring.with_order(order)
        return Ideal(new_ring, [new_ring.from_dict(g.as_dict()) for g in self.generators])

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f on division by the basis (full tail reduction)."""
    return module_normal_form(f.ring, (f,), [(g,) for g in basis])[0]


def reduced_groebner_basis(
    gens: Sequence[Polynomial], ring: PolyRing, budget: int | None = None
) -> list[Polynomial]:
    """The unique reduced (monic, auto-reduced) Groebner basis."""
    return [v[0] for v in module_groebner([(g,) for g in gens], ring, budget)]


def ideal_equal(I: Ideal, J: Ideal, budget: int | None = None) -> bool:
    """True when the ideals coincide (reduced Groebner bases agree)."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    return I.groebner_basis(budget) == J.groebner_basis(budget)
