"""Polynomial ideals: reduced Groebner bases, normal forms and membership.

An ideal is a rank-1 module of ``modules``: its basis comes from the one
Buchberger loop there, its normal forms from the one division routine
(``module_reduce``), and its inter-reduction from ``module_groebner``.  This
layer has no loop of its own.  It wraps polynomials as 1-tuples and keeps
the ``Ideal`` view that the rest of the package works with.  The reduced
basis returned to callers is monic and sorted by leading monomial, so it is
the unique reduced Groebner basis for the ring's order.  An ``Ideal`` holds
one Groebner basis in the ring order, as 1-tuples with their leading terms:
the integral one that the first step of ``free_resolution`` handed it, else
the reduced basis.  in(I), the Hilbert numerator and ``saturate`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .hilbert import monomial_numerator
from .modules import Lead, Vec, module_groebner, module_normal_form
from .rings import PolyRing, Polynomial


@dataclass
class Ideal:
    """A polynomial ideal given by generators, with one Groebner basis held."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    _gb: list[Polynomial] | None = field(default=None, repr=False, compare=False)
    _basis: tuple[list[Vec], list[Lead]] | None = field(default=None, repr=False, compare=False)
    _numerator: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self.ring = ring
        self.generators = gens
        self._gb = self._basis = self._numerator = None

    def groebner_basis(self) -> list[Polynomial]:
        if self._gb is None:
            self._gb = reduced_groebner_basis(list(self.generators), self.ring)
        return self._gb

    def hold_basis(self, basis: list[Vec], leads: list[Lead]) -> None:
        """Keep a Groebner basis of I in the ring order, as 1-tuples with their leading terms."""
        self._basis = (basis, leads)

    def basis(self) -> tuple[list[Vec], list[Lead]]:
        """The Groebner basis held by ``hold_basis``, else the reduced basis, with leading terms."""
        if self._basis is None:
            gb = self.groebner_basis()
            self._basis = ([(g,) for g in gb], [(0, *g.terms[0]) for g in gb])
        return self._basis

    def hilbert_numerator(self) -> tuple[int, ...]:
        """Numerator of Hilb(R/I) over (1-t)^n, that of R/in(I) (Eisenbud, Thm 15.26)."""
        if self._numerator is None:
            leads = self.basis()[1]
            self._numerator = monomial_numerator([e for _, e, _ in leads], self.ring.num_vars)
        return self._numerator

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f on division by the basis (full tail reduction)."""
    return module_normal_form(f.ring, (f,), [(g,) for g in basis])[0]


def reduced_groebner_basis(gens: Sequence[Polynomial], ring: PolyRing) -> list[Polynomial]:
    """The unique reduced (monic, auto-reduced) Groebner basis."""
    return [v[0] for v in module_groebner([(g,) for g in gens], ring)]


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """True when the ideals coincide (reduced Groebner bases agree)."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    return I.groebner_basis() == J.groebner_basis()
