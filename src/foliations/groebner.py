"""Groebner bases for polynomial ideals: Buchberger with Gebauer-Moeller.

The engine favours auditability over speed: plain Buchberger with the
Gebauer-Moeller pair criteria and the normal selection strategy, exact
rational arithmetic, and a step budget that turns runaway computations into
a distinct error instead of a wrong answer.  Basis elements are kept with
coprime integer coefficients during the loop; the reduced basis returned to
callers is monic, so it is the unique reduced Groebner basis for the ring's
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .rings import (
    Exponent,
    PolyRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_PAIR_BUDGET = 200_000


class StepBudgetExceeded(RuntimeError):
    """A configured step budget ran out before the computation finished."""


class InternalInconsistency(RuntimeError):
    """An internal check or a theorem the engine relies on failed: an engine bug."""


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


# -- division --------------------------------------------------------------


def reduce_with_quotients(
    f: Polynomial, divisors: Sequence[Polynomial]
) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: f = sum q_k * divisors[k] + r.

    No term of r is divisible by any leading term of the divisors, and every
    quotient term q_k*LT(g_k) is bounded by the leading term of f.
    """
    ring = f.ring
    lts = [(g.leading_monomial(), g.leading_coeff()) for g in divisors]
    quots = [ring.zero()] * len(divisors)
    rem: dict[Exponent, Fraction] = {}
    p = f
    while p.terms:
        e, c = p.terms[0]
        for k, (lm, lc) in enumerate(lts):
            if mono_divides(lm, e):
                t_exp, t_c = mono_div(e, lm), c / lc
                p = p - divisors[k].mul_term(t_exp, t_c)
                quots[k] = quots[k] + ring.monomial(t_exp, t_c)
                break
        else:
            rem[e] = c
            p = Polynomial(ring, p.terms[1:])
    return quots, ring.from_dict(rem)


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of f on division by the basis (full tail reduction)."""
    if not basis:
        return f
    _, r = reduce_with_quotients(f, basis)
    return r


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lcm = mono_lcm(f.leading_monomial(), g.leading_monomial())
    a = f.mul_term(mono_div(lcm, f.leading_monomial()), 1 / f.leading_coeff())
    b = g.mul_term(mono_div(lcm, g.leading_monomial()), 1 / g.leading_coeff())
    return a - b


# -- Buchberger -------------------------------------------------------------


def _update_pairs(
    G: list[Polynomial],
    P: set[tuple[int, int]],
    f: Polynomial,
    ring: PolyRing,
) -> tuple[list[Polynomial], set[tuple[int, int]]]:
    """Add f to the basis, pruning pairs with the Gebauer-Moeller criteria."""
    lmf = f.leading_monomial()
    lmG = [g.leading_monomial() for g in G]
    t = len(G)

    kept = set()
    for i, j in P:
        lcm_ij = mono_lcm(lmG[i], lmG[j])
        if (
            not mono_divides(lmf, lcm_ij)
            or lcm_ij == mono_lcm(lmG[i], lmf)
            or lcm_ij == mono_lcm(lmG[j], lmf)
        ):
            kept.add((i, j))

    by_lcm: dict[Exponent, list[int]] = {}
    for i in range(t):
        by_lcm.setdefault(mono_lcm(lmG[i], lmf), []).append(i)
    minimal: list[Exponent] = []
    for L in sorted(by_lcm, key=ring.exp_key):
        if all(not mono_divides(M, L) for M in minimal):
            minimal.append(L)
    for L in minimal:
        if not any(mono_lcm(lmG[i], lmf) == mono_mul(lmG[i], lmf) for i in by_lcm[L]):
            kept.add((min(by_lcm[L]), t))

    return G + [f], kept


def groebner_basis(
    gens: Sequence[Polynomial], ring: PolyRing, budget: int | None = None
) -> list[Polynomial]:
    """A (not yet reduced) Groebner basis of the given generators."""
    limit = DEFAULT_PAIR_BUDGET if budget is None else budget
    G: list[Polynomial] = []
    P: set[tuple[int, int]] = set()
    for f in gens:
        if not f.is_zero():
            G, P = _update_pairs(G, P, f.primitive(), ring)

    steps = 0
    while P:
        i, j = min(
            P, key=lambda p: ring.exp_key(mono_lcm(G[p[0]].leading_monomial(), G[p[1]].leading_monomial()))
        )
        P.remove((i, j))
        steps += 1
        if steps > limit:
            raise StepBudgetExceeded(f"pair budget {limit} exhausted")
        r = normal_form(s_polynomial(G[i], G[j]), G)
        if not r.is_zero():
            G, P = _update_pairs(G, P, r.primitive(), ring)
    return G


def reduced_groebner_basis(
    gens: Sequence[Polynomial], ring: PolyRing, budget: int | None = None
) -> list[Polynomial]:
    """The unique reduced (monic, auto-reduced) Groebner basis."""
    G = groebner_basis(gens, ring, budget)
    # minimalize: drop elements whose leading term another one divides
    G = sorted(G, key=lambda g: ring.exp_key(g.leading_monomial()))
    minimal: list[Polynomial] = []
    for g in G:
        if not any(mono_divides(h.leading_monomial(), g.leading_monomial()) for h in minimal):
            minimal.append(g)
    reduced = []
    for k, g in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1 :]
        reduced.append(normal_form(g, others).monic() if others else g.monic())
    reduced.sort(key=lambda g: ring.exp_key(g.leading_monomial()))
    return reduced


def is_groebner_basis(G: Sequence[Polynomial]) -> bool:
    """Certificate check: every S-polynomial reduces to zero."""
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if not normal_form(s_polynomial(G[i], G[j]), G).is_zero():
                return False
    return True


def ideal_equal(I: Ideal, J: Ideal, budget: int | None = None) -> bool:
    """True when the ideals coincide (reduced Groebner bases agree)."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    return I.groebner_basis(budget) == J.groebner_basis(budget)
