"""Submodules of graded free modules: Groebner bases and syzygies.

Elements of a free module R^s are plain tuples of polynomials.  Module terms
are (component, monomial) pairs ordered term-over-position: ring order on the
monomial first, then lower component wins.  One tracked Buchberger loop
serves both the module Groebner basis and the syzygies.  It takes only pairs
whose leading terms share a component, lowest lcm first (the normal
strategy), and prunes them within a component by the Gebauer-Moeller chain
criterion: a pending pair (i, j) goes when a new leading term t divides its
lcm and neither lcm(i, t) nor lcm(j, t) equals it, and of t's new pairs one
is kept per minimal lcm.  The product criterion does not hold for modules.
The leading-term syzygy of a dropped pair is a combination of those of kept
pairs, so the kept ones still generate all syzygies of the leading terms.
By Schreyer's theorem their lifts -- one syzygy per zero reduction, plus
those from interreducing the input generators -- then generate the full
syzygy module, and every returned syzygy is certified by exact expansion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .groebner import DEFAULT_PAIR_BUDGET, StepBudgetExceeded
from .rings import (
    Exponent,
    PolyRing,
    Polynomial,
    mono_div,
    mono_divides,
    mono_lcm,
)

Vec = tuple[Polynomial, ...]


@dataclass(frozen=True)
class FreeModuleElement:
    """A homogeneous element of a graded free module with degree shifts.

    ``twists[k]`` is the degree of the k-th basis vector, so the element is
    homogeneous of degree ``deg(components[k]) + twists[k]`` (constant over
    the nonzero components).
    """

    components: tuple[Polynomial, ...]
    twists: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.twists):
            raise ValueError("one twist per component required")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def is_homogeneous(self) -> bool:
        degs = {
            c.degree() + t for c, t in zip(self.components, self.twists) if not c.is_zero()
        }
        return len(degs) <= 1 and all(
            c.is_homogeneous() for c in self.components if not c.is_zero()
        )

    def degree(self) -> int:
        degs = {
            c.degree() + t for c, t in zip(self.components, self.twists) if not c.is_zero()
        }
        if len(degs) != 1:
            raise ValueError("element is zero or inhomogeneous")
        return degs.pop()


# -- raw vector helpers ------------------------------------------------------


def vec_zero(ring: PolyRing, rank: int) -> Vec:
    return tuple(ring.zero() for _ in range(rank))

def vec_unit(ring: PolyRing, rank: int, i: int) -> Vec:
    return tuple(ring.one() if k == i else ring.zero() for k in range(rank))

def vec_is_zero(v: Vec) -> bool:
    return all(c.is_zero() for c in v)

def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))

def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))

def vec_scale(a: Vec, c: Fraction) -> Vec:
    return tuple(x.scale(c) for x in a)

def vec_mul_term(a: Vec, e: Exponent, c: Fraction) -> Vec:
    return tuple(x.mul_term(e, c) for x in a)

def vec_mul_poly(a: Vec, p: Polynomial) -> Vec:
    return tuple(x * p for x in a)

def vec_degree(v: Vec) -> int:
    return max((c.degree() for c in v if not c.is_zero()), default=-1)


def vec_leading(ring: PolyRing, v: Vec) -> tuple[int, Exponent, Fraction]:
    """Leading module term (component, monomial, coefficient), TOP order."""
    best = None
    key = None
    for comp, p in enumerate(v):
        if p.is_zero():
            continue
        e, c = p.terms[0]
        k = (ring.exp_key(e), -comp)
        if key is None or k > key:
            key, best = k, (comp, e, c)
    if best is None:
        raise ValueError("zero vector has no leading term")
    return best


def vec_primitive(v: Vec) -> tuple[Vec, Fraction]:
    """Scale to coprime integer coefficients; returns (vector, factor used)."""
    coeffs = [c for p in v for _, c in p.terms]
    if not coeffs:
        return v, Fraction(1)
    den = lcm(*(c.denominator for c in coeffs))
    g = gcd(*(c.numerator * (den // c.denominator) for c in coeffs))
    factor = Fraction(den, g)
    ring = v[0].ring
    lead = vec_leading(ring, v)
    if lead[2] * factor < 0:
        factor = -factor
    return vec_scale(v, factor), factor


def vec_strip_leading(v: Vec, comp: int) -> Vec:
    out = list(v)
    p = v[comp]
    out[comp] = Polynomial(p.ring, p.terms[1:])
    return tuple(out)


# -- module division ---------------------------------------------------------


def module_reduce(
    ring: PolyRing, f: Vec, basis: Sequence[Vec]
) -> tuple[list[tuple[Exponent, Fraction, int]], Vec]:
    """Divide f by the basis; returns (reduction steps, remainder).

    Each step (monomial, coeff, k) subtracted monomial*coeff*basis[k].  No
    term of the remainder is divisible by any basis leading term.
    """
    leads = [vec_leading(ring, g) for g in basis]
    steps: list[tuple[Exponent, Fraction, int]] = []
    rank = len(f)
    rem: list[dict[Exponent, Fraction]] = [dict() for _ in range(rank)]
    p = f
    while not vec_is_zero(p):
        comp, e, c = vec_leading(ring, p)
        hit = False
        for k, (gc, ge, gcf) in enumerate(leads):
            if gc == comp and mono_divides(ge, e):
                t_exp, t_c = mono_div(e, ge), c / gcf
                p = vec_sub(p, vec_mul_term(basis[k], t_exp, t_c))
                steps.append((t_exp, t_c, k))
                hit = True
                break
        if not hit:
            rem[comp][e] = c
            p = vec_strip_leading(p, comp)
    return steps, tuple(ring.from_dict(d) for d in rem)


def module_normal_form(ring: PolyRing, f: Vec, basis: Sequence[Vec]) -> Vec:
    if not basis:
        return f
    _, r = module_reduce(ring, f, basis)
    return r


# -- tracked Buchberger and syzygies ----------------------------------------


class _PairQueue:
    """Pending S-pairs of a growing module basis, lowest lcm first.

    Entries are keyed by (lcm in the ring order, component, i, j), so the pop
    order is deterministic.  Registering a leading term prunes the pairs as
    ``groebner._update_pairs`` does, less the product criterion (see the
    module docstring).
    """

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.leads: list[tuple[int, Exponent]] = []
        self.heap: list[tuple[object, int, int, int, Exponent]] = []

    def add(self, comp: int, lm: Exponent) -> None:
        """Register the leading term of the next basis element and its pairs."""
        leads, t = self.leads, len(self.leads)
        self.heap = [
            (k, c, i, j, L)
            for k, c, i, j, L in self.heap
            if c != comp
            or not mono_divides(lm, L)
            or L == mono_lcm(leads[i][1], lm)
            or L == mono_lcm(leads[j][1], lm)
        ]
        heapq.heapify(self.heap)
        first_with_lcm: dict[Exponent, int] = {}
        for i, (c, e) in enumerate(leads):
            if c == comp:
                first_with_lcm.setdefault(mono_lcm(e, lm), i)
        key = self.ring.exp_key
        minimal: list[Exponent] = []
        for L in sorted(first_with_lcm, key=key):
            if not any(mono_divides(M, L) for M in minimal):
                minimal.append(L)
                heapq.heappush(self.heap, (key(L), comp, first_with_lcm[L], t, L))
        leads.append((comp, lm))

    def pop(self) -> tuple[int, int] | None:
        if not self.heap:
            return None
        _, _, i, j, _ = heapq.heappop(self.heap)
        return i, j


def _module_spair(
    ring: PolyRing, gi: Vec, gj: Vec
) -> tuple[Vec, tuple[Exponent, Fraction], tuple[Exponent, Fraction]]:
    _, ei, ki = vec_leading(ring, gi)
    _, ej, kj = vec_leading(ring, gj)
    L = mono_lcm(ei, ej)
    ti = (mono_div(L, ei), 1 / ki)
    tj = (mono_div(L, ej), 1 / kj)
    s = vec_sub(vec_mul_term(gi, *ti), vec_mul_term(gj, *tj))
    return s, ti, tj


def _buchberger(
    gens: Sequence[Vec], ring: PolyRing, budget: int | None, track: bool
) -> tuple[list[Vec], list[Vec]]:
    """The module Buchberger loop: (Groebner basis, syzygies of gens).

    With ``track`` every generator and S-vector carries its expression over
    the original generators, and each zero reduction contributes one syzygy;
    without it the syzygy list stays empty.
    """
    limit = DEFAULT_PAIR_BUDGET if budget is None else budget
    basis: list[Vec] = []
    reps: list[Vec | None] = []
    syzygies: list[Vec] = []
    queue = _PairQueue(ring)

    def reduce_and_add(v: Vec, rep: Vec | None) -> None:
        steps, r = module_reduce(ring, v, basis)
        if track:
            for t_exp, t_c, k in steps:
                rep = vec_sub(rep, vec_mul_term(reps[k], t_exp, t_c))
        if not vec_is_zero(r):
            r, factor = vec_primitive(r)
            basis.append(r)
            reps.append(vec_scale(rep, factor) if track else None)
            queue.add(*vec_leading(ring, r)[:2])
        elif track and not vec_is_zero(rep):
            syzygies.append(rep)

    for i, f in enumerate(gens):
        reduce_and_add(f, vec_unit(ring, len(gens), i) if track else None)

    steps_done = 0
    while (pair := queue.pop()) is not None:
        steps_done += 1
        if steps_done > limit:
            raise StepBudgetExceeded(
                f"{'syzygy' if track else 'module'} pair budget {limit} exhausted"
            )
        i, j = pair
        svec, ti, tj = _module_spair(ring, basis[i], basis[j])
        rep = vec_sub(vec_mul_term(reps[i], *ti), vec_mul_term(reps[j], *tj)) if track else None
        reduce_and_add(svec, rep)
    return basis, syzygies


def syzygy_generators(
    gens: Sequence[Vec], ring: PolyRing, budget: int | None = None
) -> list[Vec]:
    """Generators of {u in R^s : sum u_k * gens[k] = 0}, each certified."""
    if not gens:
        return []
    _, syzygies = _buchberger(gens, ring, budget, track=True)
    rank = len(gens[0])
    for u in syzygies:
        total = vec_zero(ring, rank)
        for coeff, gen in zip(u, gens):
            total = vec_add(total, vec_mul_poly(gen, coeff))
        if not vec_is_zero(total):
            raise AssertionError("syzygy certificate failed to expand to zero")
    return syzygies


def module_groebner(
    gens: Sequence[Vec], ring: PolyRing, budget: int | None = None
) -> list[Vec]:
    """Reduced Groebner basis of the submodule generated by gens (TOP order)."""
    basis, _ = _buchberger(gens, ring, budget, track=False)

    # minimalize and interreduce for a canonical reduced basis
    order = sorted(
        range(len(basis)),
        key=lambda k: (vec_leading(ring, basis[k])[0], ring.exp_key(vec_leading(ring, basis[k])[1])),
    )
    minimal: list[Vec] = []
    for k in order:
        c, e, _ = vec_leading(ring, basis[k])
        if not any(
            vec_leading(ring, h)[0] == c and mono_divides(vec_leading(ring, h)[1], e)
            for h in minimal
        ):
            minimal.append(basis[k])
    reduced: list[Vec] = []
    for k, g in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1 :]
        r = module_normal_form(ring, g, others) if others else g
        lead = vec_leading(ring, r)
        reduced.append(vec_scale(r, 1 / lead[2]))
    reduced.sort(key=lambda v: (vec_leading(ring, v)[0], ring.exp_key(vec_leading(ring, v)[1])))
    return reduced


# -- public syzygy surface ----------------------------------------------------


def syzygy_module(
    gens: Sequence[Polynomial], budget: int | None = None
) -> list[FreeModuleElement]:
    """Generators of the graded syzygy module of a list of homogeneous polynomials."""
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
    twists = tuple(g.degree() for g in gens)
    raw = syzygy_generators([(g,) for g in gens], ring, budget)
    return [FreeModuleElement(u, twists) for u in raw]
