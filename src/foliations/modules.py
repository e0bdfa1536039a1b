"""Submodules of graded free modules: Groebner bases and syzygies.

Elements of a free module R^s are plain tuples of polynomials.  Each basis
vector e_c carries a Schreyer mark (M_c, rank_c), and a term m*e_c is
compared by m*M_c in the ring order, then the lower rank wins.  M_c = 1 and
rank c give the term-over-position (TOP) order, the default, which
``module_groebner`` and ``ext`` use.  In a resolution, M_c is the leading
monomial of generator c carried down the frame: the Schreyer order.

One tracked Buchberger loop serves Groebner bases, syzygies and resolution
steps.  It takes only pairs whose leading terms share a component, lowest
lcm first, and prunes them by the Gebauer-Moeller chain criterion: a pending
pair (i, j) goes when a new leading term t divides its lcm and neither
lcm(i, t) nor lcm(j, t) equals it, and of t's new pairs one is kept per
minimal lcm.  The kept pairs still generate the syzygies of the leading
terms, so by Schreyer's theorem their lifts -- one per zero reduction, plus
those from reducing the input generators -- generate the syzygy module.
Every returned syzygy is certified by exact expansion.

Ideals are rank-1 modules of the same loop (``groebner`` has none of its
own).  Only there, and only when no syzygies are tracked, is a new pair with
coprime leading terms skipped (the product criterion, Buchberger's first):
its S-polynomial reduces to zero, but the zero reduction carries the Koszul
syzygy, which a tracked run must keep.  In higher rank the criterion fails:
two vectors whose leading monomials are coprime can have an S-vector that
does not reduce to zero.

A resolution step (``minimal_syzygies``) runs the loop degree by degree:
the degree of a generator or of a pair's lcm is its entry degree plus
deg M_c, and each generator enters after the pairs of its degree.  So a
generator that reduces to zero lies in the span of lower degrees and of the
generators before it: it is not minimal, and it is dropped without a
coordinate in the syzygies.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

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


Vec = tuple[Polynomial, ...]
Marks = Sequence[tuple[Exponent, int]]
"""Schreyer marks: (M_c, rank_c) for each basis vector e_c of a free module."""


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

def _term_key(ring: PolyRing, marks: Marks | None, comp: int, e: Exponent) -> tuple:
    if marks is None:
        return (ring.exp_key(e), -comp)
    mark, rank = marks[comp]
    return (ring.exp_key(mono_mul(e, mark)), -rank)


def vec_leading(
    ring: PolyRing, v: Vec, marks: Marks | None = None
) -> tuple[int, Exponent, Fraction]:
    """Leading module term (component, monomial, coefficient).

    TOP order unless Schreyer ``marks`` are given (see the module docstring).
    Order keys are computed only once a second nonzero component shows up,
    so a vector with one nonzero component, such as every vector of a rank-1
    run, costs no key at all.
    """
    best = None
    key = None
    for comp, p in enumerate(v):
        if not p.terms:
            continue
        e, c = p.terms[0]
        if best is None:
            best = (comp, e, c)
            continue
        if key is None:
            key = _term_key(ring, marks, best[0], best[1])
        k = _term_key(ring, marks, comp, e)
        if k > key:
            key, best = k, (comp, e, c)
    if best is None:
        raise ValueError("zero vector has no leading term")
    return best


def vec_primitive(v: Vec, marks: Marks | None = None) -> tuple[Vec, Fraction]:
    """Scale to coprime integer coefficients; returns (vector, factor used)."""
    coeffs = [c for p in v for _, c in p.terms]
    if not coeffs:
        return v, Fraction(1)
    den = lcm(*(c.denominator for c in coeffs))
    g = gcd(*(c.numerator * (den // c.denominator) for c in coeffs))
    factor = Fraction(den, g)
    ring = v[0].ring
    lead = vec_leading(ring, v, marks)
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
    ring: PolyRing, f: Vec, basis: Sequence[Vec], marks: Marks | None = None
) -> tuple[list[tuple[Exponent, Fraction, int]], Vec]:
    """Divide f by the basis; returns (reduction steps, remainder).

    Each step (monomial, coeff, k) subtracted monomial*coeff*basis[k].  No
    term of the remainder is divisible by any basis leading term.
    """
    leads = [vec_leading(ring, g, marks) for g in basis]
    steps: list[tuple[Exponent, Fraction, int]] = []
    rank = len(f)
    rem: list[dict[Exponent, Fraction]] = [dict() for _ in range(rank)]
    p = f
    while not vec_is_zero(p):
        comp, e, c = vec_leading(ring, p, marks)
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

    Entries are keyed by (lcm, component, i, j), so the pop order is fixed.
    With marks the key starts with the degree, and input generators queue
    too.  Registering a leading term prunes the pairs by the Gebauer-Moeller
    criteria of the module docstring.  With ``coprime`` set, a new pair whose
    leading terms are coprime is not queued (the product criterion); its lcm
    still counts when the minimal lcms are chosen.
    """

    def __init__(self, ring: PolyRing, marks: Marks | None, coprime: bool):
        self.ring = ring
        self.marks = marks
        self.coprime = coprime
        self.leads: list[tuple[int, Exponent]] = []
        self.heap: list[tuple[object, int, int, int | None, Exponent | None]] = []

    def _key(self, comp: int, L: Exponent) -> object:
        if self.marks is None:
            return self.ring.exp_key(L)
        return (sum(L) + sum(self.marks[comp][0]), 0, _term_key(self.ring, self.marks, comp, L))

    def add_generator(self, i: int, degree: int) -> None:
        """Queue input generator i to enter the basis at its degree."""
        heapq.heappush(self.heap, ((degree, 1, i), -1, i, None, None))

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
        skipped: set[Exponent] = set()
        for i, (c, e) in enumerate(leads):
            if c == comp:
                L = mono_lcm(e, lm)
                first_with_lcm.setdefault(L, i)
                if self.coprime and L == mono_mul(e, lm):
                    skipped.add(L)
        minimal: list[Exponent] = []
        for L in sorted(first_with_lcm, key=self.ring.exp_key):
            if not any(mono_divides(M, L) for M in minimal):
                minimal.append(L)
                if L not in skipped:
                    heapq.heappush(self.heap, (self._key(comp, L), comp, first_with_lcm[L], t, L))
        leads.append((comp, lm))

    def pop(self) -> tuple[int, int | None] | None:
        """The next pair (i, j), or (i, None) for input generator i."""
        if not self.heap:
            return None
        _, _, i, j, _ = heapq.heappop(self.heap)
        return i, j


def _module_spair(
    ring: PolyRing, gi: Vec, gj: Vec, marks: Marks | None
) -> tuple[Vec, tuple[Exponent, Fraction], tuple[Exponent, Fraction]]:
    _, ei, ki = vec_leading(ring, gi, marks)
    _, ej, kj = vec_leading(ring, gj, marks)
    L = mono_lcm(ei, ej)
    ti = (mono_div(L, ei), 1 / ki)
    tj = (mono_div(L, ej), 1 / kj)
    s = vec_sub(vec_mul_term(gi, *ti), vec_mul_term(gj, *tj))
    return s, ti, tj


def _buchberger(
    gens: Sequence[Vec],
    ring: PolyRing,
    budget: int | None,
    track: bool,
    marks: Marks | None = None,
) -> tuple[list[Vec], list[Vec], list[int]]:
    """The module Buchberger loop: (Groebner basis, syzygies, kept generators).

    With ``track`` every generator and S-vector carries its expression over
    the original generators, and each zero reduction contributes one syzygy;
    without it the syzygy list stays empty.  Without ``marks`` the
    generators are reduced up front.  With ``marks`` they enter at their
    degree, and only those that do not reduce to zero are kept; the others
    contribute no syzygy.

    An untracked rank-1 run -- the basis of an ideal -- also applies the
    product criterion.  A tracked run keeps the coprime pairs: their zero
    reductions are the Koszul syzygies.
    """
    limit = DEFAULT_PAIR_BUDGET if budget is None else budget
    basis: list[Vec] = []
    reps: list[Vec | None] = []
    syzygies: list[Vec] = []
    kept: list[int] = []
    ideal = not track and all(len(f) == 1 for f in gens)
    queue = _PairQueue(ring, marks, coprime=ideal)

    def reduce_and_add(v: Vec, rep: Vec | None, drop_zero: bool = False) -> bool:
        steps, r = module_reduce(ring, v, basis, marks)
        if track:
            for t_exp, t_c, k in steps:
                rep = vec_sub(rep, vec_mul_term(reps[k], t_exp, t_c))
        if not vec_is_zero(r):
            r, factor = vec_primitive(r, marks)
            basis.append(r)
            reps.append(vec_scale(rep, factor) if track else None)
            queue.add(*vec_leading(ring, r, marks)[:2])
            return True
        if track and not drop_zero and not vec_is_zero(rep):
            syzygies.append(rep)
        return False

    def unit(i: int) -> Vec | None:
        return vec_unit(ring, len(gens), i) if track else None

    if marks is None:
        for i, f in enumerate(gens):
            reduce_and_add(f, unit(i))
    else:
        for i, f in enumerate(gens):
            c = next(c for c, p in enumerate(f) if not p.is_zero())
            queue.add_generator(i, f[c].degree() + sum(marks[c][0]))

    steps_done = 0
    while (pair := queue.pop()) is not None:
        i, j = pair
        if j is None:
            if reduce_and_add(gens[i], unit(i), drop_zero=True):
                kept.append(i)
            continue
        steps_done += 1
        if steps_done > limit:
            kind = "syzygy" if track else "ideal" if ideal else "module"
            raise StepBudgetExceeded(f"{kind} pair budget {limit} exhausted")
        svec, ti, tj = _module_spair(ring, basis[i], basis[j], marks)
        rep = vec_sub(vec_mul_term(reps[i], *ti), vec_mul_term(reps[j], *tj)) if track else None
        reduce_and_add(svec, rep)
    return basis, syzygies, kept


def _certify(syzygies: list[Vec], gens: Sequence[Vec], ring: PolyRing) -> None:
    """Expand each syzygy against the generators; raise unless it is zero."""
    rank = len(gens[0])
    for u in syzygies:
        total = vec_zero(ring, rank)
        for coeff, gen in zip(u, gens):
            total = vec_add(total, vec_mul_poly(gen, coeff))
        if not vec_is_zero(total):
            raise AssertionError("syzygy certificate failed to expand to zero")


def syzygy_generators(
    gens: Sequence[Vec], ring: PolyRing, budget: int | None = None
) -> list[Vec]:
    """Generators of {u in R^s : sum u_k * gens[k] = 0}, each certified."""
    if not gens:
        return []
    _, syzygies, _ = _buchberger(gens, ring, budget, track=True)
    _certify(syzygies, gens, ring)
    return syzygies


def minimal_syzygies(
    gens: Sequence[Vec], ring: PolyRing, marks: Marks, budget: int | None = None
) -> tuple[list[int], list[Vec]]:
    """One resolution step: (indices of minimal generators, their syzygies).

    ``gens`` are homogeneous vectors over a free module with Schreyer
    ``marks``.  The kept generators form a minimal generating set of the
    module that ``gens`` generate, and the syzygies, each certified, are
    vectors over the kept generators in the order of ``kept``.
    """
    if not gens:
        return [], []
    _, syzygies, kept = _buchberger(gens, ring, budget, track=True, marks=marks)
    kept.sort()
    syzygies = [tuple(u[i] for i in kept) for u in syzygies]
    _certify(syzygies, [gens[i] for i in kept], ring)
    return kept, syzygies


def induced_marks(ring: PolyRing, gens: Sequence[Vec], marks: Marks) -> list[tuple[Exponent, int]]:
    """The Schreyer marks that ``gens``, over a module with ``marks``, induce.

    Generator i leads with m*e_c, so its mark is m*M_c; ranks order the
    generators by the rank of c, then by index.
    """
    leads = [vec_leading(ring, g, marks)[:2] for g in gens]
    order = sorted(range(len(gens)), key=lambda i: (marks[leads[i][0]][1], i))
    rank = {i: r for r, i in enumerate(order)}
    return [(mono_mul(e, marks[c][0]), rank[i]) for i, (c, e) in enumerate(leads)]


def module_groebner(
    gens: Sequence[Vec], ring: PolyRing, budget: int | None = None
) -> list[Vec]:
    """Reduced Groebner basis of the submodule generated by gens (TOP order)."""
    basis, _, _ = _buchberger(gens, ring, budget, track=False)

    def lead_key(v: Vec) -> tuple:
        c, e, _ = vec_leading(ring, v)
        return (c, ring.exp_key(e))

    minimal: list[Vec] = []
    kept_leads: list[tuple[int, Exponent]] = []
    for g in sorted(basis, key=lead_key):
        c, e, _ = vec_leading(ring, g)
        if not any(hc == c and mono_divides(he, e) for hc, he in kept_leads):
            minimal.append(g)
            kept_leads.append((c, e))
    # interreduction keeps each leading term, so the result stays sorted
    reduced: list[Vec] = []
    for k, g in enumerate(minimal):
        r = module_normal_form(ring, g, minimal[:k] + minimal[k + 1 :])
        reduced.append(vec_scale(r, 1 / vec_leading(ring, r)[2]))
    return reduced
