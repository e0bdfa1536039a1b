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

Division is fraction-free.  A step of ``module_reduce`` replaces the
dividend p by a*p - b*m*g, with a = lc(g)/c and b = lc(p)/c for c the gcd of
the two leading coefficients, so integral input stays integral and no
``Fraction`` is built; the remainder found so far is scaled by a along with
p.  Only when a leading coefficient is not an integer -- a monic reduced
basis, say -- does a step divide, through ``Fraction``, with a = 1.  The
loop keeps its basis integral: ``reduce_and_add`` clears the denominators of
its input and divides the remainder and the representation it tracks by
their joint content, so tracked representations (and the syzygies read off
them) stay integral too.  Only ``interreduce`` leaves the integers: its
last step makes the reduced basis monic.  The loop holds the leading terms
of its basis and hands them to every division, which hands back the lead
where it stopped.

A tracked representation is a list of unsorted ((component, exponent),
coefficient) pairs; generator i starts as ((i, 1), 1).  After a division
with steps (a_s, m_s, b_s, k_s) the dividend's rep becomes, in one dict,
A*rep - sum_s b_s*S_s*m_s*rep_{k_s}: A is the product of the a's and of the
denominator cleared, S_s that of the a's after step s, the integers a replay
step by step gives.  Only the syzygies kept are sorted into Polynomials.

The loop top-reduces: its divisions stop at the first leading term that no
basis lead divides, as the criteria read only leading terms (a standard
representation is enough; Becker-Weispfenning, 1993).  Up to that term top
and full reduction take the same steps, so a dividend reduces to zero under
both or neither.  A generator enters once the basis is a Groebner basis
through its degree, so the kept generators, in(M) and the Betti numbers do
not depend on the tails; the basis and the syzygies may.  Full reduction
stays where a normal form is read: ``module_normal_form`` and
``interreduce``, which turns any Groebner basis into the reduced one (and,
after one loop run, is ``module_groebner``).

A resolution step (``minimal_syzygies``) runs the loop degree by degree:
the degree of a generator or of a pair's lcm is its entry degree plus
deg M_c, and each generator enters after the pairs of its degree.  So a
generator that reduces to zero lies in the span of lower degrees and of the
generators before it: it is not minimal, and it is dropped without a
coordinate in the syzygies.

Work is counted in S-pairs, and only here.  Inside ``with pair_budget(n):``
every loop run draws on one count of n pairs, so n bounds the whole
computation; the run that finds it spent raises ``StepBudgetExceeded``.
Outside one, each run may take ``DEFAULT_PAIR_BUDGET`` pairs on its own.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, le, sub
from typing import Iterator, Sequence

from .rings import (
    Exponent,
    PolyRing,
    Polynomial,
    Rational,
    add_product,
    exact,
    merge_terms,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_PAIR_BUDGET = 200_000

_pair_budget: ContextVar[list[int] | None] = ContextVar("pair_budget", default=None)
"""[S-pairs left, limit] of the innermost ``pair_budget``; None outside one."""


class StepBudgetExceeded(RuntimeError):
    """A configured step budget ran out before the computation finished."""


@contextmanager
def pair_budget(limit: int | None) -> Iterator[None]:
    """Bound the S-pairs of every loop run inside by ``limit`` in all; None does nothing,
    and a limit below 0 raises ValueError."""
    if limit is None:
        yield
        return
    if limit < 0:
        raise ValueError(f"pair budget {limit} is negative")
    token = _pair_budget.set([limit, limit])
    try:
        yield
    finally:
        _pair_budget.reset(token)


class InternalInconsistency(RuntimeError):
    """An internal check or a theorem the engine relies on failed: an engine bug."""


Vec = tuple[Polynomial, ...]
Marks = Sequence[tuple[Exponent, int]]
"""Schreyer marks: (M_c, rank_c) for each basis vector e_c of a free module."""
Lead = tuple[int, Exponent, Rational]
"""A leading module term: (component, monomial, coefficient)."""
Step = tuple[Rational, Exponent, Rational, int]
"""A division step (a, m, b, k): the dividend p became a*p - b*m*basis[k]."""
Rep = list[tuple[tuple[int, Exponent], int]]
"""A tracked representation: unsorted ((comp, e), c) pairs, no zero c (module docstring)."""


# -- raw vector helpers ------------------------------------------------------


def vec_is_zero(v: Vec) -> bool:
    return all(c.is_zero() for c in v)

def vec_scale(a: Vec, c: Rational) -> Vec:
    if c == 1:
        return a
    return tuple(x.scale(c) for x in a)

def _term_key(ring: PolyRing, marks: Marks | None, comp: int, e: Exponent) -> tuple:
    if marks is None:
        return (ring.exp_key(e), -comp)
    mark, rank = marks[comp]
    return (ring.exp_key(mono_mul(e, mark)), -rank)


def _leading_component(ring: PolyRing, terms: Sequence[tuple], marks: Marks | None) -> int:
    """The component whose first term leads, over per-component term tuples;
    -1 when every component is empty.

    Order keys are computed only once a second nonzero component shows up,
    so a vector with one nonzero component, such as every vector of a rank-1
    run, costs no key at all.
    """
    best = -1
    key = None
    for comp, t in enumerate(terms):
        if not t:
            continue
        if best < 0:
            best = comp
            continue
        if key is None:
            key = _term_key(ring, marks, best, terms[best][0][0])
        k = _term_key(ring, marks, comp, t[0][0])
        if k > key:
            key, best = k, comp
    return best


def vec_leading(ring: PolyRing, v: Vec, marks: Marks | None = None) -> Lead:
    """Leading module term (component, monomial, coefficient).

    TOP order unless Schreyer ``marks`` are given (see the module docstring).
    """
    comp = _leading_component(ring, [p.terms for p in v], marks)
    if comp < 0:
        raise ValueError("zero vector has no leading term")
    return (comp, *v[comp].terms[0])


def vec_integral(v: Vec) -> tuple[Vec, int]:
    """(d*v, d) for the least d > 0 that makes every coefficient an ``int``."""
    if all(type(c) is int for p in v for _, c in p.terms):
        return v, 1
    den = lcm(*(c.denominator for p in v for _, c in p.terms))
    return tuple(
        Polynomial(p.ring, tuple((e, c.numerator * (den // c.denominator)) for e, c in p.terms))
        for p in v
    ), den


def vec_content(v: Vec) -> int:
    """The gcd of the coefficients of an integral vector; 0 for zero."""
    return gcd(*(c for p in v for _, c in p.terms))


def vec_divide(v: Vec, g: int) -> Vec:
    """v/g for an integral v whose coefficients g divides, kept integral."""
    if g == 1:
        return v
    return tuple(Polynomial(p.ring, tuple((e, c // g) for e, c in p.terms)) for p in v)


def vec_monic(v: Vec, lc: Rational) -> Vec:
    """v/lc through ``Fraction``, integral coefficients stored as ``int``."""
    if lc == 1:
        return v
    return tuple(
        Polynomial(p.ring, tuple((e, exact(Fraction(c) / lc)) for e, c in p.terms)) for p in v
    )


# -- module division ---------------------------------------------------------


def module_reduce(
    ring: PolyRing,
    f: Vec,
    basis: Sequence[Vec],
    marks: Marks | None = None,
    leads: Sequence[Lead] | None = None,
    top: bool = False,
) -> tuple[list[Step], Vec, Lead | None]:
    """Divide f by the basis, fraction-free; returns (steps, remainder, the
    remainder's leading term or None when it is zero).

    Each step (a, m, b, k) replaced the dividend p by a*p - b*m*basis[k]
    (see the module docstring), and the remainder is scaled along: with s
    the product of the a's, s*f = sum of the q_k*basis[k] + remainder, where
    replaying the steps as q <- a*q + b*m*e_k from q = 0 gives the q_k.  No
    term of the remainder is divisible by a basis lead; with ``top`` the
    remainder is the dividend at the first leading term that none divides.
    ``leads``, when given, are the basis leading terms ``vec_leading``
    would compute.
    """
    if leads is None:
        leads = [vec_leading(ring, g, marks) for g in basis]
    key = ring.exp_key
    steps: list[Step] = []
    p = [x.terms for x in f]  # the dividend, as one term tuple per component
    # remainder terms per component, each with the scale p had when it left
    rem: list[list[tuple[Exponent, Rational, int]]] = [[] for _ in p]
    scale = 1
    first = -1  # the component of the first term no lead divides: the remainder's lead
    while True:
        comp = (0 if p[0] else -1) if len(p) == 1 else _leading_component(ring, p, marks)
        if comp < 0:
            break
        e, c = p[comp][0]
        for k, (gc, ge, gcf) in enumerate(leads):
            if gc == comp and all(map(le, ge, e)):
                break
        else:
            if first < 0:
                first = comp
            if top:
                break
            rem[comp].append((e, c, scale))
            p[comp] = p[comp][1:]
            continue
        m = tuple(map(sub, e, ge))
        if gcf == 1:
            a, b = 1, c
        elif type(c) is int and type(gcf) is int:
            g = gcd(c, gcf)
            if gcf < 0:
                g = -g
            a, b = gcf // g, c // g
            scale *= a
            p = [tuple([(x, a * y) for x, y in t]) if t else t for t in p]
        else:
            a, b = 1, Fraction(c) / gcf
        steps.append((a, m, b, k))
        # a*lc(p) = b*lc(g): the two leading terms cancel, so both are dropped
        nb = -b
        for ci, poly in enumerate(basis[k]):
            gt = poly.terms
            if ci == comp:
                gt = gt[1:]
                p[ci] = p[ci][1:]
            if gt:
                gt = tuple([(tuple(map(add, x, m)), nb * y) for x, y in gt])
                p[ci] = merge_terms(p[ci], gt, key, False) if p[ci] else gt
    # the terms set aside, then what is left of the dividend: none unless ``top``
    r = tuple(
        Polynomial(ring, tuple((e, c * (scale // at) if at != scale else c) for e, c, at in aside) + t)
        for aside, t in zip(rem, p)
    )
    return steps, r, (first, *r[first].terms[0]) if first >= 0 else None


def module_normal_form(ring: PolyRing, f: Vec, basis: Sequence[Vec]) -> Vec:
    """The remainder of f on division by the basis, with the scalings undone."""
    if not basis:
        return f
    steps, r, _ = module_reduce(ring, f, basis)
    return vec_scale(r, Fraction(1, prod(a for a, _, _, _ in steps)))


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
    ring: PolyRing, gi: Vec, gj: Vec, lead_i: Lead, lead_j: Lead
) -> tuple[Vec, tuple[Exponent, int], tuple[Exponent, int]]:
    """The integral S-vector ti*gi + tj*gj of two integral basis elements and
    the terms ti, tj (tj's coefficient negative), each component one merge."""
    _, ei, ki = lead_i
    _, ej, kj = lead_j
    L = mono_lcm(ei, ej)
    g = gcd(ki, kj)
    (mi, ci), (mj, cj) = ti, tj = (mono_div(L, ei), kj // g), (mono_div(L, ej), -ki // g)
    s = []
    for p, q in zip(gi, gj):
        a = tuple([(tuple(map(add, e, mi)), ci * c) for e, c in p.terms])
        b = tuple([(tuple(map(add, e, mj)), cj * c) for e, c in q.terms])
        s.append(Polynomial(ring, merge_terms(a, b, ring.exp_key, False) if a and b else a or b))
    return tuple(s), ti, tj


def _replay(pieces: list, steps: list[Step], den: int, reps: list[Rep]) -> Rep:
    """den*A*sum c*x^m*rep over the pieces (m, c, rep) - sum_s b_s*S_s*m_s*reps[k_s],
    the representation after a division, expanded into one dict (module docstring)."""
    after = prod(a for a, _, _, _ in steps)
    pieces = [(m, c * den * after, rep) for m, c, rep in pieces]
    for a, m, b, k in steps:
        after //= a  # S_s
        pieces.append((m, -b * after, reps[k]))
    acc: dict[tuple[int, Exponent], int] = {}
    get = acc.get
    for m, c, rep in pieces:
        for (comp, e), x in rep:
            t = (comp, tuple(map(add, e, m)))
            acc[t] = get(t, 0) + c * x
    return [t for t in acc.items() if t[1]]


def _rep_vector(ring: PolyRing, rep: Rep, rank: int) -> Vec:
    """A representation as a vector of ``rank`` Polynomials, sorted in one pass."""
    comps: list[list[tuple[Exponent, int]]] = [[] for _ in range(rank)]
    for (comp, e), c in sorted(rep, key=lambda t: ring.exp_key(t[0][1]), reverse=True):
        comps[comp].append((e, c))
    return tuple(Polynomial(ring, tuple(t)) for t in comps)


def _buchberger(
    gens: Sequence[Vec],
    ring: PolyRing,
    track: bool,
    marks: Marks | None = None,
) -> tuple[list[Vec], list[Vec], list[int], list[Lead]]:
    """The module Buchberger loop: (Groebner basis, syzygies, kept generators,
    the basis leading terms).

    The basis is integral, each element leading with a positive coefficient.

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
    basis: list[Vec] = []
    leads: list[Lead] = []
    reps: list[Rep | None] = []
    syzygies: list[Vec] = []
    kept: list[int] = []
    ideal = not track and all(len(f) == 1 for f in gens)
    queue = _PairQueue(ring, marks, coprime=ideal)
    one = (0,) * ring.num_vars

    def reduce_and_add(v: Vec, den: int, pieces: list, drop_zero: bool = False) -> bool:
        # v, integral, and its representation, den times the sum of the pieces
        # (m, c, rep) of c*x^m*rep; den > 1 only for an input generator
        steps, r, lead = module_reduce(ring, v, basis, marks, leads, top=True)
        rep = _replay(pieces, steps, den, reps) if track else None
        if lead is not None:
            comp, e, c = lead
            g = gcd(vec_content(r), *(x for _, x in rep)) if track else vec_content(r)
            if c < 0:
                g = -g
            basis.append(vec_divide(r, g))
            leads.append((comp, e, c // g))
            reps.append([(t, x // g) for t, x in rep] if track and g != 1 else rep)
            queue.add(comp, e)
            return True
        if track and not drop_zero and rep:
            syzygies.append(_rep_vector(ring, rep, len(gens)))
        return False

    if marks is None:
        for i, f in enumerate(gens):
            reduce_and_add(*vec_integral(f), [(one, 1, [((i, one), 1)])])
    else:
        for i, f in enumerate(gens):
            c = next(c for c, p in enumerate(f) if not p.is_zero())
            queue.add_generator(i, f[c].degree() + sum(marks[c][0]))

    # the pairs left, in a local while the loop runs: one compare per pair
    active = _pair_budget.get()
    left, limit = active or (DEFAULT_PAIR_BUDGET, DEFAULT_PAIR_BUDGET)
    try:
        while (pair := queue.pop()) is not None:
            i, j = pair
            if j is None:
                if reduce_and_add(*vec_integral(gens[i]), [(one, 1, [((i, one), 1)])], True):
                    kept.append(i)
                continue
            if not left:
                kind = "syzygy" if track else "ideal" if ideal else "module"
                raise StepBudgetExceeded(f"{kind} pair budget {limit} exhausted")
            left -= 1
            svec, ti, tj = _module_spair(ring, basis[i], basis[j], leads[i], leads[j])
            reduce_and_add(svec, 1, [(*ti, reps[i]), (*tj, reps[j])])
    finally:
        if active is not None:
            active[0] = left
    return basis, syzygies, kept, leads


def _certify(syzygies: list[Vec], gens: Sequence[Vec]) -> None:
    """Expand each syzygy against the generators, one component at a time,
    into an unsorted coefficient dict; raise unless it is zero."""
    for u in syzygies:
        for comp in range(len(gens[0])):
            total: dict = {}
            for coeff, gen in zip(u, gens):
                add_product(total, coeff.terms, gen[comp].terms)
            if any(total.values()):
                raise AssertionError("syzygy certificate failed to expand to zero")


def syzygy_generators(gens: Sequence[Vec], ring: PolyRing) -> list[Vec]:
    """Generators of {u in R^s : sum u_k * gens[k] = 0}, each certified."""
    if not gens:
        return []
    _, syzygies, _, _ = _buchberger(gens, ring, track=True)
    _certify(syzygies, gens)
    return syzygies


def minimal_syzygies(
    gens: Sequence[Vec], ring: PolyRing, marks: Marks
) -> tuple[list[int], list[Vec], list[Vec], list[Lead]]:
    """One resolution step: (kept generators, their syzygies, the integral
    Groebner basis, its leading terms).

    ``gens`` are homogeneous vectors over a free module with Schreyer
    ``marks``.  The kept generators form a minimal generating set of the
    module that ``gens`` generate, and the syzygies, each certified, are
    vectors over the kept generators in the order of ``kept``.
    """
    if not gens:
        return [], [], [], []
    basis, syzygies, kept, leads = _buchberger(gens, ring, track=True, marks=marks)
    kept.sort()
    syzygies = [tuple(u[i] for i in kept) for u in syzygies]
    _certify(syzygies, [gens[i] for i in kept])
    return kept, syzygies, basis, leads


def induced_marks(ring: PolyRing, gens: Sequence[Vec], marks: Marks) -> list[tuple[Exponent, int]]:
    """The Schreyer marks that ``gens``, over a module with ``marks``, induce.

    Generator i leads with m*e_c, so its mark is m*M_c; ranks order the
    generators by the rank of c, then by index.
    """
    leads = [vec_leading(ring, g, marks)[:2] for g in gens]
    order = sorted(range(len(gens)), key=lambda i: (marks[leads[i][0]][1], i))
    rank = {i: r for r, i in enumerate(order)}
    return [(mono_mul(e, marks[c][0]), rank[i]) for i, (c, e) in enumerate(leads)]


def integral_basis(gens: Sequence[Vec], ring: PolyRing) -> tuple[list[Vec], list[Lead]]:
    """A Groebner basis (TOP order) with its leading terms: one untracked run, integral."""
    basis, _, _, leads = _buchberger(gens, ring, track=False)
    return basis, leads


def interreduce(basis: Sequence[Vec], leads: Sequence[Lead], ring: PolyRing) -> list[Vec]:
    """The reduced Groebner basis (TOP order) of the module that a Groebner
    basis, with its leading terms, generates: its minimal leads, each
    element fully reduced by the others and made monic, sorted by lead.

    The monic step is the one place the engine leaves the integers.
    """
    minimal: list[Vec] = []
    kept: list[Lead] = []
    for i in sorted(range(len(basis)), key=lambda i: (leads[i][0], ring.exp_key(leads[i][1]))):
        c, e, _ = leads[i]
        if not any(hc == c and mono_divides(he, e) for hc, he, _ in kept):
            minimal.append(basis[i])
            kept.append(leads[i])
    # interreduction keeps each leading term, so the result stays sorted
    reduced: list[Vec] = []
    for k, g in enumerate(minimal):
        _, r, lead = module_reduce(ring, g, minimal[:k] + minimal[k + 1 :], None, kept[:k] + kept[k + 1 :])
        reduced.append(vec_monic(r, lead[2]))
    return reduced


def module_groebner(gens: Sequence[Vec], ring: PolyRing) -> list[Vec]:
    """Reduced Groebner basis of the submodule generated by gens (TOP order)."""
    return interreduce(*integral_basis(gens, ring), ring)
