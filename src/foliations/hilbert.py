"""Hilbert series, Krull dimension, and graded dimension counting.

The Hilbert series of R/I is computed from the leading-term ideal of a
Groebner basis, with the numerator N taken over the full denominator (1-t)^n.
For a monomial ideal M and a pure power p = x_i^e, the exact sequence
0 -> R/(M : p)(-e) -> R/M -> R/(M + p) -> 0 gives the pivot recursion
``N(M) = N(M + (x_i^e)) + t^e * N(M : x_i^e)`` (Bigatti, "Computation of
Hilbert-Poincare series", JPAA 119, 1997).  The pivot x_i lies in the most
mixed generators (those in two or more variables) and e is its least positive
exponent, so the depth is bounded by the number of distinct exponents.  Two
cases close by formula: pure powers give the product of (1 - t^a), and pure
powers P with one mixed generator m give N(P) - t^deg(m) * N(P : m).  Graded
dimensions, Krull dimension and multiplicity all derive from the numerator
exactly.  One type, ``HilbertData``, holds the series t^shift * N / (1-t)^n
of R/I (shift 0) and of a quotient R^m(-twists)/N of a free module, whose N
sums the slots' numerators, each moved by its twist less the least one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Iterable, Sequence

from .rings import Exponent, mono_degree, mono_divides

if TYPE_CHECKING:
    from .groebner import Ideal  # groebner imports monomial_numerator from here

IntPoly = tuple[int, ...]  # dense coefficients in the formal variable t


def _trim(c: list[int]) -> IntPoly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _add(a: IntPoly, b: IntPoly) -> IntPoly:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _shift(a: IntPoly, k: int) -> IntPoly:
    return _trim([0] * k + list(a)) if a else a


def _div_one_minus_t(a: IntPoly) -> IntPoly | None:
    """a / (1-t) when exact, else None (exact iff a(1) = 0)."""
    if not a:
        return ()
    if sum(a) != 0:  # a(1)
        return None
    q = []
    acc = 0
    for c in a[:-1]:
        acc += c
        q.append(acc)
    return _trim(q)


# -- monomial-ideal numerator -------------------------------------------------


def _minimalize(gens: frozenset[Exponent]) -> frozenset[Exponent]:
    out = []
    for g in sorted(gens, key=mono_degree):
        if not any(mono_divides(h, g) for h in out):
            out.append(g)
    return frozenset(out)


def monomial_numerator(gens: Sequence[Exponent], num_vars: int) -> IntPoly:
    """Numerator of Hilb(R/M) over (1-t)^num_vars for a monomial ideal M."""
    return _numerator(_minimalize(frozenset(gens)), num_vars, {})


def _numerator(ms: frozenset[Exponent], n: int, memo: dict) -> IntPoly:
    """The pivot recursion on minimal generators ms, memoized in ``memo``."""
    got = memo.get(ms)
    if got is not None:
        return got
    mixed = [g for g in ms if g.count(0) < n - 1]
    if len(mixed) > 1:
        counts = [0] * n
        for g in mixed:
            for k, x in enumerate(g):
                if x:
                    counts[k] += 1
        i = max(range(n), key=counts.__getitem__)
        e = min(g[i] for g in ms if g[i])
        free = [g for g in ms if not g[i]]
        # M : x_i^e stays minimal once the free generators that a shifted one
        # divides are dropped; M + (x_i^e) is the free generators and x_i^e
        colon = [g[:i] + (g[i] - e,) + g[i + 1 :] for g in ms if g[i]]
        colon += [g for g in free if not any(mono_divides(h, g) for h in colon)]
        plus = free + [tuple(e if j == i else 0 for j in range(n))]
        result = _add(
            _numerator(frozenset(plus), n, memo), _shift(_numerator(frozenset(colon), n, memo), e)
        )
    elif mixed:
        (m,) = mixed
        pure = [g for g in ms if g is not m]
        colon = _pure_powers(sum(max(x - y, 0) for x, y in zip(g, m)) for g in pure)
        colon = _shift(tuple(-c for c in colon), mono_degree(m))
        result = _add(_pure_powers(map(mono_degree, pure)), colon)
    else:
        result = _pure_powers(map(mono_degree, ms))
    memo[ms] = result
    return result


def _pure_powers(degrees: Iterable[int]) -> IntPoly:
    """N of coprime pure powers of the given degrees: the product of (1 - t^a)."""
    out = [1]
    for a in degrees:
        if not a:
            return ()
        out += [0] * a
        for k in range(len(out) - 1, a - 1, -1):
            out[k] -= out[k - a]
    return tuple(out)


@dataclass(frozen=True)
class HilbertData:
    """Hilbert series t^shift * numerator / (1-t)^num_vars of a graded module:
    R/I with shift 0, or R^m(-twists)/N with shift the least twist."""

    num_vars: int
    numerator: IntPoly
    krull_dim: int
    multiplicity: int
    shift: int = 0

    def dimension_at(self, degree: int) -> int:
        """dim_Q of the graded piece in the given degree."""
        n, m = self.num_vars, degree - self.shift
        return sum(c * comb(m - k + n - 1, n - 1) for k, c in enumerate(self.numerator) if k <= m)

    def finite_support(self) -> dict[int, int]:
        """degree -> dimension of the nonzero pieces; only valid for finite length."""
        if self.krull_dim > 0:
            raise ValueError("module is not finite length")
        # finite length: numerator/(1-t)^n is a polynomial of degree < len(numerator)
        degrees = range(self.shift, self.shift + len(self.numerator) + 1)
        return {d: v for d in degrees if (v := self.dimension_at(d))}


def hilbert_from_numerator(numerator: IntPoly, num_vars: int, shift: int = 0) -> HilbertData:
    if not numerator:
        return HilbertData(num_vars, numerator, -1, 0, shift)
    q = numerator
    cancels = 0
    while True:
        nxt = _div_one_minus_t(q)
        if nxt is None:
            break
        q = nxt
        cancels += 1
    return HilbertData(num_vars, numerator, num_vars - cancels, sum(q), shift)


def same_hilbert_polynomial(a: IntPoly, b: IntPoly, num_vars: int) -> bool:
    """The numerators a and b over (1-t)^num_vars have the same Hilbert
    polynomial: their Hilbert functions differ in finitely many degrees."""
    return hilbert_from_numerator(_add(a, tuple(-c for c in b)), num_vars).krull_dim <= 0


def hilbert_data(I: Ideal) -> HilbertData:
    """Hilbert data of R/I, that of R/in(I) (Eisenbud, Thm 15.26); one numerator per I.

    in(I) is generated by the leading terms of the basis I holds: the one the
    first step of ``free_resolution(I)`` built, else the reduced basis.
    Equal to a resolution's alternating twist sum, the numerator still checks
    every later step of that resolution.
    """
    return hilbert_from_numerator(I.hilbert_numerator(), I.ring.num_vars)


# -- graded quotients of free modules ----------------------------------------


def module_hilbert(
    twists: Sequence[int], groebner_leads: Sequence[tuple[int, Exponent]], num_vars: int
) -> HilbertData:
    """Hilbert data of R^m(-twists)/N from the leading terms of a module GB of N.

    The series is the sum of those of the slots, slot j shifted by twists[j].
    Each slot's Hilbert function is nonnegative, so the pole order at t = 1
    of the sum, the Krull dimension, is the largest among the slots.
    """
    per_slot: list[list[Exponent]] = [[] for _ in twists]
    for comp, e in groebner_leads:
        per_slot[comp].append(e)
    shift = min(twists, default=0)
    numerator: IntPoly = ()
    for t, leads in zip(twists, per_slot):
        numerator = _add(numerator, _shift(monomial_numerator(leads, num_vars), t - shift))
    return hilbert_from_numerator(numerator, num_vars, shift)
