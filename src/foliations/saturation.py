"""Colon ideals, intersections, and saturation.

``saturate`` computes I^sat = I : m^oo, for the irrelevant ideal
m = (z_0, ..., z_{n-1}), by one algorithm.  For a linear form l, a change
of coordinates that makes l the last variable turns any grevlex Groebner
basis of I, each element divided by its content in l, into a basis of
J = I : l^oo (Bayer-Stillman; Eisenbud, Prop. 15.12).  J contains I^sat
and is saturated, so J = I^sat exactly when R/J and R/I have the same
Hilbert polynomial.  The forms l are taken on the rational normal curve:
z_{n-1}, then z_0 (the one variable that misses the point (1:0:...:0)),
then sum_i t^(n-1-i) z_i for t = 1, 2, ...  Any n of them are linearly
independent, so each associated prime of I other than m contains at most
n-1 of them, and the loop ends.  On a grevlex ring the first line reads
the basis I holds (step 0 of its resolution, if one ran), and I^sat comes
back with the integral divided basis as generators, not a reduced one.

Colon and intersection reduce to syzygy computations.  ``saturate_by_colon``
iterates I <- I : m until the chain stabilizes: the independent oracle that
the engine test suite checks ``saturate`` against.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterator

from .groebner import Ideal, ideal_equal
from .hilbert import monomial_numerator, same_hilbert_polynomial
from .modules import syzygy_generators
from .rings import PolyRing, Polynomial, map_to_ring


def _canonical(ring: PolyRing, gens: list[Polynomial]) -> Ideal:
    """Ideal with its reduced Groebner basis as generators (and cached)."""
    gb = Ideal(ring, gens).groebner_basis()
    out = Ideal(ring, gb)
    out._gb = gb
    return out


def colon_by_poly(I: Ideal, f: Polynomial) -> Ideal:
    """I : (f) = {h : h*f in I}, via the last coordinate of a syzygy module."""
    if f.is_zero():
        return _canonical(I.ring, [I.ring.one()])
    gens = list(I.generators)
    vectors = [(g,) for g in gens] + [(f,)]
    syz = syzygy_generators(vectors, I.ring)
    projected = [u[-1] for u in syz if not u[-1].is_zero()]
    return _canonical(I.ring, projected + gens)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via syzygies of the concatenated generator lists."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    gi, gj = list(I.generators), list(J.generators)
    if not gi or not gj:
        return _canonical(I.ring, [])
    vectors = [(g,) for g in gi + gj]
    syz = syzygy_generators(vectors, I.ring)
    combos = []
    for u in syz:
        total = I.ring.zero()
        for coeff, g in zip(u[: len(gi)], gi):
            total = total + coeff * g
        if not total.is_zero():
            combos.append(total)
    return _canonical(I.ring, combos)


def colon(I: Ideal, J: Ideal) -> Ideal:
    """I : J  =  intersection of I : (f) over the generators f of J."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    if not J.generators:
        return _canonical(I.ring, [I.ring.one()])
    result: Ideal | None = None
    for f in J.generators:
        piece = colon_by_poly(I, f)
        result = piece if result is None else intersect(result, piece)
    return result


def _changes(I: Ideal, work: PolyRing) -> Iterator[tuple[Ideal, Callable]]:
    """I in the coordinates of ``work`` that make l the last variable, each
    with the map back, for l = z_{n-1}, z_0, then sum_i t^(n-1-i) z_i for
    t = 1, 2, ...  A variable l = z_k is swapped with z_{n-1}, so z_{n-1} on
    a grevlex ring gives I itself; any other l becomes y_{n-1}, and y_i = z_i
    for i < n-1."""
    ring, n = I.ring, I.ring.num_vars
    for k in (n - 1, 0):
        perm = [n - 1 if i == k else k if i == n - 1 else i for i in range(n)]
        moved = I if ring == work and k == n - 1 else Ideal(
            work, [map_to_ring(g, work, perm) for g in I.generators]
        )
        yield moved, (lambda g, v=perm: map_to_ring(g, ring, v))
    y, z = work.variables(), ring.variables()
    for t in count(1):
        c = [t ** (n - 1 - i) for i in range(n - 1)]
        forward = y[:-1] + [y[-1] - sum((y[i].scale(c[i]) for i in range(n - 1)), work.zero())]
        back = z[:-1] + [z[-1] + sum((z[i].scale(c[i]) for i in range(n - 1)), ring.zero())]
        moved = Ideal(work, [g.substitute(forward) for g in I.generators])
        yield moved, (lambda g, b=back: g.substitute(b))


def _divide_last(g: Polynomial) -> Polynomial:
    """g over the largest power of its last variable that divides it."""
    shift = min(e[-1] for e, _ in g.terms)
    if not shift:
        return g
    return Polynomial(g.ring, tuple(((*e[:-1], e[-1] - shift), c) for e, c in g.terms))


def saturate(I: Ideal) -> Ideal:
    """I : m^oo: the first I : l^oo, for l along the rational normal curve,
    with the Hilbert polynomial of I.  I itself when l divides no element of
    the basis, else the divided basis, mapped back and made primitive."""
    if not I.is_homogeneous():
        raise ValueError("saturation requires a homogeneous ideal")
    n = I.ring.num_vars
    for moved, back in _changes(I, PolyRing(n)):
        basis = [v[0] for v in moved.basis()[0]]
        divided = [_divide_last(g) for g in basis]
        if divided == basis:  # l is a nonzerodivisor on R/I, so I is saturated
            return I
        numerator = monomial_numerator([g.leading_monomial() for g in divided], n)
        if same_hilbert_polynomial(I.hilbert_numerator(), numerator, n):
            return Ideal(I.ring, [back(g).primitive() for g in divided])


def saturate_by_colon(I: Ideal) -> Ideal:
    """I : m^oo by the ``colon`` algorithm, the independent oracle of ``saturate``."""
    if not I.is_homogeneous():
        raise ValueError("saturation requires a homogeneous ideal")
    target = Ideal(I.ring, I.ring.variables())
    current = _canonical(I.ring, list(I.generators))
    while True:
        step = colon(current, target)
        if ideal_equal(step, current):
            return current
        current = step
