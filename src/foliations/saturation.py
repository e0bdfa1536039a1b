"""Colon ideals, intersections, and saturation.

Colon and intersection reduce to syzygy computations.  Saturation with
respect to the irrelevant ideal is done two independent ways:

* ``variables``: intersect the single-variable saturations I : z_i^oo, each
  obtained from one Groebner basis, in the grevlex order that makes z_i
  cheapest, by dividing every basis element by its z_i content
  (Bayer-Stillman), so one basis per variable.
  An intersection that containment decides is skipped: when one side lies in
  the other, checked by membership against the cached reduced bases, the
  smaller side is the intersection.
* ``colon``: iterate I <- I : J until the chain stabilizes.

The two must agree; the engine test suite checks that on a random corpus.
"""

from __future__ import annotations

from .groebner import Ideal, ideal_equal
from .modules import syzygy_generators
from .rings import PolyRing, Polynomial, grevlex_cheapest


def _canonical(ring: PolyRing, gens: list[Polynomial], budget: int | None) -> Ideal:
    """Ideal with its reduced Groebner basis as generators (and cached)."""
    return _with_basis(Ideal(ring, gens), budget)


def _with_basis(I: Ideal, budget: int | None) -> Ideal:
    """I with its reduced Groebner basis, computed once, as generators."""
    gb = I.groebner_basis(budget)
    out = Ideal(I.ring, gb)
    out._gb = gb
    return out


def _includes(I: Ideal, J: Ideal, budget: int | None) -> bool:
    """J is contained in I, by membership against I's reduced basis."""
    return all(I.contains(g, budget) for g in J.generators)


def colon_by_poly(I: Ideal, f: Polynomial, budget: int | None = None) -> Ideal:
    """I : (f) = {h : h*f in I}, via the last coordinate of a syzygy module."""
    if f.is_zero():
        return _canonical(I.ring, [I.ring.one()], budget)
    gens = list(I.generators)
    vectors = [(g,) for g in gens] + [(f,)]
    syz = syzygy_generators(vectors, I.ring, budget)
    projected = [u[-1] for u in syz if not u[-1].is_zero()]
    return _canonical(I.ring, projected + gens, budget)


def intersect(I: Ideal, J: Ideal, budget: int | None = None) -> Ideal:
    """I cap J via syzygies of the concatenated generator lists."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    gi, gj = list(I.generators), list(J.generators)
    if not gi or not gj:
        return _canonical(I.ring, [], budget)
    vectors = [(g,) for g in gi + gj]
    syz = syzygy_generators(vectors, I.ring, budget)
    combos = []
    for u in syz:
        total = I.ring.zero()
        for coeff, g in zip(u[: len(gi)], gi):
            total = total + coeff * g
        if not total.is_zero():
            combos.append(total)
    return _canonical(I.ring, combos, budget)


def colon(I: Ideal, J: Ideal, budget: int | None = None) -> Ideal:
    """I : J  =  intersection of I : (f) over the generators f of J."""
    if I.ring != J.ring:
        raise ValueError("ideals live in different rings")
    if not J.generators:
        return _canonical(I.ring, [I.ring.one()], budget)
    result: Ideal | None = None
    for f in J.generators:
        piece = colon_by_poly(I, f, budget)
        result = piece if result is None else intersect(result, piece, budget)
    return result


def saturate_variable(I: Ideal, var: int, budget: int | None = None) -> Ideal:
    """I : z_var^oo for homogeneous I, from one basis in the cheap order.

    Dividing each element of a grevlex basis with z_var last by its z_var
    content gives a basis of I : z_var^oo (Bayer-Stillman; Eisenbud, Prop.
    15.12).  So one basis per variable decides it: when no element has z_var
    content, I is returned with its (cached) default-order basis.
    """
    ring = I.ring
    divided = []
    changed = False
    for g in I.with_order(grevlex_cheapest(var)).groebner_basis(budget):
        shift = min(e[var] for e, _ in g.terms)
        if shift > 0:
            changed = True
            g = Polynomial(
                g.ring,
                tuple(
                    (tuple(x - shift if i == var else x for i, x in enumerate(e)), c)
                    for e, c in g.terms
                ),
            )
        divided.append(g)
    if not changed:
        return _with_basis(I, budget)
    return _canonical(ring, [ring.from_dict(g.as_dict()) for g in divided], budget)


def irrelevant_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, ring.variables())


def saturate(
    I: Ideal,
    J: Ideal | None = None,
    budget: int | None = None,
    method: str = "auto",
) -> Ideal:
    """I : J^oo (J defaults to the irrelevant ideal).

    ``method`` is one of ``auto``, ``variables`` (irrelevant ideal only), or
    ``colon``; the two concrete algorithms are independent and must agree.
    """
    if not I.is_homogeneous():
        raise ValueError("saturation requires a homogeneous ideal")
    irrelevant = J is None or ideal_equal(J, irrelevant_ideal(I.ring), budget)
    if method == "auto":
        method = "variables" if irrelevant else "colon"
    if method == "variables":
        if not irrelevant:
            raise ValueError("the variables method applies to the irrelevant ideal only")
        result: Ideal | None = None
        for var in range(I.ring.num_vars):
            piece = saturate_variable(I, var, budget)
            if result is None or _includes(result, piece, budget):
                result = piece
            elif not _includes(piece, result, budget):
                result = intersect(result, piece, budget)
        return result
    if method == "colon":
        target = J if J is not None else irrelevant_ideal(I.ring)
        current = _canonical(I.ring, list(I.generators), budget)
        while True:
            step = colon(current, target, budget)
            if ideal_equal(step, current, budget):
                return current
            current = step
    raise ValueError(f"unknown saturation method {method!r}")
