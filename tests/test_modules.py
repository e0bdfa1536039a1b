"""Syzygy modules and module Groebner bases."""

from random import Random

import pytest

import foliations.modules as modules
from foliations.linalg import rank
from foliations.modules import (
    module_groebner,
    module_normal_form,
    syzygy_generators,
    vec_is_zero,
)
from foliations.rings import PolyRing

R = PolyRing(4)
Z = R.variables()


def _syzygies(polys):
    """Syzygies of homogeneous polynomials, with the twists of their module."""
    return syzygy_generators([(g,) for g in polys], R), tuple(g.degree() for g in polys)


def _degree(u, twists):
    """The degree of a syzygy, asserting that it is homogeneous."""
    assert all(c.is_homogeneous() for c in u)
    degrees = {c.degree() + t for c, t in zip(u, twists) if not c.is_zero()}
    assert len(degrees) == 1
    return degrees.pop()


def test_koszul_pair():
    syz, twists = _syzygies([Z[0], Z[1]])
    assert len(syz) == 1
    assert [str(c) for c in syz[0]] == ["z1", "-z0"]
    assert twists == (1, 1)
    assert _degree(syz[0], twists) == 2


def test_koszul_four_variables():
    syz, twists = _syzygies(list(Z))
    assert len(syz) == 6
    assert all(_degree(s, twists) == 2 for s in syz)


def test_l1111_linear_syzygy_dimension_via_linear_algebra():
    # independent oracle: truncate the syzygy module in entry degree 1 and
    # count a basis by exact linear algebra over Q
    lam = [1, 1, 1, -3]
    F = []
    for i in range(4):
        p = R.one()
        for j in range(4):
            if j != i:
                p = p * Z[j]
        F.append(p.scale(lam[i]))
    from foliations.classify import graded_syzygy_dimension

    assert graded_syzygy_dimension(tuple(F), 1) == 3
    # the Schreyer-style generators of internal degree 4 span that same space
    syz, twists = _syzygies(F)
    degree_four = [s for s in syz if _degree(s, twists) == 4]
    rows = []
    for s in degree_four:
        row = []
        for comp in s:
            for i in range(4):
                row.append(comp.coefficient(tuple(1 if k == i else 0 for k in range(4))))
        rows.append(row)
    assert rank(rows) == 3


def test_syzygies_certified_against_random_generators():
    rng = Random(21)
    from .conftest import random_homogeneous

    for _ in range(5):
        gens = [random_homogeneous(rng, R, rng.randint(1, 2)) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        # expansion to zero is asserted inside syzygy_generators
        syz = syzygy_generators([(g,) for g in gens], R)
        for u in syz:
            total = R.zero()
            for coeff, g in zip(u, gens):
                total = total + coeff * g
            assert total.is_zero()


def test_certificate_expands_each_component():
    # rank-2 generators: a syzygy must vanish in every component, not only in the first
    gens = [(Z[0], Z[1]), (Z[1], Z[2]), (Z[0] + Z[1], Z[1] + Z[2])]
    syz = syzygy_generators(gens, R)
    assert syz
    modules._certify(syz, gens)
    modules._certify([(Z[1], Z[1], -Z[1])], gens)
    with pytest.raises(AssertionError, match="certificate"):
        modules._certify([(Z[1], Z[1], -Z[1])], [gens[0], (Z[1], Z[3]), gens[2]])
    with pytest.raises(AssertionError, match="certificate"):
        modules._certify([(Z[1], -Z[1], Z[0])], [(Z[0],), (Z[0],), (Z[1],)])


def _span_dimension(syzygies, entry_degree):
    """Dimension of the Q-span of monomial multiples with entries of one degree."""
    from foliations.classify import monomials_of_degree

    rows = []
    for u in syzygies:
        own = max(c.degree() for c in u if not c.is_zero())
        for m in monomials_of_degree(R, entry_degree - own):
            multiple = [c.mul_term(m, 1) for c in u]
            rows.append([
                c.coefficient(e) for c in multiple
                for e in monomials_of_degree(R, entry_degree)
            ])
    return rank(rows) if rows else 0


def test_syzygies_generate_against_dense_linear_algebra():
    # completeness oracle: pruned pairs must not lose a syzygy, so in each
    # entry degree the returned generators span what dense elimination counts
    from foliations.classify import graded_syzygy_dimension

    from .conftest import random_homogeneous

    rng = Random(0)
    for count, degree in [(3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (6, 2)]:
        gens = [random_homogeneous(rng, R, degree, max_terms=2) for _ in range(count)]
        syz = syzygy_generators([(g,) for g in gens], R)
        for entry_degree in range(3):
            assert _span_dimension(syz, entry_degree) == graded_syzygy_dimension(
                tuple(gens), entry_degree
            )


def test_module_groebner_reduces_membership():
    gens = [(Z[0], Z[1]), (Z[1], Z[0]), (Z[0] + Z[1], Z[0] + Z[1])]
    gb = module_groebner(gens, R)
    member = tuple(
        a + b for a, b in zip(
            [p * Z[2] for p in gens[0]], [p * Z[3] for p in gens[1]]
        )
    )
    assert vec_is_zero(module_normal_form(R, member, gb))
    outside = (R.one(), R.zero())
    assert not vec_is_zero(module_normal_form(R, outside, gb))


def test_zero_generator_yields_unit_syzygy():
    syz = syzygy_generators([(Z[0],), (R.zero(),)], R)
    assert any(str(u[1]) == "1" and u[0].is_zero() for u in syz)
