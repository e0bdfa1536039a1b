"""Syzygy modules and module Groebner bases."""

from random import Random

import pytest

import foliations.modules as modules
from foliations.groebner import reduced_groebner_basis
from foliations.linalg import rank
from foliations.modules import (
    module_groebner,
    module_normal_form,
    module_reduce,
    syzygy_generators,
    vec_is_zero,
    vec_leading,
)
from foliations.rings import PolyRing, mono_divides

from .conftest import syzygy_dimension

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
    assert syzygy_dimension(tuple(F), 1) == 3
    # the Schreyer-style generators of internal degree 4 span that same space
    syz, twists = _syzygies(F)
    degree_four = [s for s in syz if _degree(s, twists) == 4]
    rows = []
    for s in degree_four:
        row = []
        for comp in s:
            for i in range(4):
                row.append(dict(comp.terms).get(tuple(1 if k == i else 0 for k in range(4)), 0))
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
            multiple = [dict(c.mul_term(m, 1).terms) for c in u]
            rows.append([
                c.get(e, 0) for c in multiple
                for e in monomials_of_degree(R, entry_degree)
            ])
    return rank(rows) if rows else 0


def test_syzygies_generate_against_dense_linear_algebra():
    # completeness oracle: pruned pairs must not lose a syzygy, so in each
    # entry degree the returned generators span what dense elimination counts
    from .conftest import random_homogeneous

    rng = Random(0)
    for count, degree in [(3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (6, 2)]:
        gens = [random_homogeneous(rng, R, degree, max_terms=2) for _ in range(count)]
        syz = syzygy_generators([(g,) for g in gens], R)
        for entry_degree in range(3):
            assert _span_dimension(syz, entry_degree) == syzygy_dimension(
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


def test_loop_top_reduces_and_normal_forms_reduce_fully():
    # the loop stops each division at the first irreducible lead: the third
    # basis element keeps its tail term z0*z1*z3, which the lead z0*z1 of
    # the second divides; full reduction would have rewritten it
    I = [Z[0] ** 2 - Z[1] * Z[3], Z[0] * Z[1] - Z[2] ** 2 - Z[1] * Z[3]]
    basis, _, _, leads = modules._buchberger([(g,) for g in I], R, track=False)
    assert str(basis[2][0]) == "z0*z2^2 + z0*z1*z3 - z1^2*z3"
    assert [str(g) for g in reduced_groebner_basis(I, R)] == [
        "z0*z1 - z2^2 - z1*z3",
        "z0^2 - z1*z3",
        "z0*z2^2 - z1^2*z3 + z2^2*z3 + z1*z3^2",
        "z2^4 - z1^3*z3 + 2*z1*z2^2*z3 + z1^2*z3^2",
    ]
    # a normal form against the basis the loop left is still fully reduced
    f = Z[0] ** 3 * Z[2] + Z[0] * Z[1] * Z[3] ** 2 + Z[2] ** 4
    r = module_normal_form(R, (f,), basis)[0]
    assert not r.is_zero()
    assert not any(mono_divides(e, m) for _, e, _ in leads for m, _ in r.terms)


def test_module_reduce_returns_the_lead_of_its_remainder():
    # the lead where a division stopped is the one vec_leading finds on the
    # remainder, under TOP and under Schreyer marks, and None for zero
    O = R.zero()
    marks = [((0, 0, 0, 0), 0), ((0, 1, 0, 0), 1), ((0, 1, 0, 0), 2)]
    g1 = (Z[1] ** 2, O, 2 * Z[0])
    g2 = (O, 3 * Z[1], Z[2])
    f = (3 * Z[1] ** 2 + Z[3] ** 2, 2 * Z[1] + Z[2], 5 * Z[0] + Z[3])
    cases = [
        (f, [g1, g2], marks),
        (f, [g1, g2], None),
        ((Z[0] ** 2 + Z[1] * Z[2],), [(Z[0] ** 2 - Z[3] ** 2,), (2 * Z[1],)], None),
    ]
    # under the marks the lead moves from component 2 to component 0
    assert vec_leading(R, f, marks)[0] == 2
    assert module_reduce(R, f, [g1, g2], marks, top=True)[2][0] == 0
    for v, basis, m in cases:
        for top in (True, False):
            steps, r, lead = module_reduce(R, v, basis, m, top=top)
            assert steps and lead == vec_leading(R, r, m)
    for v, basis, m in cases:
        member = tuple(
            a.mul_term((0, 0, 1, 0), 1) + b.scale(-2) for a, b in zip(basis[0], basis[1])
        )
        for top in (True, False):
            _, r, lead = module_reduce(R, member, basis, m, top=top)
            assert lead is None and vec_is_zero(r)


def test_classify_division_work(monkeypatch):
    # the loop leaves tails alone, so these two classifications take 20 and
    # 22 division steps; tail-reducing every division takes 31 and 44
    from foliations.classify import classify
    from foliations.forms import apply_projectivity, exceptional_form

    from .conftest import build_corpus

    move = ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 2, 1))
    forms = [dict(build_corpus())["pullback-d3"], apply_projectivity(exceptional_form(2), move)]
    steps = []
    reduce = modules.module_reduce

    def counting(*args, **kwargs):
        done, r, lead = reduce(*args, **kwargs)
        steps.append(len(done))
        return done, r, lead

    monkeypatch.setattr(modules, "module_reduce", counting)
    for form, expected in zip(forms, (20, 22)):
        steps.clear()
        classify(form)
        assert sum(steps) == expected
