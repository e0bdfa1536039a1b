"""Groebner engine: reduced bases, normal forms, membership, budgets."""

from fractions import Fraction
from random import Random

import pytest

from foliations.groebner import (
    Ideal,
    StepBudgetExceeded,
    ideal_equal,
    is_groebner_basis,
    normal_form,
    reduced_groebner_basis,
    s_polynomial,
)
from foliations.rings import PolyRing

R = PolyRing(4)
Z = R.variables()


def test_already_reduced():
    gb = Ideal(R, [Z[0], Z[1]]).groebner_basis()
    assert sorted(str(g) for g in gb) == ["z0", "z1"]


def test_divisible_pair_collapses():
    gb = Ideal(R, [Z[0] ** 2 - Z[1] ** 2, Z[0] - Z[1]]).groebner_basis()
    assert [str(g) for g in gb] == ["z0 - z1"]


def test_twisted_cubic_reduced_basis():
    I = Ideal(R, [Z[0] * Z[2] - Z[1] ** 2, Z[0] * Z[3] - Z[1] * Z[2], Z[1] * Z[3] - Z[2] ** 2])
    gb = I.groebner_basis()
    assert len(gb) == 3 and all(g.degree() == 2 for g in gb)
    assert is_groebner_basis(gb)


def test_reduced_basis_unique_under_generator_shuffle():
    rng = Random(4)
    gens = [
        Z[0] * Z[2] - Z[1] ** 2,
        Z[0] * Z[3] - Z[1] * Z[2],
        Z[1] * Z[3] - Z[2] ** 2,
        Z[0] * (Z[0] * Z[2] - Z[1] ** 2) + Z[3] * (Z[1] * Z[3] - Z[2] ** 2),
    ]
    reference = reduced_groebner_basis(gens, R)
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert reduced_groebner_basis(shuffled, R) == reference


def test_normal_form_examples():
    assert normal_form(Z[0] ** 2, [Z[0]]).is_zero()
    assert normal_form(Z[1], [Z[0]]) == Z[1]


def test_normal_form_is_idempotent_and_linear():
    rng = Random(8)
    from .conftest import random_homogeneous

    I = Ideal(R, [Z[0] * Z[2] - Z[1] ** 2, Z[1] * Z[3] - Z[2] ** 2])
    G = I.groebner_basis()
    for _ in range(15):
        f = random_homogeneous(rng, R, 3)
        g = random_homogeneous(rng, R, 3)
        rf, rg = normal_form(f, G), normal_form(g, G)
        assert normal_form(rf, G) == rf
        assert normal_form(f + g, G) == rf + rg


def test_membership_by_construction():
    rng = Random(13)
    from .conftest import random_homogeneous

    gens = [Z[0] * Z[2] - Z[1] ** 2, Z[0] * Z[3] - Z[1] * Z[2], Z[1] * Z[3] - Z[2] ** 2]
    I = Ideal(R, gens)
    for _ in range(10):
        combo = R.zero()
        for g in gens:
            combo = combo + random_homogeneous(rng, R, 2) * g
        assert I.contains(combo)
    assert not I.contains(Z[0] ** 2)


def test_every_s_polynomial_reduces():
    I = Ideal(R, [Z[0] ** 2 - Z[1] * Z[3], Z[1] ** 2 - Z[0] * Z[2], Z[2] ** 2 - Z[1] * Z[3]])
    gb = I.groebner_basis()
    assert is_groebner_basis(gb)
    for i in range(len(gb)):
        for j in range(i + 1, len(gb)):
            assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero()


def test_ideal_equal_examples():
    assert ideal_equal(Ideal(R, [Z[0], Z[1]]), Ideal(R, [Z[1], Z[0] + Z[1]]))
    assert not ideal_equal(Ideal(R, [Z[0]]), Ideal(R, [Z[0] ** 2]))


def test_budget_exhaustion_is_an_error():
    gens = [Z[0] * Z[2] - Z[1] ** 2, Z[0] * Z[3] - Z[1] * Z[2], Z[1] * Z[3] - Z[2] ** 2]
    with pytest.raises(StepBudgetExceeded):
        reduced_groebner_basis(gens, R, budget=0)


def test_reduced_basis_matches_sympy():
    # an outside oracle: sympy's reduced grevlex basis over QQ is also monic,
    # so the two bases must agree term by term
    sympy = pytest.importorskip("sympy")
    from .conftest import random_homogeneous

    syms = sympy.symbols("z0:4")
    rng = Random(2026)
    for _ in range(8):
        gens = [
            random_homogeneous(rng, R, rng.randint(1, 3)) for _ in range(rng.randint(3, 4))
        ]
        exprs = [
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(z**k for z, k in zip(syms, e)))
                for e, c in g.terms
            )
            for g in gens
        ]
        expected = sympy.groebner(exprs, *syms, order="grevlex", domain=sympy.QQ)
        expected_terms = sorted(
            sorted((e, Fraction(int(c.numerator), int(c.denominator))) for e, c in p.terms())
            for p in expected.polys
        )
        ours = sorted(sorted(g.terms) for g in reduced_groebner_basis(gens, R))
        assert ours == expected_terms
