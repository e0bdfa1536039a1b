"""Groebner engine: reduced bases, normal forms, membership, budgets."""

from fractions import Fraction
from random import Random

import pytest

from foliations.groebner import Ideal, ideal_equal, normal_form, reduced_groebner_basis
from foliations.modules import StepBudgetExceeded
from foliations.rings import PolyRing, map_to_ring

from .conftest import s_polynomial

R = PolyRing(4)
Z = R.variables()


def is_groebner_basis(G) -> bool:
    """Certificate check, free of pair criteria: every S-polynomial reduces to zero."""
    return all(
        normal_form(s_polynomial(G[i], G[j]), G).is_zero()
        for i in range(len(G))
        for j in range(i + 1, len(G))
    )


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
        assert normal_form(combo, I.groebner_basis()).is_zero()
    assert not normal_form(Z[0] ** 2, I.groebner_basis()).is_zero()


def test_every_s_polynomial_reduces():
    ideals = [
        [Z[0] ** 2 - Z[1] * Z[3], Z[1] ** 2 - Z[0] * Z[2], Z[2] ** 2 - Z[1] * Z[3]],
        # a reduced basis of 6 elements, monic with Fraction tails
        [Z[0] * Z[1] - 3 * Z[2] ** 2, 3 * Z[0] ** 2 - Z[1] * Z[3], Z[2] * Z[3] - 7 * Z[0] * Z[2]],
    ]
    for gens in ideals:
        gb = Ideal(R, gens).groebner_basis()
        assert is_groebner_basis(gb)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero()
    assert len(gb) == 6


def test_ideal_equal_examples():
    assert ideal_equal(Ideal(R, [Z[0], Z[1]]), Ideal(R, [Z[1], Z[0] + Z[1]]))
    assert not ideal_equal(Ideal(R, [Z[0]]), Ideal(R, [Z[0] ** 2]))


def test_budget_exhaustion_is_an_error():
    gens = [Z[0] * Z[2] - Z[1] ** 2, Z[0] * Z[3] - Z[1] * Z[2], Z[1] * Z[3] - Z[2] ** 2]
    with pytest.raises(StepBudgetExceeded, match="^ideal pair budget 0 exhausted$"):
        reduced_groebner_basis(gens, R, budget=0)


def test_coprime_leading_terms_make_no_pair():
    # the product criterion: the one pair has coprime leading terms z0^2 and
    # z2^2, so the basis needs no S-polynomial at all
    gens = [Z[0] ** 2 + Z[1] * Z[3], Z[2] ** 2]
    assert reduced_groebner_basis(gens, R, budget=0) == [gens[1], gens[0]]


def test_reduced_basis_matches_sympy():
    # an outside oracle: sympy's reduced grevlex basis over QQ is also monic,
    # so the two bases must agree term by term; grevlex with z_var cheapest is
    # sympy's grevlex with z_var listed last, and ours after the relabelling
    # that lists the variables in that order
    sympy = pytest.importorskip("sympy")
    from .conftest import random_homogeneous

    syms = sympy.symbols("z0:4")
    rng = Random(2026)
    perms = [list(range(4))] + [[i for i in range(4) if i != var] + [var] for var in range(4)]
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
        for perm in perms:
            expected = sympy.groebner(
                exprs, *(syms[i] for i in perm), order="grevlex", domain=sympy.QQ
            )
            # sympy lists the exponent of syms[perm[j]] at j, the place map_to_ring gives it
            expected_terms = sorted(
                sorted(
                    (tuple(int(k) for k in m), Fraction(int(c.numerator), int(c.denominator)))
                    for m, c in p.terms()
                )
                for p in expected.polys
            )
            moved = [map_to_ring(g, R, [perm.index(i) for i in range(4)]) for g in gens]
            ours = sorted(sorted(g.terms) for g in reduced_groebner_basis(moved, R))
            assert ours == expected_terms
