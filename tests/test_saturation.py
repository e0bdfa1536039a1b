"""Colon and saturation: the two algorithms and the fixpoint laws."""

from itertools import product
from random import Random

import pytest

from foliations.classify import classify
from foliations.forms import singular_ideal, validate
from foliations.groebner import Ideal, ideal_equal, normal_form
from foliations.resolutions import free_resolution
from foliations.rings import LEX, PolyRing
from foliations.saturation import colon, intersect, saturate, saturate_by_colon

R = PolyRing(4)
Z = R.variables()


def test_colon_examples():
    assert [str(g) for g in colon(Ideal(R, [Z[0] ** 2]), Ideal(R, [Z[0]])).generators] == ["z0"]
    assert [str(g) for g in colon(Ideal(R, [Z[0] * Z[1]]), Ideal(R, [Z[1]])).generators] == ["z0"]
    I = Ideal(R, [Z[0], Z[1]])
    assert ideal_equal(colon(I, Ideal(R, [R.one()])), I)


def test_saturation_examples():
    I = Ideal(R, [Z[0] ** 2, Z[0] * Z[1], Z[0] * Z[2], Z[0] * Z[3]])
    assert [str(g) for g in saturate(I).groebner_basis()] == ["z0"]
    I = Ideal(R, [Z[0], Z[1]])
    assert ideal_equal(I, saturate(I))
    assert [str(g) for g in saturate(Ideal(R, list(Z))).groebner_basis()] == ["1"]
    # a complete intersection whose points all lie on z0 = 0 and on z3 = 0
    I = Ideal(R, [Z[0] ** 2, Z[1] * Z[2], Z[3] ** 2])
    assert ideal_equal(saturate(I), I) and ideal_equal(saturate_by_colon(I), I)


def test_saturation_contains_and_is_idempotent():
    I = Ideal(R, [Z[0] * Z[2] ** 2, Z[0] ** 2 * Z[1], Z[1] * Z[3] ** 2])
    S = saturate(I)
    for g in I.generators:
        assert normal_form(g, S.groebner_basis()).is_zero()
    assert ideal_equal(saturate(S), S)


def test_intersection_via_membership():
    I = Ideal(R, [Z[0], Z[1]])
    J = Ideal(R, [Z[2], Z[3]])
    K = intersect(I, J)
    gb = K.groebner_basis()
    assert normal_form(Z[0] * Z[2], gb).is_zero()
    assert not normal_form(Z[0], gb).is_zero()


def _count_bases(monkeypatch) -> list:
    """Record the ring of every basis computation, at the one engine seam."""
    import foliations.modules as modules

    calls = []
    real = modules._buchberger

    def counting(gens, ring, *args, **kwargs):
        calls.append(ring)
        return real(gens, ring, *args, **kwargs)

    monkeypatch.setattr(modules, "_buchberger", counting)
    return calls


def test_nonzerodivisor_last_variable_keeps_the_basis_it_holds(monkeypatch):
    # a complete intersection none of whose associated primes holds z3: the
    # first line, z3, divides no basis element, so I is saturated and is
    # returned itself, with no basis of its own
    I = Ideal(R, [Z[1] * Z[2] - Z[3] ** 2, Z[0] * Z[1] + Z[2] ** 2])
    gb = I.groebner_basis()
    calls = _count_bases(monkeypatch)
    S = saturate(I)
    assert calls == []
    assert S is I and S.groebner_basis() == gb


def test_embedded_point_is_removed_by_the_last_variable(monkeypatch):
    # the plane z0 = 0 with an m-primary component (the embedded point of
    # tests/test_ext.py): I : z3^oo = (z0) has the Hilbert polynomial of I,
    # so the first line decides, on I's basis alone
    I = Ideal(R, [Z[0] ** 2, Z[0] * Z[1], Z[0] * Z[2], Z[0] * Z[3]])
    calls = _count_bases(monkeypatch)
    S = saturate(I)
    assert len(calls) == 1
    assert [str(g) for g in S.groebner_basis()] == ["z0"]
    assert ideal_equal(S, saturate_by_colon(I))


def test_resolved_ideal_saturates_with_no_basis(monkeypatch):
    # the first step of the resolution holds a Groebner basis of I in the
    # ring order: the first line divides it, and I^sat comes integral, with
    # no reduced basis of I or of I^sat
    I = Ideal(R, [Z[0] ** 2, Z[0] * Z[1], Z[0] * Z[2], Z[0] * Z[3]])
    assert free_resolution(I).length == 4
    calls = _count_bases(monkeypatch)
    S = saturate(I)
    assert calls == []
    assert all(type(c) is int for g in S.generators for _, c in g.terms)
    assert ideal_equal(S, saturate_by_colon(I)) and ideal_equal(S, Ideal(R, [Z[0]]))


def test_saturation_walks_the_rational_normal_curve(monkeypatch):
    # (z0,z1) cap (z2,z3) cap m^3: z3 lies on the second line and z0 on the
    # first, so I : z3^oo and I : z0^oo each lose a line; z0+z1+z2+z3 (t = 1)
    # lies on neither and gives I^sat, the union of the two lines
    lines = intersect(Ideal(R, [Z[0], Z[1]]), Ideal(R, [Z[2], Z[3]]))
    cube = Ideal(R, [R.from_dict({e: 1}) for e in product(range(4), repeat=4) if sum(e) == 3])
    I = intersect(lines, cube)
    assert not ideal_equal(I, lines)
    I.groebner_basis()
    calls = _count_bases(monkeypatch)
    S = saturate(I)
    # z0's basis and t = 1's basis; I^sat is the divided basis of the second
    assert len(calls) == 2
    assert S.groebner_basis() == lines.groebner_basis()
    assert ideal_equal(S, saturate_by_colon(I))


def _random_distribution(seed: int):
    """F = A*z for an antisymmetric 4x4 matrix A of linear forms with
    coefficients in -3..3: sum z_i F_i = z^T A z = 0."""
    rng = Random(seed)
    A = [[R.zero()] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            A[i][j] = sum((Z[k].scale(rng.randint(-3, 3)) for k in range(4)), R.zero())
            A[j][i] = -A[i][j]
    return validate([sum((A[i][j] * Z[j] for j in range(4)), R.zero()) for i in range(4)])


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_resolved_random_distribution_saturates_like_the_oracle(seed, monkeypatch):
    # none of these singular ideals is saturated: z3 decides on the basis of
    # step 0, with no basis of its own, and I^sat comes back with integral
    # generators, equal to the oracle's; classify's Betti table is that of
    # the oracle's I^sat
    form = _random_distribution(seed)
    I = singular_ideal(form)
    assert free_resolution(I).length == 4
    calls = _count_bases(monkeypatch)
    S = saturate(I)
    assert calls == []
    oracle = saturate_by_colon(Ideal(R, form.coefficients))
    assert all(type(c) is int for g in S.generators for _, c in g.terms)
    assert not ideal_equal(S, I) and ideal_equal(S, oracle)
    report = classify(form)
    assert not report.saturated
    assert report.betti == free_resolution(oracle).betti()


def test_saturated_line_union_point_reaches_t_equal_one():
    # a line union a disjoint point (tests/test_ext.py) is saturated, but z3
    # lies on the point and z0 on both: only z0+z1+z2+z3 divides nothing
    I = intersect(Ideal(R, [Z[0], Z[1]]), Ideal(R, [Z[0], Z[2], Z[3]]))
    S = saturate(I)
    assert S.generators == I.generators
    assert ideal_equal(S, saturate_by_colon(I))


def random_monomial_or_binomial_ideal(rng, size=3):
    gens = []
    for _ in range(size):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(1, 4)):
            e[rng.randrange(4)] += 1
        m = R.from_dict({tuple(e): 1})
        if rng.random() < 0.5:
            d = sum(e)
            e2 = [0, 0, 0, 0]
            for _ in range(d):
                e2[rng.randrange(4)] += 1
            if tuple(e2) != tuple(e):
                m = m - R.from_dict({tuple(e2): rng.choice([1, 2, -1])})
        gens.append(m)
    return Ideal(R, gens)


def test_two_saturation_algorithms_agree_on_random_ideals():
    rng = Random(101)
    for _ in range(12):
        I = random_monomial_or_binomial_ideal(rng)
        a = saturate(I)
        b = saturate_by_colon(I)
        assert ideal_equal(a, b)
        # on a lex ring the bases are taken in grevlex and mapped back
        lex = PolyRing(4, LEX)
        I_lex = Ideal(lex, [lex.from_dict(dict(g.terms)) for g in I.generators])
        a_lex = saturate(I_lex)
        assert ideal_equal(a_lex, saturate_by_colon(I_lex))
        assert ideal_equal(a, Ideal(R, [R.from_dict(dict(g.terms)) for g in a_lex.generators]))
