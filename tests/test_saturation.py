"""Colon and saturation: the two algorithms and the fixpoint laws."""

from random import Random

from foliations.groebner import Ideal, ideal_equal, normal_form
from foliations.rings import PolyRing
from foliations.saturation import colon, intersect, is_saturated_ideal, saturate

R = PolyRing(4)
Z = R.variables()


def test_colon_examples():
    assert [str(g) for g in colon(Ideal(R, [Z[0] ** 2]), Ideal(R, [Z[0]])).generators] == ["z0"]
    assert [str(g) for g in colon(Ideal(R, [Z[0] * Z[1]]), Ideal(R, [Z[1]])).generators] == ["z0"]
    I = Ideal(R, [Z[0], Z[1]])
    assert ideal_equal(colon(I, Ideal(R, [R.one()])), I)


def test_saturation_examples():
    I = Ideal(R, [Z[0] ** 2, Z[0] * Z[1], Z[0] * Z[2], Z[0] * Z[3]])
    assert [str(g) for g in saturate(I).generators] == ["z0"]
    assert is_saturated_ideal(Ideal(R, [Z[0], Z[1]]))
    assert [str(g) for g in saturate(Ideal(R, list(Z))).generators] == ["1"]


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


def test_saturation_skips_intersections_that_containment_decides(monkeypatch):
    # I : z0^oo = (1) strictly contains I : z1^oo = (z0^2, z2, z3^2); that
    # and I : z2^oo = (z0^2, z1, z3^2) need their intersection, I; and
    # I : z3^oo = (1) contains I
    import foliations.saturation as saturation

    calls = []
    real = saturation.intersect

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(saturation, "intersect", counting)
    I = Ideal(R, [Z[0] ** 2, Z[1] * Z[2], Z[3] ** 2])
    a = saturate(I, method="variables")
    assert len(calls) == 1
    assert ideal_equal(a, saturate(I, method="colon"))
    assert ideal_equal(a, I)


def random_monomial_or_binomial_ideal(rng, size=3):
    gens = []
    for _ in range(size):
        e = [0, 0, 0, 0]
        for _ in range(rng.randint(1, 4)):
            e[rng.randrange(4)] += 1
        m = R.monomial(e)
        if rng.random() < 0.5:
            d = sum(e)
            e2 = [0, 0, 0, 0]
            for _ in range(d):
                e2[rng.randrange(4)] += 1
            if tuple(e2) != tuple(e):
                m = m - R.monomial(e2, rng.choice([1, 2, -1]))
        gens.append(m)
    return Ideal(R, gens)


def test_two_saturation_algorithms_agree_on_random_ideals():
    rng = Random(101)
    for _ in range(12):
        I = random_monomial_or_binomial_ideal(rng)
        a = saturate(I, method="variables")
        b = saturate(I, method="colon")
        assert ideal_equal(a, b)
