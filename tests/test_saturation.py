"""Colon and saturation: the two algorithms and the fixpoint laws."""

from random import Random

from foliations.groebner import Ideal, ideal_equal, normal_form
from foliations.rings import PolyRing, grevlex_cheapest
from foliations.saturation import colon, intersect, saturate, saturate_variable

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
    I = Ideal(R, [Z[0], Z[1]])
    assert ideal_equal(I, saturate(I))
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


def test_saturated_variable_keeps_the_basis_it_holds(monkeypatch):
    # I is saturated in z0, so the cheap-order basis is the only new one
    I = Ideal(R, [Z[1] * Z[2] - Z[3] ** 2, Z[0] * Z[1] + Z[2] ** 2])
    gb = I.groebner_basis()
    calls = _count_bases(monkeypatch)
    S = saturate_variable(I, 0)
    assert len(calls) == 1
    assert calls[0].order != R.order
    assert S.generators == tuple(gb) and S.groebner_basis() == gb
    assert len(calls) == 1


def test_variable_saturation_takes_one_basis_per_order(monkeypatch):
    # the cheap-order basis (z0*z1, z0*z2 + z0*z3), divided by z0, is already
    # a basis of I : z0^oo (Bayer-Stillman): only its default-order basis follows
    I = Ideal(R, [Z[0] * Z[1], Z[0] * Z[2] + Z[0] * Z[3]])
    calls = _count_bases(monkeypatch)
    S = saturate_variable(I, 0)
    assert [ring.order for ring in calls] == [grevlex_cheapest(0), R.order]
    assert S.generators == (Z[2] + Z[3], Z[1])
    assert S.groebner_basis() == list(S.generators) and len(calls) == 2


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
